//! Spawning `pex-serve`, talking to it over its Unix socket, and making
//! sure it is gone when the run ends, however the run ends.
//!
//! The daemon's stdin is a pipe held by this process: closing it is the
//! daemon's graceful-shutdown signal, so even if the benchmark is killed
//! outright the kernel closes the pipe and the daemon drains and exits.
//! A panic or early return drops the [`Daemon`], which kills it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pex_serve::json::{self, Value};

pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    log: PathBuf,
    /// Request lines this process sent, over stdin and the socket.
    pub lines_sent: u64,
}

impl Daemon {
    /// Spawns `pex-serve ARGS --workers 1 --socket SOCKET` and returns it
    /// with the seconds from spawn until it answered a `ping` (sent on
    /// stdin, so the answer also proves the socket is bound: the daemon
    /// binds before it reads stdin).
    pub fn boot(
        bin: &Path,
        args: &[String],
        socket: &Path,
        log: &Path,
    ) -> Result<(Daemon, f64), String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .args(["--workers", "1", "--socket"])
            .arg(socket)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdin: Some(stdin),
            stdout,
            socket: socket.to_owned(),
            log: log.to_owned(),
            lines_sent: 0,
        };
        let stdin = daemon.stdin.as_mut().expect("just set");
        writeln!(stdin, "{{\"id\":\"boot\",\"cmd\":\"ping\"}}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to pex-serve: {e}"))?;
        daemon.lines_sent += 1;
        let mut line = String::new();
        let n = daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read from pex-serve: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        if n == 0 || !line.contains("\"pong\":true") {
            return Err(format!(
                "pex-serve did not answer its boot ping (got `{}`); its log:\n{}",
                line.trim(),
                daemon.log_text()
            ));
        }
        Ok((daemon, secs))
    }

    /// Boots `boots` times, shutting each daemon down before the next,
    /// and returns the last one with the median boot time.
    pub fn boot_median(
        bin: &Path,
        args: &[String],
        socket: &Path,
        log: &Path,
        boots: usize,
    ) -> Result<(Daemon, f64), String> {
        let mut secs = Vec::new();
        let mut daemon = None;
        for _ in 0..boots.max(1) {
            if let Some(d) = daemon.take() {
                Daemon::shutdown(d)?;
            }
            let (d, s) = Daemon::boot(bin, args, socket, log)?;
            secs.push(s);
            daemon = Some(d);
        }
        Ok((
            daemon.expect("booted at least once"),
            crate::util::median(&secs),
        ))
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("cannot connect to {}: {e}", self.socket.display()))?;
        // A hung daemon fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// Closes stdin (the daemon drains and exits 0) and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    return Err(format!(
                        "pex-serve exited with {status}; its log:\n{}",
                        self.log_text()
                    ))
                }
                None if Instant::now() > deadline => {
                    return Err("pex-serve did not exit within 20 s of closing its stdin".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One closed-loop client connection: send a line, wait for its answer.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    /// Sends one request line and returns the response line.
    pub fn call(&mut self, request: &str) -> Result<&str, String> {
        let mut framed = String::with_capacity(request.len() + 1);
        framed.push_str(request);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("socket write: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("socket read: {e}"))?;
        if n == 0 {
            return Err("the daemon closed the connection".into());
        }
        Ok(self.line.trim_end())
    }
}

/// The daemon's request accounting, read through `{"cmd":"stats"}` at the
/// end of a run and checked against what this client sent: every line
/// was received, and every received line but the `stats` request itself
/// resolved as ok, degraded, shed or error.
pub struct Accounting {
    pub received: u64,
    pub queue_wait_us: f64,
}

pub fn check_accounting(daemon: &mut Daemon, conn: &mut Conn) -> Result<Accounting, String> {
    daemon.lines_sent += 1;
    let response = conn
        .call("{\"id\":\"final-stats\",\"cmd\":\"stats\"}")?
        .to_owned();
    let doc = json::parse(&response).map_err(|e| format!("stats response: {e}"))?;
    let metrics = doc
        .get("stats")
        .and_then(|s| s.get("metrics"))
        .ok_or_else(|| format!("stats response without metrics: {response}"))?;
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let received = counter("serve.requests.received");
    let resolved = counter("serve.requests.ok")
        + counter("serve.requests.degraded")
        + counter("serve.requests.shed")
        + counter("serve.requests.error");
    if received != daemon.lines_sent {
        return Err(format!(
            "the daemon received {received} request lines but this client sent {}",
            daemon.lines_sent
        ));
    }
    // The stats request is the one line still pending while it is answered.
    if resolved + 1 != received {
        return Err(format!(
            "accounting does not close: received {received}, resolved {resolved} (+1 pending stats)"
        ));
    }
    let wait = metrics
        .get("histograms")
        .and_then(|h| h.get("serve.queue.wait.ns"))
        .ok_or("stats has no serve.queue.wait.ns histogram")?;
    let count = wait.get("count").and_then(Value::as_f64).unwrap_or(0.0);
    let sum = wait.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
    Ok(Accounting {
        received,
        queue_wait_us: if count > 0.0 { sum / count / 1e3 } else { 0.0 },
    })
}
