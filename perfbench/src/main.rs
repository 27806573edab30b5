//! The pex benchmark: three workloads, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload keystroke|replay|edit-mix --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH]
//! perfbench --dump DIR --seed N
//! ```
//!
//! With `--trace 0` the named workload runs end to end and the run
//! prints its end-to-end metrics; with `--trace 1` the run feeds the
//! inputs of all three workloads through the layers' public functions
//! in-process and prints the per-layer metrics (see `layers`). Human
//! detail goes to stderr; the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--dump` writes every
//! workload's inputs for a seed to DIR instead of running anything.

mod check;
mod daemon;
mod editmix;
mod keystroke;
mod layers;
mod replay;
mod util;

use std::path::PathBuf;
use std::time::Duration;

use util::{Ledger, Metrics};

/// What every workload needs: the daemon binary, a private scratch
/// directory, and the seed.
pub struct Env {
    pub serve_bin: PathBuf,
    pub tmp: PathBuf,
    pub seed: u64,
}

impl Env {
    /// The run's own socket path. It is relative (to the checkout root,
    /// where both this process and the daemon run) so it stays under the
    /// 108-byte limit for socket paths however deep the checkout is.
    pub fn socket(&self) -> PathBuf {
        self.tmp.join("serve.sock")
    }
}

/// Removes the run's scratch directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A run's result: its metrics and its operation ledgers by kind.
pub struct Report {
    pub metrics: Metrics,
    pub ledgers: Vec<(&'static str, Ledger)>,
    pub incorrect: Option<String>,
}

struct Args {
    dump: Option<PathBuf>,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload keystroke|replay|edit-mix --seed N \
         --seconds S --trace 0|1 [--serve-bin PATH]\n       perfbench --dump DIR --seed N"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut dump = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])));
        match argv[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("--seconds takes a number")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--dump" => dump = Some(PathBuf::from(value)),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    if dump.is_some() {
        return Args {
            dump,
            workload: String::new(),
            seed: seed.unwrap_or_else(|| usage("--seed is required")),
            seconds: 0.0,
            trace: false,
            serve_bin: PathBuf::new(),
        };
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !["keystroke", "replay", "edit-mix"].contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    Args {
        dump: None,
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        serve_bin: serve_bin.unwrap_or_else(|| {
            let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
            PathBuf::from(dir).join("release").join("pex-serve")
        }),
    }
}

/// Writes every workload's inputs for `seed` under `dir`.
fn dump(dir: &std::path::Path, seed: u64) -> Result<(), String> {
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let round: Vec<String> = keystroke::round(seed)
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i as u64 + 1))
        .collect();
    write("keystroke.jsonl", round.join("\n") + "\n")?;
    write("replay.txt", replay::describe(seed))?;
    let project = editmix::prepare(&editmix::generate(), seed)?;
    write("edit-mix.mcs", project.source_with(None))?;
    write("edit-mix.jsonl", editmix::describe(&project))?;
    Ok(())
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.dump {
        if let Err(e) = dump(dir, args.seed) {
            eprintln!("perfbench: --dump: {e}");
            std::process::exit(1);
        }
        return;
    }
    // A run must end within its time limit even if the daemon hangs in a
    // way the socket timeouts do not catch. Exiting closes the daemon's
    // stdin, which shuts it down.
    let limit = Duration::from_secs_f64(170f64.max(args.seconds * 4.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {} s; giving up", limit.as_secs());
        std::process::exit(3);
    });
    if !args.serve_bin.is_file() {
        eprintln!(
            "perfbench: no pex-serve binary at {}",
            args.serve_bin.display()
        );
        std::process::exit(2);
    }
    let tmp = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let cleanup = TmpDir(tmp.clone());
    let env = Env {
        serve_bin: args.serve_bin,
        tmp,
        seed: args.seed,
    };
    let result = if args.trace {
        layers::run(&env, args.seconds)
    } else {
        match args.workload.as_str() {
            "keystroke" => keystroke::run_report(&env, args.seconds),
            "replay" => replay::run_report(&env, args.seconds),
            _ => editmix::run_report(&env, args.seconds),
        }
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            // `exit` runs no destructors.
            drop(cleanup);
            std::process::exit(1);
        }
    };
    for (name, value, unit) in report.metrics.entries() {
        eprintln!("  {name:<40} {value:>14.3} {unit}");
    }
    let (mut attempted, mut failed) = (0, 0);
    for (kind, ledger) in &report.ledgers {
        eprintln!(
            "  {kind}: {} attempted, {} failed",
            ledger.attempted, ledger.failed
        );
        if let Some(why) = &ledger.first_failure {
            eprintln!("    first failure: {why}");
        }
        attempted += ledger.attempted;
        failed += ledger.failed;
    }
    if let Some(why) = &report.incorrect {
        eprintln!("perfbench: INCORRECT OUTPUT: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report.incorrect.is_none() && attempted > 0,
        report.metrics.to_json()
    );
}
