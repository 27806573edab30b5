//! Regression tests for over-deep client input, run against the real
//! `pex-serve` binary: a stack overflow aborts the whole process, so an
//! in-process test could not observe the failure without dying with it.
//!
//! Each over-deep line must get exactly one structured error response,
//! leave the served snapshot untouched, and keep the daemon answering with
//! its request accounting identity intact.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use pex_serve::json::{self, Value};

fn spawn() -> (Child, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pex-serve"))
        .args(["paint", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pex-serve");
    let reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    (child, reader)
}

fn send(child: &mut Child, line: &str) {
    let stdin = child.stdin.as_mut().expect("stdin piped");
    writeln!(stdin, "{line}").expect("write request");
    stdin.flush().expect("flush request");
}

fn recv(reader: &mut BufReader<ChildStdout>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "server closed stdout: it crashed");
    json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad response {line}: {e}"))
}

fn wait_exit(mut child: Child) -> i32 {
    for _ in 0..100 {
        if let Some(status) = child.try_wait().expect("wait on child") {
            return status.code().expect("exit code");
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().ok();
    panic!("pex-serve did not exit within 10s of stdin EOF");
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("`{key}` missing in {v}"))
}

/// The paper's Figure 2 query; its ranked completions show whether the
/// snapshot changed.
fn completions(child: &mut Child, reader: &mut BufReader<ChildStdout>, id: u64) -> Value {
    send(
        child,
        &format!("{{\"id\":{id},\"query\":\"?({{img, size}})\",\"limit\":5}}"),
    );
    let doc = recv(reader);
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{doc}");
    doc.get("completions").cloned().expect("completions")
}

/// Pings (the very next line must be the pong: the over-deep request got
/// exactly one response) and checks the request accounting identity.
fn still_serving(child: &mut Child, reader: &mut BufReader<ChildStdout>) {
    send(child, r#"{"id":900,"cmd":"ping"}"#);
    let pong = recv(reader);
    assert_eq!(pong.get("id").and_then(Value::as_u64), Some(900), "{pong}");
    assert_eq!(pong.get("pong"), Some(&Value::Bool(true)), "{pong}");
    send(child, r#"{"id":901,"cmd":"health"}"#);
    let doc = recv(reader);
    let requests = doc
        .get("health")
        .and_then(|h| h.get("requests"))
        .unwrap_or_else(|| panic!("health: {doc}"));
    assert!(u(requests, "errors") >= 1, "{doc}");
    assert_eq!(
        u(requests, "received"),
        u(requests, "ok")
            + u(requests, "degraded")
            + u(requests, "shed")
            + u(requests, "errors")
            + u(requests, "pending"),
        "accounting identity: {doc}"
    );
}

#[test]
fn an_update_nesting_100k_parentheses_is_a_parse_error_not_a_crash() {
    let (mut child, mut reader) = spawn();
    let before = completions(&mut child, &mut reader, 1);

    let depth = 100_000;
    let unit = format!(
        "namespace Deep {{ class D {{ static int F() {{ return {}1{}; }} }} }}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    send(
        &mut child,
        &format!(
            "{{\"id\":2,\"cmd\":\"update\",\"source\":\"{}\"}}",
            json::escape(&unit)
        ),
    );
    let doc = recv(&mut reader);
    assert_eq!(doc.get("id").and_then(Value::as_u64), Some(2), "{doc}");
    assert_eq!(
        doc.get("error").and_then(Value::as_str),
        Some("parse_error"),
        "{doc}"
    );
    assert_eq!(u(&doc, "line"), 1, "{doc}");
    assert!(u(&doc, "col") > 1, "{doc}");
    let message = doc.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("too deep"), "{doc}");

    // The snapshot is untouched: the same query answers identically.
    assert_eq!(completions(&mut child, &mut reader, 3), before);
    still_serving(&mut child, &mut reader);
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn a_line_nesting_200k_arrays_is_a_bad_request_not_a_crash() {
    let (mut child, mut reader) = spawn();
    let depth = 200_000;
    send(
        &mut child,
        &format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
    );
    let doc = recv(&mut reader);
    assert_eq!(
        doc.get("error").and_then(Value::as_str),
        Some("bad_request"),
        "{doc}"
    );
    let message = doc.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("too_deep"), "{doc}");

    // Deep nesting inside a request object is refused the same way.
    send(
        &mut child,
        &format!(
            "{{\"id\":7,\"query\":\"?\",\"x\":{}{}}}",
            "{\"a\":".repeat(depth),
            "}".repeat(depth)
        ),
    );
    let doc = recv(&mut reader);
    assert_eq!(
        doc.get("error").and_then(Value::as_str),
        Some("bad_request"),
        "{doc}"
    );

    completions(&mut child, &mut reader, 8);
    still_serving(&mut child, &mut reader);
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}
