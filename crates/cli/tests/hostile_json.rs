//! Process-level regressions for hostile input: nesting deep enough to
//! overflow an unbounded recursive parser must come back as an ordinary
//! error from the `drq` binary, never as a stack-overflow abort, and a
//! serve line that is not UTF-8 or is over-long must not end serving.

use std::io::Write;
use std::process::{Command, Stdio};

fn drq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_drq"))
}

#[test]
fn deeply_nested_fault_plan_exits_one() {
    let path = std::env::temp_dir().join(format!("drq-deep-plan-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    let out = drq()
        .args(["sim", "--network", "lenet5", "--fault-plan"])
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than"), "stderr: {stderr}");
}

#[test]
fn serve_stdin_answers_a_deeply_nested_line_and_keeps_serving() {
    let mut child = drq()
        .args(["serve", "--stdin", "true", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let input = format!(
        "{{\"id\":{}\n{{\"id\":\"after\"}}\n{{\"kind\":\"shutdown\"}}\n",
        "[".repeat(50_000)
    );
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "status {:?}, stderr: {stderr}", out.status);
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    let errors = lines.iter().filter(|l| l.contains("invalid json")).count();
    assert_eq!(errors, 1, "{stdout}");
    let served = |l: &&str| l.contains("\"id\":\"after\"") && l.contains("\"status\":\"ok\"");
    assert!(lines.iter().any(served), "{stdout}");
}

#[test]
fn serve_stdin_answers_bad_utf8_and_overlong_lines_and_keeps_serving() {
    let mut child = drq()
        .args(["serve", "--stdin", "true"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // valid / bad UTF-8 / valid / one byte past the 64 KiB cap / valid.
    let mut input = b"{\"id\":\"r1\"}\n\xff\xfe\n{\"id\":\"r2\"}\n".to_vec();
    input.extend(std::iter::repeat_n(b'x', 64 * 1024 + 1));
    input.extend_from_slice(b"\n{\"id\":\"r3\"}\n");
    child.stdin.take().unwrap().write_all(&input).unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "status {:?}, stderr: {stderr}", out.status);
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), 5, "one response per line:\n{stdout}");
    let ok = lines.iter().filter(|l| l.contains("\"status\":\"ok\"")).count();
    let errors = lines.iter().filter(|l| l.contains("\"status\":\"error\"")).count();
    assert_eq!((ok, errors), (3, 2), "{stdout}");
    assert!(stdout.contains("served 3 cancelled 0 worker_restarts 0"), "{stdout}");
}
