//! A binary whose stdout reader goes away (`explain --discarded | head
//! -3`) must end quietly: exit status 0 and no panic on stderr, because
//! every experiment binary prints through `ctxres_experiments::outln!`.

use std::process::{Command, Stdio};

/// Runs `bin` with `args`, closing the read end of its stdout before it
/// prints anything, and returns its exit status and stderr.
fn run_with_closed_stdout(bin: &str, args: &[&str]) -> (std::process::ExitStatus, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    drop(child.stdout.take());
    let out = child
        .wait_with_output()
        .expect("the binary runs to its end");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn explain_ends_quietly_on_a_closed_pipe() {
    let (status, stderr) = run_with_closed_stdout(env!("CARGO_BIN_EXE_explain"), &["--discarded"]);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn trace_dump_ends_quietly_on_a_closed_pipe() {
    let trace = std::env::temp_dir().join(format!("closed_pipe_{}.jsonl", std::process::id()));
    let (status, stderr) = run_with_closed_stdout(
        env!("CARGO_BIN_EXE_trace_dump"),
        &["--demo", trace.to_str().expect("a UTF-8 temp path")],
    );
    let _ = std::fs::remove_file(&trace);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
