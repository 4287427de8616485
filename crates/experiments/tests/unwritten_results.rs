//! A binary that cannot write its result file must fail: run from a
//! directory whose `results` is a regular file, `coverage --quick`
//! still prints its table, but a zero exit status would let a
//! regeneration step diff a stale committed file clean.

use std::process::{Command, Stdio};

#[test]
fn an_unwritten_result_fails_its_binary() {
    let dir = std::env::temp_dir().join(format!("unwritten_results_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temp dir");
    std::fs::write(dir.join("results"), "not a directory").expect("a file named results");
    let out = Command::new(env!("CARGO_BIN_EXE_coverage"))
        .arg("--quick")
        .current_dir(&dir)
        .stdout(Stdio::null())
        .output()
        .expect("the binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("could not write results json"),
        "stderr: {stderr}"
    );
}
