//! `oasis sim --trace-out` reports a failed trace write like every other
//! output flag: exit status 1 and one `oasis:` line on stderr.
//!
//! `/dev/full` accepts the open and fails every write with ENOSPC, so the
//! check runs on Linux only.

#![cfg(target_os = "linux")]

use std::process::Command;

#[test]
fn trace_out_write_failure_exits_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_oasis"))
        .args(["sim", "--seed", "1", "--homes", "2", "--cons", "1", "--vms", "5"])
        .args(["--trace-out", "/dev/full"])
        .output()
        .expect("the oasis binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one error line, got: {stderr}");
    assert!(lines[0].starts_with("oasis: "), "got: {stderr}");
}
