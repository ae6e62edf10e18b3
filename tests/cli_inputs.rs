//! `oasis sim` rejects configuration values the simulator cannot honour
//! like every other bad input: exit status 1 and one `oasis:` line on
//! stderr, before any simulated day runs.

use std::path::PathBuf;
use std::process::Command;

/// Runs `oasis sim` on a small cluster with `extra` flags and asserts the
/// run is refused with a single `oasis:` error line.
fn assert_refused(extra: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_oasis"))
        .args(["sim", "--seed", "1", "--homes", "2", "--cons", "1", "--vms", "5"])
        .args(extra)
        .output()
        .expect("the oasis binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{extra:?} stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{extra:?}: one error line, got: {stderr}");
    assert!(lines[0].starts_with("oasis: "), "{extra:?}: got: {stderr}");
    assert!(out.stdout.is_empty(), "{extra:?}: no day ran");
}

#[test]
fn nan_memserver_watts_exits_1() {
    assert_refused(&["--memserver-watts", "nan"]);
}

#[test]
fn negative_memserver_watts_exits_1() {
    assert_refused(&["--memserver-watts", "-1"]);
}

#[test]
fn fault_on_host_outside_cluster_exits_1() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_inputs_fault_host.txt");
    std::fs::write(&path, "memserver_crash host=99999 at=10 for=10\n").expect("temp file");
    assert_refused(&["--faults", path.to_str().expect("utf-8 path")]);
}
