//! The `oasis-lint` binary's surface: argument parsing, output and exit
//! codes (0 clean, 1 findings, 2 usage error).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use oasis_lint::engine::analyze_workspace;
use oasis_sim::pool::WorkerPool;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

fn oasis_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oasis-lint"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("spawn oasis-lint")
}

#[test]
fn clean_workspace_exits_zero_with_the_library_report() {
    let out = oasis_lint(&["--format=json"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let report = analyze_workspace(&workspace_root(), &WorkerPool::from_env()).expect("walk");
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), report.to_json());
}

#[test]
fn finding_exits_one() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-finding");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/core/src")).expect("mkdir");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    fs::write(
        root.join("crates/core/src/x.rs"),
        "pub fn stamp() {\n    let _ = std::time::Instant::now();\n}\n",
    )
    .expect("source");

    let out = oasis_lint(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("crates/core/src/x.rs:2: [wall-clock]"), "{stdout}");
}

#[test]
fn removed_and_unknown_flags_exit_two() {
    for args in
        [&["--cache", "f"][..], &["--jobs", "2"], &["--fix"], &["--format=sarif"], &["--bogus"]]
    {
        let out = oasis_lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}
