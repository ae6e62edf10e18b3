//! Self-check: the workspace must finish `oasis-lint` with zero
//! unsuppressed findings, and the report must be byte-identical whatever
//! the worker count.
//! If the clean check fails, either fix the flagged code or add a
//! `// oasis-lint: allow(<rule>, "<reason>")` / `boundary(...)` pragma
//! with a real justification.

use std::path::Path;

use oasis_lint::engine::analyze_workspace;
use oasis_sim::pool::WorkerPool;

fn root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = analyze_workspace(&root(), &WorkerPool::from_env()).expect("workspace walk");
    assert!(
        report.checked_files > 100,
        "suspiciously few files checked ({}); walker broken?",
        report.checked_files
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "oasis-lint found {} unsuppressed finding(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}

#[test]
fn report_is_byte_identical_across_job_counts() {
    let root = root();
    let sequential = analyze_workspace(&root, &WorkerPool::new(1)).expect("sequential run");
    let parallel = analyze_workspace(&root, &WorkerPool::new(8)).expect("parallel run");
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "finding order must not depend on worker scheduling"
    );
}
