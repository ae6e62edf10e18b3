//! The experiment table, the committed `EXPERIMENTS.md` and the
//! `experiments` binary's argument handling agree. Nothing here
//! simulates.

use oasis_bench::experiments::ALL;
use std::collections::BTreeSet;
use std::process::{Command, Output};

#[test]
fn experiment_ids_are_unique() {
    let ids: BTreeSet<&str> = ALL.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), ALL.len());
}

#[test]
fn committed_doc_headings_are_the_table_ids_in_order() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let headings: Vec<&str> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .map(|h| h.rsplit_once(" (`").and_then(|(_, tag)| tag.strip_suffix("`)")).unwrap_or(h))
        .collect();
    let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
    assert_eq!(headings, ids);
}

fn experiments(args: &[&str], runs: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("OASIS_RUNS", runs)
        .env_remove("OASIS_BENCH_TRACE")
        .output()
        .expect("experiments binary runs")
}

/// Asserts a failed run that printed nothing and one stderr line.
fn assert_refused(out: &Output) -> String {
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "printed before refusing: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    stderr
}

#[test]
fn bad_arguments_fail_before_simulating() {
    let stderr = assert_refused(&experiments(&["--only", "nope"], "3"));
    assert!(stderr.contains("\"nope\""), "{stderr}");
    for e in &ALL {
        assert!(stderr.contains(e.id), "valid id {} not listed: {stderr}", e.id);
    }
    for runs in ["abc", "0"] {
        let stderr = assert_refused(&experiments(&[], runs));
        assert!(stderr.contains("OASIS_RUNS"), "{stderr}");
    }
    assert_refused(&experiments(&["--only"], "3"));
}
