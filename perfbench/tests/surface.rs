//! The benchmark may call only surfaces that outlive the planned removal
//! of the engine and fidelity switches and of the phase-timing and
//! statistics variants of the day entry points. Later changes to the
//! program must not need to edit the benchmark, so its sources must not
//! name any of them.

use std::path::Path;

/// Names the benchmark's sources must not contain, as whole identifiers.
const FORBIDDEN: [&str; 10] = [
    "EngineMode",
    "ModelFidelity",
    "DayPhases",
    "EngineStats",
    "run_day_timed",
    "run_day_instrumented",
    "new_timed",
    "rack_stats",
    "rack_phases",
    "stats_total",
];

/// Identifier endings the benchmark's sources must not contain.
const FORBIDDEN_SUFFIXES: [&str; 2] = ["_traced", "_with_stats"];

fn offending(text: &str) -> Vec<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|id| FORBIDDEN.contains(id) || FORBIDDEN_SUFFIXES.iter().any(|s| id.ends_with(s)))
        .map(str::to_string)
        .collect()
}

#[test]
fn sources_name_no_surface_due_for_removal() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this = Path::new(file!()).file_name().expect("test file name");
    let mut checked = 0;
    let mut found = Vec::new();
    for dir in ["src", "tests"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("benchmark source directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|e| e != "rs") || path.file_name() == Some(this) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            checked += 1;
            found
                .extend(offending(&text).into_iter().map(|id| format!("{}: {id}", path.display())));
        }
    }
    assert!(checked >= 5, "expected the benchmark's sources, found {checked} files");
    assert!(found.is_empty(), "sources name surfaces due for removal: {found:?}");
}

#[test]
fn the_scan_catches_each_form() {
    assert_eq!(offending("let m = oasis_sim::EngineMode::Interval;"), ["EngineMode"]);
    assert_eq!(offending("sim.run_day_timed(&clock, &mut p)"), ["run_day_timed"]);
    assert_eq!(offending("plan_consolidation_traced(t)"), ["plan_consolidation_traced"]);
    assert!(offending("run_day(); stats(); ClusterSim::new(cfg)").is_empty());
}
