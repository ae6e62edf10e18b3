//! Determinism taint tests: transitive source-to-sink propagation across
//! the workspace call graph, boundary pragmas as taint blockers, and
//! pragma-health findings for stale boundaries and deferred allows.

use oasis_lint::engine::analyze_sources;
use oasis_lint::Finding;

const SOURCE: &str = include_str!("fixtures/taint/source.rs");
const MIDDLE: &str = include_str!("fixtures/taint/middle.rs");
const MIDDLE_BOUNDARY: &str = include_str!("fixtures/taint/middle_boundary.rs");
const UNUSED_BOUNDARY: &str = include_str!("fixtures/taint/unused_boundary.rs");
const SINK: &str = include_str!("fixtures/taint/sink.rs");

fn taint_findings(files: &[(&str, &str)]) -> Vec<Finding> {
    analyze_sources(files).findings.into_iter().filter(|f| f.rule == "determinism-taint").collect()
}

#[test]
fn two_hop_wall_clock_reaches_decision_path_sink() {
    // Acceptance criterion: the wall-clock call sits two calls below the
    // decision-path entry point, and the finding names the full chain.
    let findings = taint_findings(&[
        ("crates/telemetry/src/profile.rs", SOURCE),
        ("crates/telemetry/src/lib.rs", MIDDLE),
        ("crates/cluster/src/sim.rs", SINK),
    ]);
    assert_eq!(findings.len(), 1, "expected exactly one taint finding: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.file, "crates/cluster/src/sim.rs");
    assert!(f.message.contains("`step_interval`"), "{}", f.message);
    assert!(f.message.contains("wall-clock"), "{}", f.message);
    assert!(
        f.message.contains("crates/telemetry/src/profile.rs:7"),
        "finding must name the true source site: {}",
        f.message
    );
    assert!(
        f.message.contains("sample_latency -> wall_probe"),
        "finding must carry the witness path: {}",
        f.message
    );
}

#[test]
fn source_outside_sink_crates_alone_is_not_a_finding() {
    // telemetry is not a decision-path crate; with no sink in the graph
    // the source is someone else's business (per-site rules).
    let findings = taint_findings(&[
        ("crates/telemetry/src/profile.rs", SOURCE),
        ("crates/telemetry/src/lib.rs", MIDDLE),
    ]);
    assert!(findings.is_empty(), "no sink crate in graph: {findings:?}");
}

#[test]
fn boundary_on_middle_hop_blocks_propagation() {
    let report = analyze_sources(&[
        ("crates/telemetry/src/profile.rs", SOURCE),
        ("crates/telemetry/src/lib.rs", MIDDLE_BOUNDARY),
        ("crates/cluster/src/sim.rs", SINK),
    ]);
    assert!(
        report.findings.is_empty(),
        "justified boundary must silence the sink AND count as used: {:?}",
        report.findings
    );
}

#[test]
fn boundary_that_blocks_nothing_is_stale() {
    let report = analyze_sources(&[("crates/telemetry/src/lib.rs", UNUSED_BOUNDARY)]);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["unused-pragma"], "{:?}", report.findings);
    assert!(report.findings[0].message.contains("sample_latency"));
}

#[test]
fn allow_on_sink_line_excuses_the_taint_finding() {
    // A line-scoped allow(determinism-taint) directly above the flagged
    // call excuses exactly that finding.
    let sink = "// Fixture sink with a justified taint allowance.\n\
                pub fn step_interval() -> u64 {\n\
                    // oasis-lint: allow(determinism-taint, \"latency sample is logged, never branched on\")\n\
                    sample_latency()\n\
                }\n";
    let report = analyze_sources(&[
        ("crates/telemetry/src/profile.rs", SOURCE),
        ("crates/telemetry/src/lib.rs", MIDDLE),
        ("crates/cluster/src/sim.rs", sink),
    ]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn stale_taint_allow_is_flagged() {
    // The allow matches no taint finding (nothing tainted here), so the
    // deferred-pragma health check flags it.
    let sink = "pub fn step_interval() -> u64 {\n\
                    // oasis-lint: allow(determinism-taint, \"stale: the tainted call was removed\")\n\
                    7\n\
                }\n";
    let report = analyze_sources(&[("crates/cluster/src/sim.rs", sink)]);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["unused-pragma"], "{:?}", report.findings);
}

#[test]
fn method_call_propagates_taint_receiver_blind() {
    // `.probe()` resolves to every workspace method named `probe` with a
    // self param — taint flows through method edges, not just free calls.
    let source = "use std::time::Instant;\n\
                  pub struct Clock;\n\
                  impl Clock {\n\
                      pub fn probe(&self) -> u64 {\n\
                          Instant::now().elapsed().as_nanos() as u64\n\
                      }\n\
                  }\n";
    let sink = "pub fn plan(c: &Clock) -> u64 {\n\
                    c.probe()\n\
                }\n";
    let findings = taint_findings(&[
        ("crates/telemetry/src/clock.rs", source),
        ("crates/core/src/planner.rs", sink),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("`plan`"));
}

#[test]
fn env_read_taint_has_its_own_kind() {
    let source = "pub fn knob() -> Option<String> {\n\
                      std::env::var(\"OASIS_KNOB\").ok()\n\
                  }\n";
    let sink = "pub fn decide() -> bool {\n\
                    knob().is_some()\n\
                }\n";
    let findings = taint_findings(&[
        ("crates/host/src/knob.rs", source),
        ("crates/faults/src/inject.rs", sink),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("env-read"), "{}", findings[0].message);
}

#[test]
fn taint_findings_are_deterministically_ordered() {
    // Two sinks reaching the same source: findings must come out sorted
    // by (file, line, rule, message) no matter the input order.
    let files: Vec<(&str, &str)> = vec![
        ("crates/telemetry/src/profile.rs", SOURCE),
        ("crates/telemetry/src/lib.rs", MIDDLE),
        ("crates/cluster/src/sim.rs", SINK),
        ("crates/core/src/manager.rs", "pub fn plan() -> u64 {\n    sample_latency()\n}\n"),
    ];
    let forward = taint_findings(&files);
    let mut reversed_input: Vec<(&str, &str)> = files.clone();
    reversed_input.reverse();
    let backward = taint_findings(&reversed_input);
    assert_eq!(forward, backward);
    assert_eq!(forward.len(), 2);
    assert!(forward[0].file <= forward[1].file);
}
