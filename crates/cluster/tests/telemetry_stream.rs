//! Golden-stream test: a fixed-seed simulated day emits a byte-identical
//! JSONL event stream, report and metrics export on every run, and
//! attaching telemetry does not perturb the simulation itself.

use std::io::Write;
use std::sync::{Arc, Mutex};

use oasis_cluster::{ClusterConfig, ClusterSim};
use oasis_core::PolicyKind;
use oasis_telemetry::{JsonlSink, Level, Telemetry};

/// A `Write` handle over a shared buffer, so the test can read back what
/// the boxed sink wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn config() -> ClusterConfig {
    ClusterConfig::builder()
        .policy(PolicyKind::FullToPartial)
        .home_hosts(6)
        .consolidation_hosts(2)
        .vms_per_host(10)
        .seed(42)
        .wol_loss_rate(0.3)
        .build()
        .expect("valid configuration")
}

/// Runs one traced day; returns the JSONL stream and the summary line.
fn traced_day() -> (String, String) {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Level::Debug);
    telemetry.attach(Box::new(JsonlSink::new(buf.clone())));
    let mut sim = ClusterSim::new(config());
    sim.attach_telemetry(telemetry);
    let report = sim.run_day();
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    (stream, report.summary_line())
}

#[test]
fn fixed_seed_stream_is_byte_identical() {
    let (first, _) = traced_day();
    let (second, _) = traced_day();
    assert!(!first.is_empty());
    assert_eq!(first, second, "same seed must reproduce the stream byte-for-byte");
}

#[test]
fn stream_covers_the_lifecycle_vocabulary() {
    let (stream, _) = traced_day();
    let kinds: std::collections::BTreeSet<&str> = stream
        .lines()
        .map(|l| {
            let start = l.find("\"kind\":\"").expect("kind field") + 8;
            let rest = &l[start..];
            &rest[..rest.find('"').unwrap()]
        })
        .collect();
    assert!(kinds.len() >= 5, "expected >= 5 distinct event kinds, got {kinds:?}");
    for required in [
        "interval_started",
        "policy_decision",
        "migration_started",
        "migration_completed",
        "host_suspended",
    ] {
        assert!(kinds.contains(required), "missing {required} in {kinds:?}");
    }
    // 288 five-minute intervals, one marker each at debug level.
    let intervals = stream.lines().filter(|l| l.contains("\"kind\":\"interval_started\"")).count();
    assert_eq!(intervals, 288);
}

#[test]
fn telemetry_never_perturbs_the_simulation() {
    let untraced = ClusterSim::new(config()).run_day().summary_line();
    let (_, traced) = traced_day();
    assert_eq!(untraced, traced, "attaching telemetry must not consume RNG draws");
}

#[test]
fn report_summary_matches_the_stream() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Level::Info);
    telemetry.attach(Box::new(JsonlSink::new(buf.clone())));
    let mut sim = ClusterSim::new(config());
    sim.attach_telemetry(telemetry.clone());
    let report = sim.run_day();
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(report.telemetry.events_total, stream.lines().count() as u64);
    let by_kind: u64 = report.telemetry.events_by_kind.iter().map(|(_, n)| n).sum();
    assert_eq!(by_kind, report.telemetry.events_total);
    let tree = telemetry.profiler().snapshot();
    let day = tree.roots.iter().find(|r| r.name == "run_day").expect("run_day scope");
    let planner = day.children.iter().find(|c| c.name == "planner").expect("planner scope");
    let search = planner.children.iter().find(|c| c.name == "plan_consolidation");
    let search = search.expect("plan_consolidation scope under run_day › planner");
    assert_eq!(search.calls, 288, "one plan_consolidation scope per planning round");
}

/// Report `Debug` bytes and both metrics exports of one traced day.
fn traced_outputs() -> (String, String, String) {
    let telemetry = Telemetry::new(Level::Info);
    let mut sim = ClusterSim::new(config());
    sim.attach_telemetry(telemetry.clone());
    let report = sim.run_day();
    let metrics = telemetry.metrics();
    (format!("{report:?}"), metrics.to_prometheus(), metrics.to_json())
}

#[test]
fn traced_report_and_metrics_are_byte_identical() {
    let (report, prometheus, json) = traced_outputs();
    let again = traced_outputs();
    assert_eq!(report, again.0, "same seed must reproduce the report byte-for-byte");
    assert_eq!(prometheus, again.1, "same seed must reproduce the Prometheus export");
    assert_eq!(json, again.2, "same seed must reproduce the JSON export");
}
