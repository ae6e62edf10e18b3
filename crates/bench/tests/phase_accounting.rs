//! Phase-accounting lock: the paper day's phase scopes double-count
//! nothing against the wall of the `run_day` call, timed from outside.
//!
//! The profile tree splits a warm §5.1 day into five phase scopes under
//! `run_day`, and `oasis report --wall true` prints their wall columns.
//! Those scopes must sum to no more than the outside wall of the
//! `run_day` call, timed here with [`wall`] (±5% for the clock reads
//! themselves on very fast machines) — or a double-counted scope would
//! silently inflate the per-phase breakdown — and to at least half of
//! it, or the unscoped remainder would swamp the phases. The scopes'
//! shape inside the tree (order, one call per interval, bounded by the
//! `run_day` scope) is locked by `oasis-cli`'s
//! `profile_self_times_sum_to_the_root_total`.

use oasis_bench::timing::wall;
use oasis_cluster::{ClusterConfig, ClusterSim};
use oasis_telemetry::{Level, Telemetry};

#[test]
fn day_phase_brackets_partition_the_wall() {
    let cfg = || ClusterConfig::builder().seed(1).build().expect("valid §5.1 configuration");
    // Warmup fills the process-wide trace cache, so the profiled day
    // below measures the warm steady state every later day pays.
    let _ = ClusterSim::new(cfg()).run_day();
    let telemetry = Telemetry::new(Level::Warn);
    let mut sim = ClusterSim::new(cfg());
    sim.attach_telemetry(telemetry.clone());
    let (report, run_day_secs) = wall(move || sim.run_day());
    assert!(report.total_kwh > 0.0, "paper day simulated no energy");

    let tree = telemetry.profiler().snapshot();
    let day = tree.roots.iter().find(|r| r.name == "run_day").expect("run_day root");
    let mut sum = 0.0;
    for scope in ["fault_service", "activation", "planner", "fetch", "accounting"] {
        let phase = day.children.iter().find(|c| c.name == scope);
        let phase = phase.unwrap_or_else(|| panic!("missing phase scope {scope}"));
        sum += phase.total_wall_ns as f64 / 1e9;
    }
    assert!(
        sum <= run_day_secs * 1.05,
        "phases double-count — sum {sum:.6}s > wall {run_day_secs:.6}s"
    );
    assert!(
        sum >= run_day_secs * 0.5,
        "phases cover too little — sum {sum:.6}s of wall {run_day_secs:.6}s"
    );
}
