//! Wall-clock probe for the stress-scenario registry.
//!
//! Runs every registered scenario (or one named on the command line)
//! and prints per-scenario wall times plus the golden digest, so a perf
//! regression in the stress paths — reboot handling, spike wakes, fault
//! recovery, the sharded day — is visible before the golden suite
//! merely times out:
//!
//! ```text
//! cargo run --release -p oasis-bench --example scenario_probe
//! cargo run --release -p oasis-bench --example scenario_probe -- patch_window
//! ```

use oasis_bench::timing::monotonic_secs;
use oasis_cluster::scenarios::{self, run_scenario_on};
use oasis_sim::pool::WorkerPool;

const RUNS: usize = 5;

fn main() {
    let filter: Option<String> = std::env::args().nth(1);
    let pool = WorkerPool::from_env();
    let specs: Vec<_> = scenarios::all()
        .into_iter()
        .filter(|s| filter.as_deref().is_none_or(|f| f == s.name))
        .collect();
    if specs.is_empty() {
        eprintln!("no scenario matches; registered: {}", scenarios::names().join(", "));
        std::process::exit(2);
    }
    for spec in specs {
        let mut digest = String::new();
        let mut best = f64::INFINITY;
        for _ in 0..RUNS {
            let t0 = monotonic_secs();
            let report = run_scenario_on(&pool, &spec, 1).expect("scenario runs");
            best = best.min(monotonic_secs() - t0);
            digest = report.digest();
        }
        println!("{:<16} best={:>8.2}ms", spec.name, best * 1e3);
        println!("  {digest}");
    }
}
