// Fixture (virtual path crates/telemetry/src/profile.rs): the wall-clock
// source, two calls below the decision-path entry point. The path is in
// the per-site allowlist, so only the transitive analysis can see it.
use std::time::Instant;

pub fn wall_probe() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
