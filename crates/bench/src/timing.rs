//! Wall-clock readings for the benchmark harness.

use std::time::Instant;

/// Times one invocation of `f`, returning its result and the elapsed
/// wall-clock seconds.
///
/// This is the macro-benchmark entry point: oasis-lint confines
/// `std::time` to this module, so benchmarks must take their wall
/// readings here rather than touching [`Instant`] directly.
pub fn wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Monotonic seconds since this function was first called.
///
/// For benchmarks that need raw timestamps rather than one bracketed
/// call (e.g. stamping the start and end of spans they record
/// themselves). The simulator itself never reads wall time; its
/// per-phase wall comes from the telemetry profiler's scopes.
pub fn monotonic_secs() -> f64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}
