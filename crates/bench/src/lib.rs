//! Shared helpers for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates its rows/series; this library holds the
//! formatting helpers and the run-count convention they share.

#![warn(missing_docs)]

pub mod chart;
pub mod report;
pub mod timing;

pub use report::Reporter;

use std::env;

/// Number of repetitions for averaged experiments.
///
/// Defaults to the paper's five runs; override with `OASIS_RUNS=n` for
/// quick iterations.
pub fn runs() -> u64 {
    env::var("OASIS_RUNS").ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(5)
}

/// Formats a fraction as a percent with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds with one decimal.
pub fn secs(s: f64) -> String {
    format!("{s:.1}s")
}

/// Formats a `mean ± std` percentage pair.
pub fn pct_pm(mean: f64, std: f64) -> String {
    format!("{:>5.1}% ±{:>4.1}", mean * 100.0, std * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(pct(0.283), "28.3%");
        assert_eq!(secs(15.72), "15.7s");
        assert_eq!(pct_pm(0.28, 0.012), " 28.0% ± 1.2");
    }

    #[test]
    fn runs_default() {
        // Cannot assert the env override here without races; the default
        // path must be at least 1.
        assert!(runs() >= 1);
    }
}
