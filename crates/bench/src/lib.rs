//! The paper's evaluation as data, and the helpers that print it.
//!
//! [`experiments::ALL`] holds every table and figure of the paper's
//! evaluation plus the studies beyond it; the `experiments` binary
//! renders them into `EXPERIMENTS.md`. This library also holds the
//! formatting helpers and the run-count convention they share.

#![warn(missing_docs)]

pub mod chart;
pub mod experiments;
pub mod report;
pub mod timing;

pub use report::Reporter;

use std::{env, fmt};

/// Repetitions for averaged experiments when `OASIS_RUNS` is unset: the
/// paper's five runs.
const DEFAULT_RUNS: u64 = 5;

/// An `OASIS_RUNS` value that is not a positive integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunsError(String);

impl fmt::Display for RunsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OASIS_RUNS must be a positive integer, got {:?}", self.0)
    }
}

impl std::error::Error for RunsError {}

/// Parses an `OASIS_RUNS` value; `None` (unset) means [`DEFAULT_RUNS`].
fn parse_runs(value: Option<&str>) -> Result<u64, RunsError> {
    match value {
        None => Ok(DEFAULT_RUNS),
        Some(v) => v.parse().ok().filter(|&n| n > 0).ok_or_else(|| RunsError(v.to_string())),
    }
}

/// Repetitions per averaged point, from `OASIS_RUNS`: the paper's five
/// when unset, an error unless a positive integer. Set a small value
/// for quick iterations.
pub fn runs() -> Result<u64, RunsError> {
    parse_runs(env::var_os("OASIS_RUNS").map(|v| v.to_string_lossy().into_owned()).as_deref())
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
        assert_eq!(parse_runs(None), Ok(DEFAULT_RUNS));
    }

    #[test]
    fn runs_must_be_a_positive_integer() {
        assert_eq!(parse_runs(Some("3")), Ok(3));
        for bad in ["0", "abc", "", "-1", "3.0", " 3"] {
            assert_eq!(parse_runs(Some(bad)), Err(RunsError(bad.to_string())));
        }
        let message = parse_runs(Some("abc")).unwrap_err().to_string();
        assert_eq!(message, "OASIS_RUNS must be a positive integer, got \"abc\"");
    }
}
