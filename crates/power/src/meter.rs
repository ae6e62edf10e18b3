//! Energy units and the §5.3 savings normalization.
//!
//! The cluster simulator integrates its own joules per interval and uses
//! [`JOULES_PER_KWH`] and [`savings_fraction`] from here: the savings
//! percentages of §5.3 are normalized against the energy the home hosts
//! would consume if left powered for the whole simulation.

/// Joules per kilowatt-hour.
pub const JOULES_PER_KWH: f64 = 3_600_000.0;

/// Energy savings of `actual` relative to `baseline` (§5.3 normalization).
///
/// Returns a fraction in `(-∞, 1]`; negative values mean the policy spent
/// more energy than leaving the hosts powered.
pub fn savings_fraction(baseline_joules: f64, actual_joules: f64) -> f64 {
    if baseline_joules <= 0.0 {
        return 0.0;
    }
    1.0 - actual_joules / baseline_joules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_fraction_basics() {
        assert!((savings_fraction(100.0, 72.0) - 0.28).abs() < 1e-12);
        assert_eq!(savings_fraction(0.0, 50.0), 0.0);
        assert!(savings_fraction(100.0, 120.0) < 0.0);
        assert_eq!(savings_fraction(100.0, 0.0), 1.0);
    }
}
