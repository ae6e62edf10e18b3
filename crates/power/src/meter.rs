//! Energy metering.
//!
//! An [`EnergyMeter`] integrates the instantaneous power draw of one
//! device (host, memory server) over simulated time. The cluster
//! simulator accumulates its own joules per interval and only uses
//! [`JOULES_PER_KWH`] and [`savings_fraction`] from here: the savings
//! percentages of §5.3 are normalized against the energy the home hosts
//! would consume if left powered for the whole simulation.

use oasis_sim::stats::TimeWeighted;
use oasis_sim::SimTime;

/// Joules per kilowatt-hour.
pub const JOULES_PER_KWH: f64 = 3_600_000.0;

/// Integrates watts over simulated seconds into joules.
#[derive(Clone, Debug, Default)]
pub struct EnergyMeter {
    tw: TimeWeighted,
}

impl EnergyMeter {
    /// Creates a meter drawing zero watts at time zero.
    pub fn new() -> Self {
        EnergyMeter { tw: TimeWeighted::new() }
    }

    /// Sets the instantaneous draw at `now`.
    pub fn set_watts(&mut self, now: SimTime, watts: f64) {
        debug_assert!(watts >= 0.0, "negative power draw");
        self.tw.set(now, watts);
    }

    /// Current draw in watts.
    pub fn watts(&self) -> f64 {
        self.tw.level()
    }

    /// Total energy consumed up to `now`, in joules.
    pub fn joules_at(&mut self, now: SimTime) -> f64 {
        self.tw.integral_at(now)
    }

    /// Total energy consumed up to `now`, in kilowatt-hours.
    pub fn kwh_at(&mut self, now: SimTime) -> f64 {
        self.joules_at(now) / JOULES_PER_KWH
    }

    /// Time-weighted average draw over `[0, now]`, in watts.
    pub fn average_watts_at(&mut self, now: SimTime) -> f64 {
        self.tw.average_at(now)
    }

    /// Peak draw ever set.
    pub fn peak_watts(&self) -> f64 {
        self.tw.max_level()
    }
}

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
    use oasis_sim::SimDuration;

    #[test]
    fn integrates_constant_draw() {
        let mut m = EnergyMeter::new();
        m.set_watts(SimTime::ZERO, 100.0);
        let day = SimTime::ZERO + SimDuration::from_hours(24);
        // 100 W for 24 h = 2.4 kWh.
        assert!((m.kwh_at(day) - 2.4).abs() < 1e-9);
        assert!((m.average_watts_at(day) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn integrates_step_changes() {
        let mut m = EnergyMeter::new();
        m.set_watts(SimTime::ZERO, 102.2);
        m.set_watts(SimTime::from_secs(3_600), 12.9);
        let j = m.joules_at(SimTime::from_secs(7_200));
        assert!((j - (102.2 + 12.9) * 3_600.0).abs() < 1e-6);
        assert_eq!(m.peak_watts(), 102.2);
        assert_eq!(m.watts(), 12.9);
    }

    #[test]
    fn savings_fraction_basics() {
        assert!((savings_fraction(100.0, 72.0) - 0.28).abs() < 1e-12);
        assert_eq!(savings_fraction(0.0, 50.0), 0.0);
        assert!(savings_fraction(100.0, 120.0) < 0.0);
        assert_eq!(savings_fraction(100.0, 0.0), 1.0);
    }
}
