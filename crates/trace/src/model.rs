//! Synthetic user-activity model.
//!
//! The original trace (22 researchers, four months of Mac OS X activity
//! polling) is unavailable, so user-days are generated from a two-state
//! Markov chain whose stationary active probability tracks a diurnal
//! target profile. The profile is calibrated to the statistics the paper
//! reports about its trace (§5.2):
//!
//! * weekday activity peaks around 14:00 and bottoms out at 06:30;
//! * concurrent activity never exceeds ≈46 % of 900 VMs;
//! * weekends are much quieter;
//! * a home host's 30 VMs are all simultaneously idle ≈13 % of the time
//!   (the figure that bounds the OnlyPartial policy to ≈6 % savings).

use oasis_sim::SimRng;

use crate::trace::{TraceSet, UserDay, INTERVALS_PER_DAY};

/// Kind of simulated day.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DayKind {
    /// Monday–Friday office day.
    Weekday,
    /// Saturday/Sunday.
    Weekend,
}

/// Piecewise-linear diurnal profile: `(hour, active probability)` control
/// points; the last point must be at hour 24 for wrap-around continuity.
type Profile = &'static [(f64, f64)];

/// Weekday target activity profile.
const WEEKDAY_PROFILE: Profile = &[
    (0.0, 0.05),
    (2.0, 0.035),
    (4.5, 0.025),
    (6.5, 0.02), // Trough at 06:30 (§5.2).
    (8.0, 0.10),
    (9.0, 0.27),
    (11.0, 0.40),
    (12.5, 0.37), // Lunch dip.
    (14.0, 0.44), // Peak at 14:00 (§5.2).
    (16.0, 0.41),
    (17.5, 0.33),
    (19.0, 0.19),
    (21.0, 0.11),
    (23.0, 0.07),
    (24.0, 0.05),
];

/// Weekend target activity profile.
const WEEKEND_PROFILE: Profile = &[
    (0.0, 0.035),
    (3.0, 0.015),
    (6.5, 0.012),
    (9.0, 0.05),
    (11.0, 0.11),
    (14.0, 0.14),
    (16.0, 0.12),
    (18.0, 0.10),
    (20.0, 0.08),
    (22.0, 0.05),
    (24.0, 0.035),
];

/// Mean user session length, in 5-minute intervals (40 minutes).
const MEAN_SESSION_INTERVALS: f64 = 8.0;

/// Generates synthetic user-days matching the calibrated VDI profile.
#[derive(Clone, Debug)]
pub struct ActivityModel {
    session_len: f64,
}

impl Default for ActivityModel {
    fn default() -> Self {
        ActivityModel { session_len: MEAN_SESSION_INTERVALS }
    }
}

impl ActivityModel {
    /// Creates the calibrated model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a model with a custom mean session length (in intervals).
    ///
    /// # Panics
    ///
    /// Panics unless `session_len >= 1`.
    pub fn with_session_len(session_len: f64) -> Self {
        assert!(session_len >= 1.0, "session length below one interval");
        ActivityModel { session_len }
    }

    /// Target probability that a user is active at interval `i`.
    pub fn expected_activity(kind: DayKind, i: usize) -> f64 {
        let profile = match kind {
            DayKind::Weekday => WEEKDAY_PROFILE,
            DayKind::Weekend => WEEKEND_PROFILE,
        };
        let hour = (i % INTERVALS_PER_DAY) as f64 * 24.0 / INTERVALS_PER_DAY as f64;
        interpolate(profile, hour)
    }

    /// Generates one user-day.
    pub fn generate_day(&self, kind: DayKind, rng: &mut SimRng) -> UserDay {
        let mut day = UserDay::all_idle(kind);
        let p_off = 1.0 / self.session_len;
        let mut on = rng.chance(Self::expected_activity(kind, 0));
        for i in 0..INTERVALS_PER_DAY {
            let target = Self::expected_activity(kind, i);
            if on {
                if rng.chance(p_off) {
                    on = false;
                }
            } else {
                // Choose the on-rate so the chain's stationary distribution
                // equals the target: q = target·p_off / (1 − target).
                let q = (target * p_off / (1.0 - target)).clamp(0.0, 1.0);
                if rng.chance(q) {
                    on = true;
                }
            }
            if on {
                day.spike(i, 1);
            }
        }
        day
    }

    /// Generates a whole trace library: `users × weeks`, five weekdays and
    /// two weekend days per user-week (mirroring the 2086-user-day corpus
    /// of §5.1 when called with 22 users over 17 weeks).
    pub fn generate_library(&self, users: usize, weeks: usize, seed: u64) -> TraceSet {
        let mut rng = SimRng::new(seed ^ 0x7ACE_5EED);
        let mut set = TraceSet::new();
        for _user in 0..users {
            for _week in 0..weeks {
                for _ in 0..5 {
                    set.days.push(self.generate_day(DayKind::Weekday, &mut rng));
                }
                for _ in 0..2 {
                    set.days.push(self.generate_day(DayKind::Weekend, &mut rng));
                }
            }
        }
        set
    }
}

fn interpolate(profile: Profile, hour: f64) -> f64 {
    debug_assert!(profile.len() >= 2);
    let hour = hour.clamp(0.0, 24.0);
    for pair in profile.windows(2) {
        let (h0, v0) = pair[0];
        let (h1, v1) = pair[1];
        if hour <= h1 {
            let t = if h1 > h0 { (hour - h0) / (h1 - h0) } else { 0.0 };
            return v0 + (v1 - v0) * t;
        }
    }
    profile.last().expect("non-empty profile").1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interval index for a wall-clock hour.
    fn at(hour: f64) -> usize {
        (hour * INTERVALS_PER_DAY as f64 / 24.0) as usize
    }

    #[test]
    fn profile_peak_and_trough_match_paper() {
        let peak = ActivityModel::expected_activity(DayKind::Weekday, at(14.0));
        let trough = ActivityModel::expected_activity(DayKind::Weekday, at(6.5));
        assert!((peak - 0.44).abs() < 0.01, "peak {peak}");
        assert!(trough < 0.03, "trough {trough}");
        // The peak is the global maximum of the profile.
        for i in 0..INTERVALS_PER_DAY {
            assert!(ActivityModel::expected_activity(DayKind::Weekday, i) <= peak + 1e-9);
        }
    }

    #[test]
    fn weekends_are_quieter() {
        for i in 0..INTERVALS_PER_DAY {
            let wd = ActivityModel::expected_activity(DayKind::Weekday, i);
            let we = ActivityModel::expected_activity(DayKind::Weekend, i);
            assert!(we <= wd + 1e-9, "interval {i}: weekend {we} > weekday {wd}");
        }
    }

    #[test]
    fn generated_days_track_profile() {
        let model = ActivityModel::new();
        let mut rng = SimRng::new(42);
        let n = 2_000;
        let days: Vec<UserDay> =
            (0..n).map(|_| model.generate_day(DayKind::Weekday, &mut rng)).collect();
        for &hour in &[2.0, 6.5, 10.0, 14.0, 18.0, 22.0] {
            let i = at(hour);
            let measured = days.iter().filter(|d| d.is_active(i)).count() as f64 / n as f64;
            let target = ActivityModel::expected_activity(DayKind::Weekday, i);
            assert!(
                (measured - target).abs() < 0.05,
                "hour {hour}: measured {measured} target {target}"
            );
        }
    }

    #[test]
    fn concurrent_activity_never_exceeds_half() {
        // §5.2: never more than ~46 % of 900 VMs simultaneously active.
        let model = ActivityModel::new();
        let mut rng = SimRng::new(7);
        let days: Vec<UserDay> =
            (0..900).map(|_| model.generate_day(DayKind::Weekday, &mut rng)).collect();
        let max_active = (0..INTERVALS_PER_DAY)
            .map(|i| days.iter().filter(|d| d.is_active(i)).count())
            .max()
            .unwrap();
        assert!(max_active < 450, "max concurrent {max_active}");
        assert!(max_active > 330, "peak unrealistically low: {max_active}");
    }

    #[test]
    fn all_thirty_idle_fraction_near_13_percent() {
        // §5.3 derives OnlyPartial's ≈6 % savings from home hosts whose 30
        // VMs are simultaneously idle ~13 % of the time.
        let model = ActivityModel::new();
        let mut rng = SimRng::new(11);
        let days: Vec<UserDay> =
            (0..900).map(|_| model.generate_day(DayKind::Weekday, &mut rng)).collect();
        let mut all_idle = 0usize;
        let mut total = 0usize;
        for host in 0..30 {
            let vms = &days[host * 30..(host + 1) * 30];
            for i in 0..INTERVALS_PER_DAY {
                total += 1;
                if vms.iter().all(|d| !d.is_active(i)) {
                    all_idle += 1;
                }
            }
        }
        let frac = all_idle as f64 / total as f64;
        assert!((0.07..=0.20).contains(&frac), "all-idle fraction {frac}");
    }

    #[test]
    fn sessions_are_contiguous_runs() {
        let model = ActivityModel::new();
        let mut rng = SimRng::new(3);
        let day = model.generate_day(DayKind::Weekday, &mut rng);
        // Average run length should be near the configured session length.
        let mut runs = Vec::new();
        let mut len = 0;
        for a in (0..INTERVALS_PER_DAY).map(|i| day.is_active(i)) {
            if a {
                len += 1;
            } else if len > 0 {
                runs.push(len);
                len = 0;
            }
        }
        if len > 0 {
            runs.push(len);
        }
        assert!(!runs.is_empty(), "an average weekday has some activity");
    }

    #[test]
    fn library_shape() {
        let model = ActivityModel::new();
        let lib = model.generate_library(22, 17, 1);
        // 22 users × 17 weeks × 7 days = 2618 user-days (≥ the paper's
        // 2086 corpus), 5:2 weekday:weekend.
        assert_eq!(lib.len(), 22 * 17 * 7);
        assert_eq!(lib.of_kind(DayKind::Weekday).len(), 22 * 17 * 5);
        assert_eq!(lib.of_kind(DayKind::Weekend).len(), 22 * 17 * 2);
    }

    #[test]
    fn weekend_days_have_lower_mean_activity() {
        let model = ActivityModel::new();
        let mut rng = SimRng::new(5);
        let wd: f64 = (0..300)
            .map(|_| model.generate_day(DayKind::Weekday, &mut rng).active_fraction())
            .sum::<f64>()
            / 300.0;
        let we: f64 = (0..300)
            .map(|_| model.generate_day(DayKind::Weekend, &mut rng).active_fraction())
            .sum::<f64>()
            / 300.0;
        assert!(we < wd * 0.6, "weekend {we} vs weekday {wd}");
    }

    #[test]
    #[should_panic(expected = "session length")]
    fn invalid_session_length_panics() {
        ActivityModel::with_session_len(0.5);
    }

    #[test]
    fn interpolation_endpoints() {
        assert!((interpolate(WEEKDAY_PROFILE, 0.0) - 0.05).abs() < 1e-12);
        assert!((interpolate(WEEKDAY_PROFILE, 24.0) - 0.05).abs() < 1e-12);
        assert!(interpolate(WEEKDAY_PROFILE, 100.0) > 0.0, "clamps above 24h");
    }
}
