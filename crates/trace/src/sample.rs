//! Sampling user-days into a simulated population.
//!
//! §5.1: "In each simulation run, we randomly sample 900 user weekdays
//! from traces, align them into one day and treat them as if there are
//! 900 different users." This module implements that sampling (with
//! replacement, matching the paper's 900 draws from 1542 weekday traces).

use oasis_sim::SimRng;

use crate::model::DayKind;
use crate::trace::{TraceSet, UserDay};

/// Samples `n` user-days of `kind` from `set`, with replacement.
///
/// Returns an empty vector if the set holds no days of that kind.
pub fn sample_user_days(set: &TraceSet, kind: DayKind, n: usize, rng: &mut SimRng) -> Vec<UserDay> {
    let pool = set.of_kind(kind);
    if pool.is_empty() {
        return Vec::new();
    }
    (0..n).map(|_| pool[rng.index(pool.len())].clone()).collect()
}

/// Per-interval count of active users across a sampled population.
pub fn concurrent_activity(days: &[UserDay]) -> Vec<usize> {
    let intervals = if days.is_empty() { 0 } else { crate::INTERVALS_PER_DAY };
    (0..intervals).map(|i| days.iter().filter(|d| d.is_active(i)).count()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ActivityModel;

    #[test]
    fn samples_requested_count_and_kind() {
        let lib = ActivityModel::new().generate_library(4, 2, 9);
        let mut rng = SimRng::new(1);
        let sampled = sample_user_days(&lib, DayKind::Weekend, 900, &mut rng);
        assert_eq!(sampled.len(), 900);
        assert!(sampled.iter().all(|d| d.kind == DayKind::Weekend));
    }

    #[test]
    fn empty_pool_returns_empty() {
        let set = TraceSet::new();
        let mut rng = SimRng::new(2);
        assert!(sample_user_days(&set, DayKind::Weekday, 10, &mut rng).is_empty());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let lib = ActivityModel::new().generate_library(4, 2, 9);
        let mut a = SimRng::new(3);
        let mut b = SimRng::new(3);
        assert_eq!(
            sample_user_days(&lib, DayKind::Weekday, 50, &mut a),
            sample_user_days(&lib, DayKind::Weekday, 50, &mut b)
        );
    }

    #[test]
    fn concurrent_activity_counts() {
        let mut d1 = UserDay::all_idle(DayKind::Weekday);
        let mut d2 = UserDay::all_idle(DayKind::Weekday);
        d1.spike(0, 1);
        d2.spike(0, 2);
        let counts = concurrent_activity(&[d1, d2]);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 0);
        assert!(concurrent_activity(&[]).is_empty());
    }
}
