//! Property-based tests for the trace substrate.
//!
//! Uses the in-tree [`oasis_sim::check`] harness so the suite runs with
//! no external dependencies.

use oasis_sim::check::{run, Gen};
use oasis_sim::SimRng;
use oasis_trace::{sample_user_days, ActivityModel, DayKind, TraceSet, UserDay, INTERVALS_PER_DAY};

/// The text format round trips arbitrary activity patterns.
#[test]
fn trace_text_round_trips() {
    run(48, |g: &mut Gen| {
        let days = g.vec(0, 20, |g| {
            let weekend = g.bool();
            let bits = g.vec(INTERVALS_PER_DAY, INTERVALS_PER_DAY + 1, |g| g.bool());
            (weekend, bits)
        });
        let mut set = TraceSet::new();
        for (weekend, bits) in days {
            let kind = if weekend { DayKind::Weekend } else { DayKind::Weekday };
            set.days.push(UserDay::new(kind, bits));
        }
        let parsed = TraceSet::from_text(&set.to_text()).unwrap();
        assert_eq!(parsed, set);
    });
}

/// Generated days always have exactly one bit per interval and an
/// activity fraction in [0, 1].
#[test]
fn generated_days_well_formed() {
    run(64, |g: &mut Gen| {
        let model = ActivityModel::new();
        let mut rng = SimRng::new(g.u64());
        for kind in [DayKind::Weekday, DayKind::Weekend] {
            let day = model.generate_day(kind, &mut rng);
            assert_eq!(day.to_line().len(), 3 + INTERVALS_PER_DAY);
            assert!(!day.is_active(INTERVALS_PER_DAY));
            assert!(day.active_fraction() <= 1.0);
            assert_eq!(day.kind, kind);
        }
    });
}

/// Sampling returns exactly the requested number of days of the
/// requested kind, and only draws from the pool.
#[test]
fn sampling_respects_kind_and_count() {
    run(48, |g: &mut Gen| {
        let seed = g.u64();
        let n = g.usize_in(0, 200);
        let lib = ActivityModel::new().generate_library(3, 2, seed);
        let mut rng = SimRng::new(seed ^ 1);
        let sampled = sample_user_days(&lib, DayKind::Weekday, n, &mut rng);
        assert_eq!(sampled.len(), n);
        for day in &sampled {
            assert_eq!(day.kind, DayKind::Weekday);
            assert!(lib.days.contains(day));
        }
    });
}

/// Expected activity is a valid probability everywhere.
#[test]
fn profile_is_probability() {
    run(64, |g: &mut Gen| {
        let i = g.usize_in(0, INTERVALS_PER_DAY);
        for kind in [DayKind::Weekday, DayKind::Weekend] {
            let p = ActivityModel::expected_activity(kind, i);
            assert!((0.0..=1.0).contains(&p));
        }
    });
}

/// The packed user-day agrees with a `Vec<bool>` reference model under
/// random rotations and spikes: every bit, the active count, the
/// session edges and the text form, which round-trips.
#[test]
fn packed_days_match_a_bool_vector_model() {
    run(96, |g: &mut Gen| {
        let kind = if g.bool() { DayKind::Weekend } else { DayKind::Weekday };
        let density = g.usize_in(0, 5);
        let mut model: Vec<bool> =
            (0..INTERVALS_PER_DAY).map(|_| g.usize_in(0, 5) < density).collect();
        let mut day = UserDay::new(kind, model.clone());
        for _ in 0..g.usize_in(0, 6) {
            if g.bool() {
                let k = g.usize_in(0, 3 * INTERVALS_PER_DAY);
                model.rotate_right(k % INTERVALS_PER_DAY);
                day.rotate(k);
            } else {
                let (start, len) = (g.usize_in(0, 2 * INTERVALS_PER_DAY), g.usize_in(0, 400));
                for off in 0..len.min(INTERVALS_PER_DAY) {
                    model[(start + off) % INTERVALS_PER_DAY] = true;
                }
                day.spike(start, len);
            }
        }
        for (i, &on) in model.iter().enumerate() {
            assert_eq!(day.is_active(i), on, "interval {i}");
        }
        assert_eq!(day.active_intervals(), model.iter().filter(|&&a| a).count());
        let edges: Vec<(usize, bool)> = (0..INTERVALS_PER_DAY)
            .filter(|&i| model[i] != (i > 0 && model[i - 1]))
            .map(|i| (i, model[i]))
            .collect();
        assert_eq!(day.edges().collect::<Vec<_>>(), edges);
        let bits: String = model.iter().map(|&a| if a { '1' } else { '0' }).collect();
        let tag = if kind == DayKind::Weekend { "WE" } else { "WD" };
        assert_eq!(day.to_line(), format!("{tag} {bits}"));
        let mut set = TraceSet::new();
        set.days.push(day.clone());
        assert_eq!(TraceSet::from_text(&set.to_text()).unwrap().days, vec![day]);
    });
}
