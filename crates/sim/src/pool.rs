//! Scoped-thread worker pool for embarrassingly parallel fan-out.
//!
//! The paper's evaluation replays dozens of *independent* seeded
//! day-simulations (every figure averages runs over seeds, sweeps policies
//! and host counts, or simulates seven days of a week). Those runs share
//! nothing — each builds its own [`crate::SimRng`] from its own seed — so
//! they can execute on as many cores as the machine offers without
//! touching the determinism story.
//!
//! [`WorkerPool::map`] preserves that story by construction:
//!
//! * results are collected **in input order**, so downstream aggregation
//!   (means, tables, report rows) sees exactly the sequence the
//!   sequential loop produced;
//! * the pool owns no RNG and reads no clock — scheduling order may vary
//!   between runs, but nothing observable depends on it;
//! * with one job (or one item) the closure runs inline on the caller's
//!   thread, making `--jobs 1` literally the sequential path.
//!
//! The worker count comes from `--jobs`/[`WorkerPool::new`], the
//! `OASIS_JOBS` environment variable, or the machine's available
//! parallelism, in that order of precedence ([`WorkerPool::from_env`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "OASIS_JOBS";

/// A fixed-width pool of scoped worker threads.
///
/// The pool is a policy object, not a thread cache: threads are spawned
/// per [`WorkerPool::map`] call inside a [`std::thread::scope`], so
/// borrows of the caller's stack work and panics propagate to the caller.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    jobs: usize,
}

impl WorkerPool {
    /// A pool running `jobs` tasks concurrently (clamped to ≥ 1).
    pub fn new(jobs: usize) -> WorkerPool {
        WorkerPool { jobs: jobs.max(1) }
    }

    /// A single-worker pool: `map` degenerates to the sequential loop.
    pub fn sequential() -> WorkerPool {
        WorkerPool::new(1)
    }

    /// A pool sized from `OASIS_JOBS`, falling back to the machine's
    /// available parallelism (and to one worker if even that is unknown).
    // oasis-lint: boundary(env-read, "job count changes scheduling only; map() returns input-order results for any worker count")
    pub fn from_env() -> WorkerPool {
        let jobs = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        WorkerPool::new(jobs)
    }

    /// Applies `f` to every item, fanning the calls across the pool's
    /// workers, and returns the results **in input order**.
    ///
    /// Items are claimed from a shared counter, so long tasks do not
    /// convoy short ones behind a static partition. A panicking task
    /// poisons nothing: the scope joins every worker and re-raises the
    /// panic on the calling thread.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        // One slot per item: workers claim an index, take the item out of
        // its slot, and park the result in the matching result slot, so
        // output order is the input order regardless of which worker ran
        // what when.
        let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let f = &f;
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = tasks[i]
                        .lock()
                        .expect("task slot lock")
                        .take()
                        .expect("each task index is claimed exactly once");
                    let out = f(item);
                    *results[i].lock().expect("result slot lock") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock")
                    .expect("scope exit implies every task completed")
            })
            .collect()
    }
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map((0..100u64).collect(), |i| i * i);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_sequential_for_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let seq = WorkerPool::sequential().map(items.clone(), |i| i.wrapping_mul(0x9E37_79B9));
        for jobs in [2, 3, 8, 64] {
            let par = WorkerPool::new(jobs).map(items.clone(), |i| i.wrapping_mul(0x9E37_79B9));
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_inputs() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map(Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        assert_eq!(pool.map(vec![7u32], |i| i + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let pool = WorkerPool::new(32);
        assert_eq!(pool.map(vec![1u32, 2, 3], |i| i * 10), vec![10, 20, 30]);
    }

    #[test]
    fn jobs_clamped_to_at_least_one() {
        // A zero-job pool still runs every item (one worker).
        assert_eq!(WorkerPool::new(0).map(vec![1u32, 2, 3], |i| i + 1), vec![2, 3, 4]);
        assert_eq!(WorkerPool::from_env().map(vec![5u32], |i| i), vec![5]);
    }

    #[test]
    fn seeded_work_is_reproducible_across_pools() {
        // Each task owns an independent RNG derived from its seed — the
        // exact shape of an experiment run. Results must not depend on
        // worker count or interleaving.
        let run = |jobs| {
            WorkerPool::new(jobs).map((0..16u64).collect(), |seed| {
                let mut rng = crate::SimRng::new(seed);
                (0..100).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
            })
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(4), run(16));
    }
}
