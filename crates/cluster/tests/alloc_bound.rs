//! Deterministic allocation bounds for the §5.1 paper day.
//!
//! A counting global allocator records, per thread, the live heap bytes,
//! their high-water mark and the number of allocations. Counting per
//! thread keeps the test harness's other threads out of the numbers.
//! The test builds the seed-1 FulltoPartial weekday rack (30 homes × 30
//! VMs, 4 consolidation hosts) with `ClusterSim::new` and runs its day
//! with `run_day`, holding both counts under fixed bounds. Neither count
//! depends on the machine or its load, so the bounds gate per-interval
//! allocation and per-VM heap state without a wall clock: a collected
//! list per interval or a heap allocation per sampled day raises the
//! counts far past their bounds.
//!
//! When a measured value falls well below its bound, lower the bound to
//! match; the test prints both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oasis_cluster::{ClusterConfig, ClusterSim};
use oasis_core::PolicyKind;
use oasis_trace::DayKind;

/// Wraps the system allocator and counts what the calling thread does.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    // `try_with` because the allocator also runs while thread-locals
    // are being torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates thread-local counters afterwards, so
// `System`'s guarantees carry over; the counters never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller hands back a block `System` returned for
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's block came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live bytes above the starting level, and allocations made, while
/// `f` runs on this thread, with `f`'s result.
fn measure<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let allocs = ALLOCS.with(Cell::get);
    let r = f();
    let peak = PEAK.with(Cell::get) - start;
    (peak as u64, ALLOCS.with(Cell::get) - allocs, r)
}

/// The seed-1 paper day.
fn paper_day() -> ClusterConfig {
    ClusterConfig::builder()
        .policy(PolicyKind::FullToPartial)
        .day(DayKind::Weekday)
        .home_hosts(30)
        .vms_per_host(30)
        .consolidation_hosts(4)
        .trace_seed(1)
        .seed(1)
        .build()
        .expect("valid §5.1 configuration")
}

#[test]
fn paper_day_allocations_stay_bounded() {
    // The synthetic trace corpus is a process-wide cache that a warm
    // rack reuses; build it first so only the rack's own work counts.
    drop(ClusterSim::new(paper_day()));
    // Measured 128 allocations in `new`, 647 in `run_day` and a
    // 322,640 B peak across both. With a `Vec<bool>` per sampled day,
    // sorted-`Vec` residency and a full trace sweep per interval they
    // were 1,071, 10,941 and 573,872 B; with planner vectors allocated
    // afresh every round, map-based activation queues and a metrics
    // lookup per Wake-on-LAN packet, `run_day` made 8,185.
    const NEW_ALLOC_BOUND: u64 = 150;
    const DAY_ALLOC_BOUND: u64 = 1_000;
    const PEAK_BOUND: u64 = 384 * 1024;
    let (peak, allocs, (new_allocs, report)) = measure(|| {
        let before = ALLOCS.with(Cell::get);
        let sim = ClusterSim::new(paper_day());
        let new_allocs = ALLOCS.with(Cell::get) - before;
        (new_allocs, sim.run_day())
    });
    let day_allocs = allocs - new_allocs;
    println!(
        "paper day, seed 1: new {new_allocs} allocations (bound {NEW_ALLOC_BOUND}), \
         run_day {day_allocs} allocations (bound {DAY_ALLOC_BOUND}), \
         peak {peak} B (bound {PEAK_BOUND})"
    );
    assert!(report.energy_savings > 0.0, "the day ran");
    assert!(new_allocs <= NEW_ALLOC_BOUND, "new: {new_allocs} allocations > {NEW_ALLOC_BOUND}");
    assert!(day_allocs <= DAY_ALLOC_BOUND, "run_day: {day_allocs} allocations > {DAY_ALLOC_BOUND}");
    assert!(peak <= PEAK_BOUND, "peak live heap {peak} B > {PEAK_BOUND} B");
}
