//! Property-based tests for the VM model.
//!
//! Uses the in-tree [`oasis_sim::check`] harness so the suite runs with
//! no external dependencies.

use oasis_mem::ByteSize;
use oasis_sim::check::{run, Gen};
use oasis_sim::SimDuration;
use oasis_vm::workload::WorkloadClass;
use oasis_vm::{Vm, VmId, VmState};

/// A VM's memory demand never exceeds its allocation, through any
/// sequence of residency changes and growth: a full VM demands its
/// allocation (assumption 3) and a partial VM its resident working set
/// (assumption 4), which stays clamped to the allocation.
#[test]
fn demand_bounded_by_allocation() {
    run(64, |g: &mut Gen| {
        let alloc = ByteSize::mib(g.u64_in(16, 8_192));
        let ops = g.vec(0, 50, |g| (g.u64_in(0, 3) as u8, g.u64_in(0, 16_384)));
        let mut vm = Vm::new(VmId(1), WorkloadClass::Desktop, alloc, 1);
        for (op, arg) in ops {
            match op {
                0 => vm.make_partial(ByteSize::mib(arg)),
                1 => vm.make_full(),
                _ => {
                    vm.grow_wss(ByteSize::mib(arg));
                }
            }
            assert!(vm.resident_wss <= alloc);
        }
    });
}

/// The unique-touch curve is monotone and capped for every class and
/// any pair of times.
#[test]
fn unique_touch_monotone() {
    run(96, |g: &mut Gen| {
        let model = g.pick(&WorkloadClass::ALL[..3]).idle_model();
        let (t1, t2) = (g.u64_in(0, 100_000), g.u64_in(0, 100_000));
        let alloc = ByteSize::mib(g.u64_in(64, 8_192));
        let (lo, hi) = (t1.min(t2), t1.max(t2));
        let u_lo = model.unique_touched(SimDuration::from_secs(lo), alloc);
        let u_hi = model.unique_touched(SimDuration::from_secs(hi), alloc);
        assert!(u_lo <= u_hi);
        assert!(u_hi <= alloc);
    });
}

/// Request batches are positive and integrate to no more than the
/// curve plus the one-page-per-request floor.
#[test]
fn request_batches_bounded() {
    run(64, |g: &mut Gen| {
        let model = g.pick(&WorkloadClass::ALL[..3]).idle_model();
        let gaps = g.vec(1, 50, |g| g.u64_in(1, 600));
        let alloc = ByteSize::gib(4);
        let mut t_prev = SimDuration::ZERO;
        let mut total_pages = 0u64;
        for gap in &gaps {
            let t_now = t_prev + SimDuration::from_secs(*gap);
            let batch = model.request_batch_pages(t_prev, t_now, alloc);
            assert!(batch >= 1);
            total_pages += batch;
            t_prev = t_now;
        }
        let curve_pages = model.unique_touched(t_prev, alloc).pages(oasis_mem::PAGE_SIZE);
        assert!(total_pages <= curve_pages + gaps.len() as u64);
    });
}

/// State predicates stay consistent.
#[test]
fn state_predicates() {
    run(8, |g: &mut Gen| {
        let active = g.bool();
        let state = if active { VmState::Active } else { VmState::Idle };
        assert_eq!(state.is_active(), active);
    });
}
