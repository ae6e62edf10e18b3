//! VM reintegration (§4.2, §4.4.3).
//!
//! "When migrating a partial VM to its owner, the destination reintegrates
//! the dirty state with the full VM memory and returns the VM into
//! execution rapidly." Only pages dirtied on the consolidation host cross
//! the network, shrunk further by the overwrite-obviation optimization:
//! pages that will be completely overwritten (new allocations, recycled
//! file buffers) are never transmitted.

use oasis_mem::{ByteSize, PAGE_SIZE};
use oasis_net::LinkSpec;
use oasis_sim::SimDuration;

/// Fixed control overhead: suspend at the consolidation host, dirty-map
/// exchange, vCPU handoff and resume at the owner.
pub const REINTEGRATION_OVERHEAD: SimDuration = SimDuration::from_micros(2_100_000);

/// Fraction of dirty pages whose transmission the overwrite-obviation
/// optimization skips (new allocations and recycled buffers, §4.4.3).
pub const DEFAULT_OBVIATED_FRACTION: f64 = 0.25;

/// Inputs of one reintegration.
#[derive(Clone, Copy, Debug)]
pub struct Reintegration {
    /// Pages dirtied while the VM ran on the consolidation host.
    pub dirty_pages: u64,
    /// Fraction of dirty pages obviated (not transmitted).
    pub obviated_fraction: f64,
}

/// Cost breakdown of one reintegration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReintegrationOutcome {
    /// Dirty bytes pushed over the network.
    pub network_bytes: ByteSize,
    /// Pages skipped by overwrite obviation.
    pub obviated_pages: u64,
    /// End-to-end latency until the VM runs at its owner.
    pub total: SimDuration,
}

impl Reintegration {
    /// Computes the cost over the given network path.
    pub fn run(&self, net: LinkSpec) -> ReintegrationOutcome {
        let frac = self.obviated_fraction.clamp(0.0, 1.0);
        let obviated = (self.dirty_pages as f64 * frac).round() as u64;
        let sent_pages = self.dirty_pages - obviated;
        let network_bytes = ByteSize::bytes(sent_pages * PAGE_SIZE);
        let total = REINTEGRATION_OVERHEAD + net.transfer_time(network_bytes);
        ReintegrationOutcome { network_bytes, obviated_pages: obviated, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_reintegration_latency() {
        // §4.4.3: 175.3 MiB of dirty memory transferred; §4.4.2: 3.7 s
        // average reintegration latency. 175.3 MiB sent = dirty minus the
        // obviated quarter → dirty ≈ 233.7 MiB ≈ 59 800 pages.
        let out =
            Reintegration { dirty_pages: 59_800, obviated_fraction: DEFAULT_OBVIATED_FRACTION }
                .run(LinkSpec::gige());
        let mib = out.network_bytes.as_mib_f64();
        assert!((mib - 175.3).abs() < 2.0, "sent {mib} MiB");
        let secs = out.total.as_secs_f64();
        assert!((secs - 3.7).abs() < 0.3, "latency {secs}");
    }

    #[test]
    fn zero_dirty_is_overhead_only() {
        let out = Reintegration { dirty_pages: 0, obviated_fraction: DEFAULT_OBVIATED_FRACTION }
            .run(LinkSpec::gige());
        assert_eq!(out.network_bytes, ByteSize::ZERO);
        assert_eq!(
            out.total.as_secs_f64(),
            REINTEGRATION_OVERHEAD.as_secs_f64() + LinkSpec::gige().latency.as_secs_f64()
        );
    }

    #[test]
    fn obviation_reduces_traffic() {
        let with =
            Reintegration { dirty_pages: 10_000, obviated_fraction: 0.25 }.run(LinkSpec::gige());
        let without =
            Reintegration { dirty_pages: 10_000, obviated_fraction: 0.0 }.run(LinkSpec::gige());
        assert!(with.network_bytes < without.network_bytes);
        assert_eq!(with.obviated_pages, 2_500);
        assert_eq!(without.obviated_pages, 0);
        assert!(with.total < without.total);
    }

    #[test]
    fn obviated_fraction_is_clamped() {
        let out = Reintegration { dirty_pages: 100, obviated_fraction: 7.0 }.run(LinkSpec::gige());
        assert_eq!(out.network_bytes, ByteSize::ZERO);
        assert_eq!(out.obviated_pages, 100);
    }
}
