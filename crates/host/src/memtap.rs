//! The memtap fault-servicing process (§4.2).
//!
//! "For each partial VM, the host agent creates a memtap user level
//! process that is responsible for handling VM page faults and retrieving
//! pages from the corresponding memory server." A fault costs one network
//! round trip to the memory server, the server's drive read, the wire
//! transfer of the compressed page, and decompression in memtap before the
//! hypervisor is notified to reschedule the suspended vCPU.

use oasis_mem::ByteSize;
use oasis_net::LinkSpec;
use oasis_sim::SimDuration;
use oasis_vm::VmId;

/// Decompression throughput of the memtap process (bytes per second).
///
/// LZ-class decompression runs at memory speed; 1 GiB/s is conservative
/// for the Atom-class clients of the prototype era.
const DECOMPRESS_BYTES_PER_SEC: f64 = 1024.0 * 1024.0 * 1024.0;

/// Fixed event-channel and scheduling overhead per fault.
const FAULT_OVERHEAD: SimDuration = SimDuration::from_micros(120);

/// Statistics of one memtap process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemtapStats {
    /// Faults serviced.
    pub faults: u64,
    /// Compressed bytes fetched from the memory server.
    pub compressed_bytes: ByteSize,
    /// Raw bytes installed into the partial VM.
    pub raw_bytes: ByteSize,
}

/// The memtap process of one partial VM.
#[derive(Clone, Debug)]
pub struct Memtap {
    vm: VmId,
    /// Network path to the memory server.
    link: LinkSpec,
    /// Memory-server drive read + daemon latency per request.
    service_time: SimDuration,
    stats: MemtapStats,
}

impl Memtap {
    /// Creates a memtap for `vm`, configured with the host and port of the
    /// memory server holding the VM's pages (modeled as a link spec plus
    /// per-request service time).
    pub fn new(vm: VmId, link: LinkSpec, service_time: SimDuration) -> Self {
        Memtap { vm, link, service_time, stats: MemtapStats::default() }
    }

    /// The VM this memtap serves.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemtapStats {
        self.stats
    }

    /// Services one fault for a page whose compressed size is `compressed`.
    ///
    /// Returns the end-to-end latency until the vCPU can be rescheduled.
    pub fn service_fault(&mut self, compressed: ByteSize) -> SimDuration {
        self.stats.faults += 1;
        self.stats.compressed_bytes += compressed;
        self.stats.raw_bytes += ByteSize::bytes(oasis_mem::PAGE_SIZE);
        self.fault_latency(compressed)
    }

    /// Latency of a single fault without recording it.
    pub fn fault_latency(&self, compressed: ByteSize) -> SimDuration {
        let request_rtt = self.link.latency * 2;
        let payload = compressed.as_bytes() as f64;
        let wire = SimDuration::from_secs_f64(payload / self.link.bandwidth);
        let decompress =
            SimDuration::from_secs_f64(oasis_mem::PAGE_SIZE as f64 / DECOMPRESS_BYTES_PER_SEC);
        FAULT_OVERHEAD + request_rtt + self.service_time + wire + decompress
    }

    /// Latency to fault in `n` pages of mean compressed size `mean`,
    /// serially (a blocked vCPU fetches one page at a time).
    pub fn serial_fetch_latency(&self, n: u64, mean: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(self.fault_latency(mean).as_secs_f64() * n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_power::MemoryServerProfile;

    fn memtap() -> Memtap {
        Memtap::new(VmId(1), LinkSpec::gige(), MemoryServerProfile::prototype().page_service_time)
    }

    #[test]
    fn fault_latency_is_milliseconds() {
        let mt = memtap();
        let lat = mt.fault_latency(ByteSize::bytes(2_000));
        // ~0.12 ms overhead + 0.4 ms RTT + 3.5 ms service + ~17 µs wire.
        let ms = lat.as_secs_f64() * 1_000.0;
        assert!((3.0..6.0).contains(&ms), "fault latency {ms} ms");
    }

    #[test]
    fn larger_pages_take_longer() {
        let mt = memtap();
        assert!(mt.fault_latency(ByteSize::bytes(4_097)) > mt.fault_latency(ByteSize::bytes(100)));
    }

    #[test]
    fn stats_accumulate() {
        let mut mt = memtap();
        mt.service_fault(ByteSize::bytes(1_000));
        mt.service_fault(ByteSize::bytes(2_000));
        let s = mt.stats();
        assert_eq!(s.faults, 2);
        assert_eq!(s.compressed_bytes, ByteSize::bytes(3_000));
        assert_eq!(s.raw_bytes, ByteSize::bytes(8_192));
        assert_eq!(mt.vm(), VmId(1));
    }

    #[test]
    fn serial_fetch_scales_linearly() {
        let mt = memtap();
        let one = mt.fault_latency(ByteSize::bytes(1_500)).as_secs_f64();
        let thousand = mt.serial_fetch_latency(1_000, ByteSize::bytes(1_500)).as_secs_f64();
        assert!((thousand - 1_000.0 * one).abs() < 0.01);
    }

    #[test]
    fn libreoffice_startup_scale_matches_figure6() {
        // 42 000 serial faults at ~4 ms each ≈ 170 s: the paper's 168 s
        // LibreOffice start inside a partial VM.
        let mt = memtap();
        let lat = mt.serial_fetch_latency(42_000, ByteSize::bytes(1_800));
        let secs = lat.as_secs_f64();
        assert!((140.0..200.0).contains(&secs), "startup {secs} s");
    }
}
