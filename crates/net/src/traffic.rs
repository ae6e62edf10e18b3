//! Traffic accounting by class.
//!
//! Figure 10 of the paper breaks the weekday network volume down by
//! migration kind. The accountant accumulates bytes per [`TrafficClass`]
//! so the cluster simulator can report the same breakdown.

use core::fmt;

use oasis_mem::ByteSize;

/// Category of bytes moved through the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum TrafficClass {
    /// Full (pre-copy live) VM migrations over the rack network.
    FullMigration,
    /// Partial-migration descriptors: page tables, configuration and
    /// execution context pushed to the consolidation host.
    PartialDescriptor,
    /// On-demand page fetches from memory servers to partial VMs.
    DemandFetch,
    /// Dirty state pushed back during VM reintegration.
    Reintegration,
    /// Compressed memory-image uploads to the memory server. These bytes
    /// traverse the private SAS channel, not the datacenter network
    /// (§4.3), and are reported separately.
    MemServerUpload,
    /// Control traffic: RPCs, statistics, Wake-on-LAN packets.
    Control,
}

impl TrafficClass {
    /// All classes in report order.
    pub const ALL: [TrafficClass; 6] = [
        TrafficClass::FullMigration,
        TrafficClass::PartialDescriptor,
        TrafficClass::DemandFetch,
        TrafficClass::Reintegration,
        TrafficClass::MemServerUpload,
        TrafficClass::Control,
    ];

    /// `true` if these bytes cross the datacenter network (as opposed to
    /// the host-local SAS channel).
    pub fn on_network(self) -> bool {
        !matches!(self, TrafficClass::MemServerUpload)
    }

    /// This class's position in [`ALL`](TrafficClass::ALL), whose order
    /// matches the enum declaration.
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::FullMigration => "full-migration",
            TrafficClass::PartialDescriptor => "partial-descriptor",
            TrafficClass::DemandFetch => "demand-fetch",
            TrafficClass::Reintegration => "reintegration",
            TrafficClass::MemServerUpload => "memserver-upload",
            TrafficClass::Control => "control",
        };
        f.write_str(s)
    }
}

/// Accumulates byte counts per traffic class.
#[derive(Clone, Debug, Default)]
pub struct TrafficAccountant {
    totals: [u64; TrafficClass::ALL.len()],
    events: [u64; TrafficClass::ALL.len()],
}

impl TrafficAccountant {
    /// Creates an accountant with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` of traffic in `class`.
    pub fn record(&mut self, class: TrafficClass, bytes: ByteSize) {
        let i = class.index();
        self.totals[i] = self.totals[i].saturating_add(bytes.as_bytes());
        self.events[i] += 1;
    }

    /// Total bytes recorded in `class`.
    pub fn total(&self, class: TrafficClass) -> ByteSize {
        ByteSize::bytes(self.totals[class.index()])
    }

    /// Number of record events in `class`.
    pub fn events(&self, class: TrafficClass) -> u64 {
        self.events[class.index()]
    }

    /// Bytes that crossed the datacenter network.
    pub fn network_total(&self) -> ByteSize {
        TrafficClass::ALL.iter().filter(|c| c.on_network()).map(|&c| self.total(c)).sum()
    }

    /// Bytes moved by all partial-migration machinery: descriptors,
    /// demand fetches, reintegration and memory-server uploads.
    pub fn partial_total(&self) -> ByteSize {
        [
            TrafficClass::PartialDescriptor,
            TrafficClass::DemandFetch,
            TrafficClass::Reintegration,
            TrafficClass::MemServerUpload,
        ]
        .into_iter()
        .map(|c| self.total(c))
        .sum()
    }

    /// Grand total across every class.
    pub fn grand_total(&self) -> ByteSize {
        ByteSize::bytes(self.totals.iter().sum())
    }

    /// Adds another accountant's counters into this one.
    pub fn merge(&mut self, other: &TrafficAccountant) {
        for i in 0..self.totals.len() {
            self.totals[i] = self.totals[i].saturating_add(other.totals[i]);
            self.events[i] += other.events[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_round_trips_through_all() {
        for class in TrafficClass::ALL {
            assert_eq!(TrafficClass::ALL[class.index()], class);
        }
    }

    #[test]
    fn record_and_totals() {
        let mut t = TrafficAccountant::new();
        t.record(TrafficClass::FullMigration, ByteSize::gib(4));
        t.record(TrafficClass::FullMigration, ByteSize::gib(4));
        t.record(TrafficClass::PartialDescriptor, ByteSize::mib(16));
        assert_eq!(t.total(TrafficClass::FullMigration), ByteSize::gib(8));
        assert_eq!(t.events(TrafficClass::FullMigration), 2);
        assert_eq!(t.total(TrafficClass::PartialDescriptor), ByteSize::mib(16));
        assert_eq!(t.total(TrafficClass::Control), ByteSize::ZERO);
    }

    #[test]
    fn network_excludes_sas_uploads() {
        let mut t = TrafficAccountant::new();
        t.record(TrafficClass::MemServerUpload, ByteSize::gib(1));
        t.record(TrafficClass::DemandFetch, ByteSize::mib(57));
        assert_eq!(t.network_total(), ByteSize::mib(57));
        assert_eq!(t.grand_total(), ByteSize::gib(1) + ByteSize::mib(57));
    }

    #[test]
    fn partial_machinery_classification() {
        let mut t = TrafficAccountant::new();
        t.record(TrafficClass::FullMigration, ByteSize::gib(4));
        t.record(TrafficClass::Control, ByteSize::kib(1));
        t.record(TrafficClass::DemandFetch, ByteSize::mib(57));
        t.record(TrafficClass::Reintegration, ByteSize::mib(175));
        assert_eq!(t.partial_total(), ByteSize::mib(57 + 175));
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = TrafficAccountant::new();
        let mut b = TrafficAccountant::new();
        a.record(TrafficClass::Control, ByteSize::kib(1));
        b.record(TrafficClass::Control, ByteSize::kib(2));
        b.record(TrafficClass::Reintegration, ByteSize::mib(175));
        a.merge(&b);
        assert_eq!(a.total(TrafficClass::Control), ByteSize::kib(3));
        assert_eq!(a.events(TrafficClass::Control), 2);
        assert_eq!(a.total(TrafficClass::Reintegration), ByteSize::mib(175));
    }

    #[test]
    fn display_names() {
        assert_eq!(TrafficClass::DemandFetch.to_string(), "demand-fetch");
        assert_eq!(TrafficClass::MemServerUpload.to_string(), "memserver-upload");
    }
}
