//! Partial VM migration (§4.2–4.3).
//!
//! Partial migration has two sequential phases:
//!
//! 1. **Memory upload** — the agent suspends the VM and writes its memory
//!    pages, per-page compressed, to the memory server over the SAS path.
//!    With differential upload only pages dirtied since the previous
//!    upload are written (10.2 s → 2.2 s in Figure 5).
//! 2. **Descriptor push** — page tables, configuration and execution
//!    context go to the consolidation host, which creates the partial VM
//!    with all entries absent and schedules its vCPUs (~5.2 s of control
//!    overhead dominates the 16 MiB descriptor transfer).

use oasis_mem::ByteSize;
use oasis_net::LinkSpec;
use oasis_power::MemoryServerProfile;
use oasis_sim::SimDuration;

/// Fixed control overhead of suspend + partial-VM creation + scheduling.
///
/// §4.4.2 measures ~5.2 s for the descriptor phase on the prototype, of
/// which the 16 MiB wire transfer is only ~0.14 s.
pub const DESCRIPTOR_OVERHEAD: SimDuration = SimDuration::from_micros(5_060_000);

/// Mean VM descriptor size (§4.4.3: 16.0 ± 0.5 MiB).
pub const DESCRIPTOR_BYTES: ByteSize = ByteSize::mib(16);

/// Inputs of one partial migration.
#[derive(Clone, Copy, Debug)]
pub struct PartialMigration {
    /// Compressed bytes that must be written to the memory server
    /// (the touched working set for a first upload; the dirty delta for a
    /// differential upload).
    pub upload_compressed: ByteSize,
    /// Descriptor size pushed to the consolidation host.
    pub descriptor: ByteSize,
}

/// Cost breakdown of one partial migration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialOutcome {
    /// Time writing the image to the memory server (SAS path).
    pub upload_time: SimDuration,
    /// Time for the descriptor push and partial-VM creation.
    pub descriptor_time: SimDuration,
    /// End-to-end latency (phases are sequential).
    pub total: SimDuration,
    /// Bytes that crossed the datacenter network (descriptor only —
    /// uploads stay on the SAS path, §4.3).
    pub network_bytes: ByteSize,
    /// Bytes written to the SAS drive.
    pub sas_bytes: ByteSize,
}

impl PartialMigration {
    /// A migration with the standard descriptor size.
    pub fn with_upload(upload_compressed: ByteSize) -> Self {
        PartialMigration { upload_compressed, descriptor: DESCRIPTOR_BYTES }
    }

    /// Computes the cost over the given paths.
    pub fn run(&self, ms: &MemoryServerProfile, net: LinkSpec) -> PartialOutcome {
        let upload_time = SimDuration::from_secs_f64(
            self.upload_compressed.as_bytes() as f64 / ms.upload_bytes_per_sec,
        );
        let descriptor_time = DESCRIPTOR_OVERHEAD + net.transfer_time(self.descriptor);
        PartialOutcome {
            upload_time,
            descriptor_time,
            total: upload_time + descriptor_time,
            network_bytes: self.descriptor,
            sas_bytes: self.upload_compressed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms() -> MemoryServerProfile {
        MemoryServerProfile::prototype()
    }

    #[test]
    fn figure5_first_partial_migration() {
        // First upload: ~1.28 GiB compressed → 10.2 s on SAS; total 15.7 s.
        let m = PartialMigration::with_upload(ByteSize::from_mib_f64(1_305.6));
        let out = m.run(&ms(), LinkSpec::gige());
        assert!((out.upload_time.as_secs_f64() - 10.2).abs() < 0.1);
        let total = out.total.as_secs_f64();
        assert!((total - 15.7).abs() < 0.5, "total {total}");
    }

    #[test]
    fn figure5_second_partial_migration_differential() {
        // Differential upload: ~282 MiB dirty-compressed → 2.2 s; total 7.2 s.
        let m = PartialMigration::with_upload(ByteSize::from_mib_f64(281.6));
        let out = m.run(&ms(), LinkSpec::gige());
        assert!((out.upload_time.as_secs_f64() - 2.2).abs() < 0.1);
        let total = out.total.as_secs_f64();
        assert!((total - 7.2).abs() < 0.5, "total {total}");
    }

    #[test]
    fn descriptor_phase_is_about_5_2s() {
        let m = PartialMigration::with_upload(ByteSize::ZERO);
        let out = m.run(&ms(), LinkSpec::gige());
        let t = out.descriptor_time.as_secs_f64();
        assert!((t - 5.2).abs() < 0.1, "descriptor phase {t}");
        assert_eq!(out.total, out.descriptor_time);
    }

    #[test]
    fn network_and_sas_accounting_are_disjoint() {
        let m = PartialMigration::with_upload(ByteSize::gib(1));
        let out = m.run(&ms(), LinkSpec::gige());
        assert_eq!(out.network_bytes, DESCRIPTOR_BYTES);
        assert_eq!(out.sas_bytes, ByteSize::gib(1));
    }

    #[test]
    fn partial_beats_full_migration_latency() {
        // §4.4.2's headline: 15.7 s / 7.2 s partial vs 41 s full.
        let partial = PartialMigration::with_upload(ByteSize::from_mib_f64(1_305.6))
            .run(&ms(), LinkSpec::gige());
        let full = crate::precopy::migrate(
            ByteSize::gib(4),
            15.0 * 1024.0 * 1024.0,
            LinkSpec::gige(),
            &crate::precopy::PrecopyConfig::default(),
        );
        assert!(partial.total < full.duration / 2);
    }
}
