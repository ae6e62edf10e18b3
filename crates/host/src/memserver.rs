//! The low-power memory page server (§4.3).
//!
//! The prototype pairs each host with a low-power platform sharing a
//! hot-swappable SAS drive. The protocol is strict: before entering sleep
//! the host attaches the drive, writes out its VMs' (compressed) memory
//! pages, detaches, and notifies the low-power processor, which attaches
//! the drive and starts the serving daemon. Only one side may mount the
//! drive at a time. This module models that protocol plus the two upload
//! optimizations (per-page compression and differential upload). The
//! daemon answers one page request at a time
//! ([`MemoryServer::serve_page`]); a fault-injection fuse kills it at an
//! exact point in that stream, and a restart or a host reclaim recovers.

use std::collections::BTreeMap;

use oasis_mem::{ByteSize, PageNum};
use oasis_power::MemoryServerProfile;
use oasis_sim::SimDuration;
use oasis_telemetry::{Counter, Telemetry};
use oasis_vm::VmId;

/// Image slot of a page that was never uploaded.
const NOT_UPLOADED: u32 = 0;

/// Which side currently has the shared SAS drive mounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveOwner {
    /// The host mounts the drive (uploading).
    Host,
    /// The memory server mounts the drive (serving).
    Server,
}

/// Errors from memory-server operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MsError {
    /// The drive is mounted on the wrong side for this operation.
    DriveNotMounted(DriveOwner),
    /// The serving daemon is not running.
    NotServing,
    /// No image uploaded for this VM.
    UnknownVm(VmId),
    /// The VM's image does not contain this page.
    UnknownPage(VmId, PageNum),
    /// Both sides tried to mount at once.
    DriveBusy,
    /// The serving daemon has crashed and not yet restarted.
    Crashed,
    /// An upload named a page at or beyond the VM's page count.
    PageOutOfRange(VmId, PageNum),
    /// An upload carried a compressed size the image cannot record.
    PageTooLarge(VmId, PageNum),
}

impl core::fmt::Display for MsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MsError::DriveNotMounted(o) => write!(f, "drive mounted at {o:?}"),
            MsError::NotServing => write!(f, "serving daemon not active"),
            MsError::UnknownVm(id) => write!(f, "no memory image for {id}"),
            MsError::UnknownPage(id, p) => write!(f, "{id}: {p:?} not in image"),
            MsError::DriveBusy => write!(f, "drive already mounted elsewhere"),
            MsError::Crashed => write!(f, "serving daemon crashed"),
            MsError::PageOutOfRange(id, p) => write!(f, "{id}: {p:?} beyond the VM's pages"),
            MsError::PageTooLarge(id, p) => write!(f, "{id}: {p:?} compressed size too large"),
        }
    }
}

impl std::error::Error for MsError {}

/// Receipt describing one upload batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UploadReceipt {
    /// Pages written in this batch.
    pub pages: u64,
    /// Raw bytes those pages represent.
    pub raw: ByteSize,
    /// Compressed bytes actually written to the drive.
    pub compressed: ByteSize,
    /// Write time at the SAS sequential bandwidth.
    pub duration: SimDuration,
}

/// Aggregate serving statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Page requests served.
    pub requests: u64,
    /// Compressed bytes sent to memtap clients.
    pub bytes_sent: ByteSize,
}

/// The per-host memory server.
#[derive(Clone, Debug)]
pub struct MemoryServer {
    profile: MemoryServerProfile,
    drive: DriveOwner,
    serving: bool,
    crashed: bool,
    /// Fault-injection fuse: the daemon dies right after this many more
    /// successful serves ([`MemoryServer::schedule_crash_after`]).
    crash_fuse: Option<u64>,
    /// Per-VM image, indexed by page: compressed size plus one, or
    /// [`NOT_UPLOADED`].
    images: BTreeMap<VmId, Vec<u32>>,
    stats: ServeStats,
    // Serving sits on the guest fault path, so counter handles are cached.
    pages_served: Counter,
    upload_bytes: Counter,
}

impl MemoryServer {
    /// Creates a memory server with the drive initially at the host.
    pub fn new(profile: MemoryServerProfile) -> Self {
        MemoryServer::with_telemetry(profile, &Telemetry::disabled())
    }

    /// Like [`MemoryServer::new`], but wired to a telemetry registry:
    /// `memserver_pages_served_total` counts page requests answered and
    /// `memserver_upload_bytes_total` counts compressed bytes written to
    /// the shared drive.
    pub fn with_telemetry(profile: MemoryServerProfile, telemetry: &Telemetry) -> Self {
        MemoryServer {
            profile,
            drive: DriveOwner::Host,
            serving: false,
            crashed: false,
            crash_fuse: None,
            images: BTreeMap::new(),
            stats: ServeStats::default(),
            pages_served: telemetry.metrics().counter("memserver_pages_served_total", &[]),
            upload_bytes: telemetry.metrics().counter("memserver_upload_bytes_total", &[]),
        }
    }

    /// The power/performance profile.
    pub fn profile(&self) -> &MemoryServerProfile {
        &self.profile
    }

    /// `true` while the serving daemon runs.
    pub fn is_serving(&self) -> bool {
        self.serving
    }

    /// `true` between a daemon crash (see
    /// [`MemoryServer::schedule_crash_after`]) and the next restart or
    /// host reclaim.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Serving statistics so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Mounts the drive on the host side (before uploads).
    ///
    /// Reclaiming the drive from a crashed daemon is allowed — the images
    /// live on disk, so the host simply takes over — and clears the
    /// crashed flag.
    pub fn mount_at_host(&mut self) -> Result<(), MsError> {
        match self.drive {
            DriveOwner::Server if self.serving => Err(MsError::DriveBusy),
            _ => {
                self.drive = DriveOwner::Host;
                self.crashed = false;
                Ok(())
            }
        }
    }

    /// Uploads (writes) pages of a VM's memory image.
    ///
    /// `pages` yields each page's compressed size and is consumed as it
    /// is written; `num_pages` is the VM's page count, which sizes the
    /// image. With `differential` set, the listed pages are overwritten
    /// in place and the rest of the image kept (§4.3's differential
    /// upload), cut or extended to `num_pages`; otherwise the VM's image
    /// is replaced wholesale.
    ///
    /// A page at or beyond `num_pages` fails with
    /// [`MsError::PageOutOfRange`], and a size that does not fit a `u32`
    /// slot with [`MsError::PageTooLarge`]. A failed upload drops the
    /// VM's image, so later serves of it return [`MsError::UnknownVm`].
    pub fn upload(
        &mut self,
        vm: VmId,
        num_pages: u64,
        pages: impl IntoIterator<Item = (PageNum, ByteSize)>,
        differential: bool,
    ) -> Result<UploadReceipt, MsError> {
        if self.drive != DriveOwner::Host {
            return Err(MsError::DriveNotMounted(self.drive));
        }
        // Taken out of the map, so an early return drops it.
        let mut image = match self.images.remove(&vm) {
            Some(mut image) if differential => {
                image.resize(num_pages as usize, NOT_UPLOADED);
                image
            }
            _ => vec![NOT_UPLOADED; num_pages as usize],
        };
        let mut count = 0u64;
        let mut compressed = ByteSize::ZERO;
        for (page, size) in pages {
            let slot = usize::try_from(page.0)
                .ok()
                .and_then(|i| image.get_mut(i))
                .ok_or(MsError::PageOutOfRange(vm, page))?;
            *slot = u32::try_from(size.as_bytes())
                .ok()
                .and_then(|s| s.checked_add(1))
                .ok_or(MsError::PageTooLarge(vm, page))?;
            count += 1;
            compressed += size;
        }
        self.images.insert(vm, image);
        let raw = ByteSize::bytes(count * oasis_mem::PAGE_SIZE);
        let duration = SimDuration::from_secs_f64(
            compressed.as_bytes() as f64 / self.profile.upload_bytes_per_sec,
        );
        self.upload_bytes.add(compressed.as_bytes());
        Ok(UploadReceipt { pages: count, raw, compressed, duration })
    }

    /// Host detaches; the low-power processor attaches and starts the
    /// daemon. After this the host may sleep.
    pub fn handoff_to_server(&mut self) -> Result<(), MsError> {
        if self.drive != DriveOwner::Host {
            return Err(MsError::DriveNotMounted(self.drive));
        }
        self.drive = DriveOwner::Server;
        self.serving = true;
        Ok(())
    }

    /// Host woke and its VMs returned: daemon stops, drive detaches.
    pub fn handoff_to_host(&mut self) -> Result<(), MsError> {
        if self.crashed {
            return Err(MsError::Crashed);
        }
        if !self.serving {
            return Err(MsError::NotServing);
        }
        self.serving = false;
        self.drive = DriveOwner::Host;
        Ok(())
    }

    /// Arms a fault-injection fuse: the serving daemon crashes immediately
    /// after `served` more successful [`MemoryServer::serve_page`] calls
    /// (a fuse of 0 crashes on the next attempt, before it is answered).
    ///
    /// The crash lands at an exact point in a request stream, which is
    /// how a daemon death interleaves with a multi-page fetch. Serving
    /// stops; the drive stays attached to the dead server until a
    /// [`MemoryServer::restart`] or a host reclaim via
    /// [`MemoryServer::mount_at_host`]. Images survive: they live on the
    /// drive, not in the daemon.
    pub fn schedule_crash_after(&mut self, served: u64) {
        self.crash_fuse = Some(served);
    }

    /// The serving daemon dies (low-power processor fault).
    fn die(&mut self) {
        self.serving = false;
        self.crashed = true;
        self.crash_fuse = None;
    }

    /// The low-power processor reboots, re-attaches the drive and resumes
    /// serving from the on-disk images.
    ///
    /// Fails with [`MsError::DriveBusy`] if the host reclaimed the drive
    /// in the meantime (the daemon cannot serve without it).
    pub fn restart(&mut self) -> Result<(), MsError> {
        if self.drive == DriveOwner::Host {
            return Err(MsError::DriveBusy);
        }
        self.drive = DriveOwner::Server;
        self.crashed = false;
        self.serving = true;
        Ok(())
    }

    /// Serves one page request by guest pseudo frame number.
    ///
    /// Returns the compressed size read from the drive and sent on the
    /// wire.
    pub fn serve_page(&mut self, vm: VmId, page: PageNum) -> Result<ByteSize, MsError> {
        if self.crashed {
            return Err(MsError::Crashed);
        }
        if !self.serving {
            return Err(MsError::NotServing);
        }
        if self.crash_fuse == Some(0) {
            self.die();
            return Err(MsError::Crashed);
        }
        let image = self.images.get(&vm).ok_or(MsError::UnknownVm(vm))?;
        let slot = usize::try_from(page.0).ok().and_then(|i| image.get(i)).copied();
        let size = match slot {
            Some(slot) if slot != NOT_UPLOADED => ByteSize::bytes(u64::from(slot - 1)),
            _ => return Err(MsError::UnknownPage(vm, page)),
        };
        self.stats.requests += 1;
        self.stats.bytes_sent += size;
        self.pages_served.inc();
        if let Some(fuse) = &mut self.crash_fuse {
            *fuse -= 1;
            if *fuse == 0 {
                self.die();
            }
        }
        Ok(size)
    }

    /// Latency to serve one request, excluding network transfer.
    pub fn service_time(&self) -> SimDuration {
        self.profile.page_service_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Page count of the test VMs.
    const VM_PAGES: u64 = 1_024;

    fn pages(range: core::ops::Range<u64>, size: u64) -> impl Iterator<Item = (PageNum, ByteSize)> {
        range.map(move |i| (PageNum(i), ByteSize::bytes(size)))
    }

    fn server() -> MemoryServer {
        MemoryServer::new(MemoryServerProfile::prototype())
    }

    #[test]
    fn upload_then_serve_protocol() {
        let mut ms = server();
        let receipt = ms.upload(VmId(1), VM_PAGES, pages(0..100, 1_500), false).unwrap();
        assert_eq!(receipt.pages, 100);
        assert_eq!(receipt.compressed, ByteSize::bytes(150_000));
        assert_eq!(receipt.raw, ByteSize::bytes(409_600));
        // Cannot serve before handoff.
        assert_eq!(ms.serve_page(VmId(1), PageNum(5)), Err(MsError::NotServing));
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(1), PageNum(5)).unwrap(), ByteSize::bytes(1_500));
        assert_eq!(ms.stats().requests, 1);
    }

    #[test]
    fn upload_requires_drive_at_host() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..10, 1_000), false).unwrap();
        ms.handoff_to_server().unwrap();
        assert!(matches!(
            ms.upload(VmId(1), VM_PAGES, pages(0..10, 1_000), true),
            Err(MsError::DriveNotMounted(DriveOwner::Server))
        ));
        // Host must wait for handoff back before re-mounting.
        assert_eq!(ms.mount_at_host(), Err(MsError::DriveBusy));
        ms.handoff_to_host().unwrap();
        assert!(ms.upload(VmId(1), VM_PAGES, pages(0..10, 1_000), true).is_ok());
    }

    #[test]
    fn differential_upload_overwrites_in_place() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..100, 1_000), false).unwrap();
        // Differential: 10 dirty pages rewritten, 5 new appended.
        let dirty = pages(0..10, 1_200);
        let new = pages(100..105, 900);
        let receipt = ms.upload(VmId(1), VM_PAGES, dirty.chain(new), true).unwrap();
        assert_eq!(receipt.pages, 15);
        ms.handoff_to_server().unwrap();
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(3)).unwrap(),
            ByteSize::bytes(1_200),
            "dirty page got its new size"
        );
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(50)).unwrap(),
            ByteSize::bytes(1_000),
            "clean page untouched"
        );
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(102)).unwrap(),
            ByteSize::bytes(900),
            "new page appended"
        );
    }

    #[test]
    fn full_upload_replaces_image() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..100, 1_000), false).unwrap();
        ms.upload(VmId(1), VM_PAGES, pages(50..60, 1_000), false).unwrap();
        ms.handoff_to_server().unwrap();
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(0)),
            Err(MsError::UnknownPage(VmId(1), PageNum(0))),
            "pages outside the new image are gone"
        );
        assert!(ms.serve_page(VmId(1), PageNum(55)).is_ok());
    }

    #[test]
    fn failed_upload_drops_the_image() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..10, 500), false).unwrap();
        assert_eq!(
            ms.upload(VmId(1), VM_PAGES, pages(VM_PAGES - 1..VM_PAGES + 1, 500), true),
            Err(MsError::PageOutOfRange(VmId(1), PageNum(VM_PAGES)))
        );
        let huge = [(PageNum(3), ByteSize::bytes(u64::from(u32::MAX)))];
        ms.upload(VmId(2), VM_PAGES, pages(0..10, 500), false).unwrap();
        assert_eq!(
            ms.upload(VmId(2), VM_PAGES, huge, true),
            Err(MsError::PageTooLarge(VmId(2), PageNum(3)))
        );
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(1), PageNum(0)), Err(MsError::UnknownVm(VmId(1))));
        assert_eq!(ms.serve_page(VmId(2), PageNum(0)), Err(MsError::UnknownVm(VmId(2))));
    }

    #[test]
    fn upload_duration_matches_sas_bandwidth() {
        let mut ms = server();
        // 1.28 GiB compressed at 128 MiB/s = 10.24 s.
        let batch = (0..1_024u64).map(|i| (PageNum(i), ByteSize::mib(1)));
        let receipt = ms.upload(VmId(1), VM_PAGES, batch, false).unwrap();
        assert!((receipt.duration.as_secs_f64() - 8.0).abs() < 0.01);
    }

    #[test]
    fn serve_unknown_vm_and_page() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(2), PageNum(0)), Err(MsError::UnknownVm(VmId(2))));
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(99)),
            Err(MsError::UnknownPage(VmId(1), PageNum(99)))
        );
    }

    #[test]
    fn handoff_requires_correct_states() {
        let mut ms = server();
        assert_eq!(ms.handoff_to_host(), Err(MsError::NotServing));
        ms.handoff_to_server().unwrap();
        assert!(ms.is_serving());
        assert_eq!(ms.handoff_to_server(), Err(MsError::DriveNotMounted(DriveOwner::Server)));
    }

    #[test]
    fn double_attach_is_rejected_on_both_sides() {
        let mut ms = server();
        // Host side: re-mounting while already at the host is idempotent...
        ms.mount_at_host().unwrap();
        ms.mount_at_host().unwrap();
        ms.handoff_to_server().unwrap();
        // ...but the server cannot attach twice, and the host cannot grab
        // the drive out from under a live daemon.
        assert_eq!(ms.handoff_to_server(), Err(MsError::DriveNotMounted(DriveOwner::Server)));
        assert_eq!(ms.mount_at_host(), Err(MsError::DriveBusy));
    }

    #[test]
    fn serve_after_crash_errors_until_restart() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.schedule_crash_after(0);
        assert_eq!(ms.serve_page(VmId(1), PageNum(4)), Err(MsError::Crashed));
        assert!(ms.is_crashed());
        assert!(!ms.is_serving());
        assert_eq!(ms.serve_page(VmId(1), PageNum(0)), Err(MsError::Crashed));
        assert_eq!(ms.handoff_to_host(), Err(MsError::Crashed));
        // Daemon reboot: images survived on the drive and serving resumes.
        ms.restart().unwrap();
        assert!(!ms.is_crashed());
        assert_eq!(ms.serve_page(VmId(1), PageNum(4)).unwrap(), ByteSize::bytes(500));
    }

    #[test]
    fn crash_fuse_fires_after_exact_serve_count() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.schedule_crash_after(2);
        assert!(ms.serve_page(VmId(1), PageNum(0)).is_ok());
        assert!(!ms.is_crashed());
        assert!(ms.serve_page(VmId(1), PageNum(1)).is_ok(), "last serve still answered");
        assert!(ms.is_crashed(), "daemon dies right after the fused serve");
        assert_eq!(ms.serve_page(VmId(1), PageNum(2)), Err(MsError::Crashed));
        assert_eq!(ms.stats().requests, 2, "only answered requests counted");
        // Restart clears the fuse along with the crash.
        ms.restart().unwrap();
        assert!(ms.serve_page(VmId(1), PageNum(2)).is_ok());
        assert!(ms.serve_page(VmId(1), PageNum(3)).is_ok());
        assert!(!ms.is_crashed());
    }

    #[test]
    fn zero_fuse_crashes_before_answering() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.schedule_crash_after(0);
        assert_eq!(ms.serve_page(VmId(1), PageNum(0)), Err(MsError::Crashed));
        assert!(ms.is_crashed());
        assert_eq!(ms.stats().requests, 0);
    }

    #[test]
    fn host_reclaims_drive_from_crashed_daemon() {
        let mut ms = server();
        ms.upload(VmId(1), VM_PAGES, pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.schedule_crash_after(1);
        ms.serve_page(VmId(1), PageNum(0)).unwrap();
        assert!(ms.is_crashed());
        // The woken host takes the drive back and the crashed flag clears.
        ms.mount_at_host().unwrap();
        assert!(!ms.is_crashed());
        // Once the host owns the drive a daemon restart must fail.
        assert_eq!(ms.restart(), Err(MsError::DriveBusy));
        // Normal protocol resumes from here; the images live on the drive.
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(1), PageNum(9)).unwrap(), ByteSize::bytes(500));
    }
}
