//! The §4.4 micro-benchmark laboratory.
//!
//! Two servers and a memory server, wired exactly like the prototype
//! testbed: a *custom host* (home, S3-capable, with the Atom + SAS memory
//! server) and an always-powered *consolidation host*, connected over
//! Gigabit Ethernet. A single 4 GiB desktop VM is primed with Table 2's
//! Workload 1, idles, partial-migrates, runs idle on the consolidation
//! host with pages faulting in from the memory server, reintegrates, runs
//! Workload 2 and partial-migrates again — the exact flow behind
//! Figures 5–6 and the §4.4.3 traffic numbers.
//!
//! ## Calibration constants
//!
//! The lab needs a handful of rates the paper implies but does not state
//! directly; each is documented where defined and validated against the
//! published end-to-end numbers by this module's tests:
//!
//! * `OS_BASE_PAGES` — pages a freshly booted GNOME desktop plus page
//!   cache touch before the workload starts.
//! * `PRIME_WRITE_FRACTION` — fraction of workload-touched pages that are
//!   written (heap/buffers) rather than only read (code/cache).
//! * consolidated-idle model — unique-touch curve and fetch/dirty split
//!   while the partial VM runs on the consolidation host.

use oasis_host::agent::HostAgent;
use oasis_host::guest::GuestMemoryImage;
use oasis_host::hypervisor::GuestAccess;
use oasis_host::memserver::MsError;
use oasis_host::memtap::Memtap;
use oasis_mem::bitmap::Bitmap;
use oasis_mem::compress::{compress, PageMix};
use oasis_mem::{ByteSize, PageNum, PAGE_SIZE};
use oasis_net::{LinkSpec, TrafficAccountant, TrafficClass};
use oasis_power::{HostEnergyProfile, MemoryServerProfile};
use oasis_sim::{SimDuration, SimRng, SimTime};
use oasis_vm::apps::{Application, DesktopWorkload};
use oasis_vm::workload::WorkloadClass;
use oasis_vm::{Vm, VmId, VmState};

use crate::partial::{PartialMigration, PartialOutcome, DESCRIPTOR_BYTES};
use crate::precopy::{self, PrecopyConfig, PrecopyOutcome};
use crate::reintegration::{Reintegration, ReintegrationOutcome};

/// Pages the booted OS + page cache touch before any workload (≈1.45 GiB).
const OS_BASE_PAGES: u64 = 380_000;

/// Fraction of workload-touched pages that are written.
const PRIME_WRITE_FRACTION: f64 = 0.35;

/// Sustained dirtying rate of the active primed desktop, bytes/s (drives
/// the pre-copy iterations that stretch full migration to ~41 s on GigE).
const ACTIVE_DIRTY_RATE: f64 = 15.0 * 1024.0 * 1024.0;

/// Background page dirtying while idle, pages per minute (e-mail fetches,
/// IM keep-alives, §4.4.1).
const IDLE_DIRTY_PAGES_PER_MIN: f64 = 1_300.0;

/// Consolidated-idle unique-touch curve: saturating size.
const CONS_IDLE_WSS_MIB: f64 = 240.0;
/// Consolidated-idle unique-touch curve: time constant.
const CONS_IDLE_TAU_SECS: f64 = 600.0;
/// Consolidated-idle unique-touch curve: linear growth (MiB per minute).
const CONS_IDLE_GROWTH_MIB_PER_MIN: f64 = 1.2;
/// Fraction of consolidated first-touches that read existing state and so
/// must fetch from the memory server; the rest are fresh allocations whose
/// fetch the overwrite-obviation logic skips (§4.4.3).
const CONS_FETCH_FRACTION: f64 = 0.44;
/// Fraction of fetched pages subsequently written.
const CONS_FETCHED_WRITE_FRACTION: f64 = 0.5;
/// Background re-dirtying rate on the consolidation host, pages/minute.
/// Higher than at home: the freshly created partial VM's daemons churn
/// buffers they just re-established.
const CONS_REDIRTY_PAGES_PER_MIN: f64 = 2_600.0;

/// Where the lab VM currently runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmLocation {
    /// Full VM at its home (the custom host).
    Home,
    /// Partial VM on the consolidation host.
    Consolidated,
}

/// Report of one partial migration in the lab.
#[derive(Clone, Copy, Debug)]
pub struct PartialReport {
    /// Whether differential upload applied.
    pub differential: bool,
    /// Pages written to the memory server.
    pub uploaded_pages: u64,
    /// The phase/latency breakdown.
    pub outcome: PartialOutcome,
}

/// Report of a consolidated idle period.
#[derive(Clone, Copy, Debug)]
pub struct ConsolidatedIdleReport {
    /// Remote faults serviced by the memory server.
    pub faults: u64,
    /// Compressed bytes fetched over the network.
    pub fetched: ByteSize,
    /// Pages dirty on the consolidation host at the end.
    pub dirty_pages: u64,
    /// Requests that timed out and were retried (fault injection).
    pub retries: u64,
    /// Extra latency spent on retries.
    pub retry_time: SimDuration,
}

/// Optimization toggles for ablation studies (§4.3's upload
/// optimizations and §4.4.3's overwrite obviation).
#[derive(Clone, Copy, Debug)]
pub struct LabOptions {
    /// Per-page compression before uploads (§4.3). Off means raw pages
    /// hit the SAS drive.
    pub compression: bool,
    /// Differential upload: only dirty-since-last-upload pages rewritten
    /// (§4.3). Off means every upload rewrites the full touched set.
    pub differential_upload: bool,
    /// Skip transmitting pages that will be completely overwritten
    /// (§4.4.3). Off means all dirty pages cross the wire at
    /// reintegration.
    pub overwrite_obviation: bool,
    /// Fault injection: probability that a memory-server page request
    /// times out and memtap must retry (network loss, daemon hiccup).
    pub serve_error_rate: f64,
}

impl Default for LabOptions {
    fn default() -> Self {
        LabOptions {
            compression: true,
            differential_upload: true,
            overwrite_obviation: true,
            serve_error_rate: 0.0,
        }
    }
}

/// Memtap's retry timeout when a page request is lost.
const SERVE_RETRY_TIMEOUT: SimDuration = SimDuration::from_micros(50_000);

/// The two-host micro-benchmark environment.
pub struct MicroLab {
    /// The custom (home) host with its memory server.
    pub home: HostAgent,
    /// The HP consolidation host (always powered, §4.4.1).
    pub consolidation: HostAgent,
    /// Per-class traffic accounting.
    pub traffic: TrafficAccountant,
    vm_id: VmId,
    image: GuestMemoryImage,
    location: VmLocation,
    memtap: Memtap,
    rng: SimRng,
    now: SimTime,
    /// Bump pointer handing out fresh page ranges.
    next_fresh_page: u64,
    /// Compressed size of one untouched (zero) page.
    zero_page_cost: ByteSize,
    /// Pages dirtied at home since the last memory-server upload, one bit
    /// per guest page.
    home_dirty_since_upload: Bitmap,
    /// Whether a first (full) upload has happened.
    uploaded_once: bool,
    /// Optimization toggles.
    options: LabOptions,
}

impl MicroLab {
    /// Builds the testbed of §4.4.1 around a 4 GiB desktop VM.
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, LabOptions::default())
    }

    /// Builds the testbed with explicit optimization toggles.
    pub fn with_options(seed: u64, options: LabOptions) -> Self {
        let host_profile = HostEnergyProfile::table1();
        let ms_profile = MemoryServerProfile::prototype();
        let mut home = HostAgent::new_home(0, ByteSize::gib(128), &host_profile, ms_profile);
        let mut consolidation = HostAgent::new_consolidation(1, ByteSize::gib(512), &host_profile);
        // The HP host lacks S3 support and always stays powered (§4.4.1).
        let _ = consolidation.acpi.request_wake(SimTime::ZERO);
        if let Some(ends) = consolidation.acpi.transition_ends() {
            consolidation.acpi.on_transition_complete(ends);
        }

        let vm_id = VmId(1);
        let vm = Vm::new(vm_id, WorkloadClass::Desktop, ByteSize::gib(4), 1);
        let image = GuestMemoryImage::desktop(seed);
        home.hypervisor.create_full(vm, image.clone()).expect("fresh hypervisor accepts the VM");

        let memtap = Memtap::new(vm_id, LinkSpec::gige(), ms_profile.page_service_time);
        let zero_page_cost = ByteSize::bytes(compress(&vec![0u8; PAGE_SIZE as usize]).len() as u64);
        let home_dirty_since_upload = Bitmap::new(image.num_pages() as usize);

        MicroLab {
            home,
            consolidation,
            traffic: TrafficAccountant::new(),
            vm_id,
            image,
            location: VmLocation::Home,
            memtap,
            rng: SimRng::new(seed ^ 0x1AB_1AB),
            now: SimTime::ZERO,
            next_fresh_page: 0,
            zero_page_cost,
            home_dirty_since_upload,
            uploaded_once: false,
            options,
        }
    }

    /// Lab clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Where the VM runs.
    pub fn location(&self) -> VmLocation {
        self.location
    }

    fn take_fresh_range(&mut self, n: u64) -> std::ops::Range<u64> {
        let start = self.next_fresh_page;
        let end = (start + n).min(self.image.num_pages());
        self.next_fresh_page = end;
        start..end
    }

    /// Touches a fresh sequential range at home with a per-page write
    /// draw. The range comes from the fresh-page bump pointer on a fully
    /// resident table, so every access must hit.
    fn touch_sequential(&mut self, range: std::ops::Range<u64>) {
        let rng = &mut self.rng;
        let run = self
            .home
            .hypervisor
            .access_run(self.vm_id, PageNum(range.start), range.end - range.start, || {
                rng.chance(PRIME_WRITE_FRACTION)
            })
            .expect("resident access");
        assert_eq!(run.faults, 0, "a resident VM faulted at home");
    }

    /// Boots the OS: touches the base page set at home.
    pub fn prime_os(&mut self) {
        assert_eq!(self.location, VmLocation::Home, "prime at home");
        let range = self.take_fresh_range(OS_BASE_PAGES);
        self.touch_sequential(range);
        self.now += SimDuration::from_mins(3);
    }

    /// Runs a Table 2 workload at home (the VM must be resident there).
    pub fn run_workload(&mut self, workload: &DesktopWorkload) {
        assert_eq!(self.location, VmLocation::Home, "workloads run at home");
        self.home.set_vm_state(self.vm_id, VmState::Active).expect("vm hosted");
        for (app, count) in workload.apps.clone() {
            for _ in 0..count {
                let range = self.take_fresh_range(app.startup_pages);
                self.touch_sequential(range);
            }
        }
        self.now += SimDuration::from_mins(10);
    }

    /// Lets the VM sit idle at home, dirtying background pages.
    pub fn idle_wait(&mut self, duration: SimDuration) {
        assert_eq!(self.location, VmLocation::Home);
        self.home.set_vm_state(self.vm_id, VmState::Idle).expect("vm hosted");
        let pages = (IDLE_DIRTY_PAGES_PER_MIN * duration.as_secs_f64() / 60.0) as u64;
        // Background dirtying rewrites already-touched pages; every
        // target is below the fresh-page pointer on a resident table, so
        // every access hits.
        let limit = self.next_fresh_page.max(1);
        for _ in 0..pages {
            let p = self.rng.below(limit);
            let access = self
                .home
                .hypervisor
                .guest_access(self.vm_id, PageNum(p), true)
                .expect("resident access");
            assert_eq!(access, GuestAccess::Hit, "a resident VM faulted at home");
        }
        self.now += duration;
    }

    /// Collects home-side dirty pages into the differential-upload set.
    fn drain_home_dirty(&mut self) {
        let hosted = self.home.hypervisor.vm_mut(self.vm_id).expect("vm at home");
        hosted.dirty.drain_into(&mut self.home_dirty_since_upload);
    }

    /// Partial-migrates the VM to the consolidation host (§4.2).
    pub fn partial_migrate(&mut self) -> PartialReport {
        assert_eq!(self.location, VmLocation::Home, "only home VMs partial-migrate here");
        self.drain_home_dirty();

        // Choose the upload set: everything touched for the first upload,
        // only dirty-since-upload afterwards (differential, §4.3). Either
        // set streams from its bitmap, in ascending page order, straight
        // into the drive image.
        let differential = self.uploaded_once && self.options.differential_upload;
        let (image, compression) = (&self.image, self.options.compression);
        let sized = |p: PageNum| {
            let size =
                if compression { image.compressed_size(p) } else { ByteSize::bytes(PAGE_SIZE) };
            (p, size)
        };
        let hosted = self.home.hypervisor.vm(self.vm_id).expect("vm at home");
        let ms = self.home.memserver.as_mut().expect("home has a memory server");
        ms.mount_at_host().expect("drive free");
        let (receipt, extra_zero_cost) = if differential {
            let dirty = self.home_dirty_since_upload.iter_ones().map(|i| sized(PageNum(i as u64)));
            (ms.upload(self.vm_id, image.num_pages(), dirty, true), ByteSize::ZERO)
        } else {
            let untouched = image.num_pages() - hosted.wss.unique_pages();
            let zero_cost =
                if compression { self.zero_page_cost } else { ByteSize::bytes(PAGE_SIZE) };
            let touched = hosted.wss.pages().map(sized);
            (ms.upload(self.vm_id, image.num_pages(), touched, false), zero_cost * untouched)
        };
        let receipt = receipt.expect("upload");
        self.home_dirty_since_upload.clear_all();
        ms.handoff_to_server().expect("handoff");
        self.uploaded_once = true;

        let upload_compressed = receipt.compressed + extra_zero_cost;
        let outcome =
            PartialMigration::with_upload(upload_compressed).run(ms.profile(), LinkSpec::gige());

        // Move the descriptor and create the partial VM at the destination.
        let hosted = self.home.hypervisor.vm(self.vm_id).expect("vm at home");
        let mut vm = hosted.vm.clone();
        vm.state = VmState::Idle;
        vm.make_partial(ByteSize::ZERO);
        self.consolidation
            .hypervisor
            .create_partial(vm, self.image.clone())
            .expect("consolidation host accepts the partial VM");

        self.traffic.record(TrafficClass::MemServerUpload, upload_compressed);
        self.traffic.record(TrafficClass::PartialDescriptor, DESCRIPTOR_BYTES);
        self.location = VmLocation::Consolidated;
        self.now += outcome.total;

        PartialReport { differential, uploaded_pages: receipt.pages, outcome }
    }

    /// Runs the consolidated partial VM idle for `duration`, faulting
    /// pages in from the memory server on demand.
    pub fn consolidated_idle(&mut self, duration: SimDuration) -> ConsolidatedIdleReport {
        assert_eq!(self.location, VmLocation::Consolidated);
        let total_secs = duration.as_secs_f64();

        // Unique pages touched over the window (saturating + linear).
        let unique_mib = CONS_IDLE_WSS_MIB * (1.0 - (-total_secs / CONS_IDLE_TAU_SECS).exp())
            + CONS_IDLE_GROWTH_MIB_PER_MIN * total_secs / 60.0;
        let unique_pages = ByteSize::from_mib_f64(unique_mib).pages(PAGE_SIZE);

        let mut fetched = ByteSize::ZERO;
        let mut faults = 0u64;
        let mut retries = 0u64;
        let mut retry_time = SimDuration::ZERO;
        // Every install changes which pages are present, which decides
        // whether the *next* draw hits or faults: the loop is inherently
        // sequential, one fault → fetch → resume at a time (§4).
        for _ in 0..unique_pages {
            // First touches revisit the uploaded state (fetch) or write
            // fresh allocations (no fetch, §4.4.3 obviation).
            let revisit = self.rng.chance(CONS_FETCH_FRACTION);
            if revisit {
                // Read an uploaded page: pick one from the primed range.
                let p = PageNum(self.rng.below(self.next_fresh_page.max(1)));
                match self
                    .consolidation
                    .hypervisor
                    .guest_access(self.vm_id, p, false)
                    .expect("in range")
                {
                    GuestAccess::FaultPending(page) => {
                        // Fault injection: lost requests retried after a
                        // timeout (at most a handful of attempts).
                        let mut attempts = 0;
                        while self.options.serve_error_rate > 0.0
                            && attempts < 5
                            && self.rng.chance(self.options.serve_error_rate)
                        {
                            attempts += 1;
                            retries += 1;
                            retry_time += SERVE_RETRY_TIMEOUT;
                        }
                        let ms = self.home.memserver.as_mut().expect("memserver");
                        let size = match ms.serve_page(self.vm_id, page) {
                            Ok(s) => s,
                            // A page idle-dirtied after upload but never
                            // uploaded: treat as fresh allocation.
                            Err(MsError::UnknownPage(..)) => self.zero_page_cost,
                            Err(e) => panic!("memory server serves the partial VM: {e}"),
                        };
                        self.memtap.service_fault(size);
                        fetched += size;
                        faults += 1;
                        let write = self.rng.chance(CONS_FETCHED_WRITE_FRACTION);
                        self.consolidation
                            .hypervisor
                            .install_fetched(self.vm_id, page, write)
                            .expect("install");
                    }
                    GuestAccess::Hit => {}
                }
            } else {
                // Fresh allocation: install a zero page locally and dirty it.
                let p = self.take_fresh_range(1);
                if let Some(p) = p.clone().next() {
                    self.consolidation
                        .hypervisor
                        .install_fetched(self.vm_id, PageNum(p), true)
                        .expect("install fresh");
                }
            }
        }

        // Background re-dirtying of pages already present on this host.
        let redirty = (CONS_REDIRTY_PAGES_PER_MIN * total_secs / 60.0) as u64;
        let present: Vec<PageNum> = self
            .consolidation
            .hypervisor
            .vm(self.vm_id)
            .expect("vm here")
            .table
            .present_pages()
            .collect();
        if !present.is_empty() {
            // Re-dirtying only touches pages already present: hits only.
            for _ in 0..redirty {
                let p = present[self.rng.index(present.len())];
                let access = self
                    .consolidation
                    .hypervisor
                    .guest_access(self.vm_id, p, true)
                    .expect("present page");
                assert_eq!(access, GuestAccess::Hit, "a present page faulted");
            }
        }

        self.traffic.record(TrafficClass::DemandFetch, fetched);
        self.now += duration + retry_time;
        let dirty_pages =
            self.consolidation.hypervisor.vm(self.vm_id).expect("vm here").dirty.dirty_count();
        ConsolidatedIdleReport { faults, fetched, dirty_pages, retries, retry_time }
    }

    /// Reintegrates the partial VM back into its home (§4.2).
    pub fn reintegrate(&mut self) -> ReintegrationOutcome {
        assert_eq!(self.location, VmLocation::Consolidated);
        let dirty = {
            let hosted = self.consolidation.hypervisor.vm_mut(self.vm_id).expect("vm here");
            hosted.dirty.take_epoch()
        };
        let outcome = Reintegration {
            dirty_pages: dirty.len() as u64,
            obviated_fraction: if self.options.overwrite_obviation {
                crate::reintegration::DEFAULT_OBVIATED_FRACTION
            } else {
                0.0
            },
        }
        .run(LinkSpec::gige());

        // Transferred dirty pages must go out in the next differential
        // upload; obviated pages carry no live data.
        let sent = dirty.len() as u64 - outcome.obviated_pages;
        for p in dirty.into_iter().take(sent as usize) {
            self.home_dirty_since_upload.set(p.0 as usize);
        }

        // The consolidation host releases the partial VM; the memory
        // server stops serving and hands the drive back (§4.3).
        self.consolidation.hypervisor.destroy(self.vm_id).expect("partial vm present");
        let ms = self.home.memserver.as_mut().expect("memserver");
        ms.handoff_to_host().expect("serving");

        self.traffic.record(TrafficClass::Reintegration, outcome.network_bytes);
        self.location = VmLocation::Home;
        self.now += outcome.total;
        outcome
    }

    /// Fully (pre-copy live) migrates the VM, for the Figure 5 baseline.
    pub fn full_migrate_baseline(&self) -> PrecopyOutcome {
        precopy::migrate(
            ByteSize::gib(4),
            ACTIVE_DIRTY_RATE,
            LinkSpec::gige(),
            &PrecopyConfig::default(),
        )
    }

    /// Start-up latency of `app`, in the VM's current location (Figure 6).
    ///
    /// On a full VM the pages are warm; in a partial VM every cold page is
    /// a serial remote fetch.
    pub fn app_startup_latency(&mut self, app: &Application) -> SimDuration {
        match self.location {
            VmLocation::Home => app.full_vm_startup,
            VmLocation::Consolidated => {
                let mean = ByteSize::bytes(
                    (PAGE_SIZE as f64 * PageMix::desktop().aggregate_ratio()) as u64,
                );
                app.full_vm_startup + self.memtap.serial_fetch_latency(app.startup_pages, mean)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_vm::apps::catalog;

    /// Runs the full §4.4 flow once and returns the lab plus the reports.
    fn run_flow(
    ) -> (MicroLab, PartialReport, ConsolidatedIdleReport, ReintegrationOutcome, PartialReport)
    {
        let mut lab = MicroLab::new(1);
        lab.prime_os();
        lab.run_workload(&DesktopWorkload::workload1());
        lab.idle_wait(SimDuration::from_mins(5));
        let first = lab.partial_migrate();
        let idle = lab.consolidated_idle(SimDuration::from_mins(20));
        let reint = lab.reintegrate();
        lab.run_workload(&DesktopWorkload::workload2());
        lab.idle_wait(SimDuration::from_mins(5));
        let second = lab.partial_migrate();
        (lab, first, idle, reint, second)
    }

    #[test]
    fn figure5_partial_migration_latencies() {
        let (_, first, _, _, second) = run_flow();
        let t1 = first.outcome.total.as_secs_f64();
        let t2 = second.outcome.total.as_secs_f64();
        // Paper: 15.7 s first, 7.2 s second (±25 % tolerance for the
        // synthetic content mix).
        assert!((12.0..20.0).contains(&t1), "first partial {t1}");
        assert!((5.5..9.5).contains(&t2), "second partial {t2}");
        assert!(!first.differential);
        assert!(second.differential);
        assert!(t2 < t1, "differential upload must win");
    }

    #[test]
    fn figure5_upload_phase_shrinks_with_differential() {
        let (_, first, _, _, second) = run_flow();
        let u1 = first.outcome.upload_time.as_secs_f64();
        let u2 = second.outcome.upload_time.as_secs_f64();
        // Paper: 10.2 s → 2.2 s.
        assert!((7.5..13.0).contains(&u1), "first upload {u1}");
        assert!((1.0..3.5).contains(&u2), "second upload {u2}");
    }

    #[test]
    fn section443_network_traffic_volumes() {
        let (lab, _, idle, reint, _) = run_flow();
        // Descriptor ≈ 16 MiB per partial migration.
        let desc = lab.traffic.total(TrafficClass::PartialDescriptor);
        assert_eq!(desc, ByteSize::mib(32), "two descriptors");
        // On-demand fetches ≈ 56.9 MiB over the consolidated window.
        let fetched = idle.fetched.as_mib_f64();
        assert!((35.0..80.0).contains(&fetched), "fetched {fetched} MiB");
        // Reintegration ≈ 175.3 MiB of dirty state.
        let reint_mib = reint.network_bytes.as_mib_f64();
        assert!((120.0..230.0).contains(&reint_mib), "reintegrated {reint_mib} MiB");
    }

    #[test]
    fn figure5_reintegration_latency() {
        let (_, _, _, reint, _) = run_flow();
        let secs = reint.total.as_secs_f64();
        assert!((2.5..5.0).contains(&secs), "reintegration {secs}");
    }

    #[test]
    fn full_migration_baseline_is_41s() {
        let lab = MicroLab::new(2);
        let full = lab.full_migrate_baseline();
        let secs = full.duration.as_secs_f64();
        assert!((38.0..44.0).contains(&secs), "full migration {secs}");
    }

    #[test]
    fn figure6_app_startup_penalty() {
        let mut lab = MicroLab::new(3);
        lab.prime_os();
        lab.run_workload(&DesktopWorkload::workload1());
        lab.idle_wait(SimDuration::from_mins(5));
        // Full VM: warm start.
        let full = lab.app_startup_latency(&catalog::LIBREOFFICE_DOC);
        lab.partial_migrate();
        let partial = lab.app_startup_latency(&catalog::LIBREOFFICE_DOC);
        let ratio = partial.as_secs_f64() / full.as_secs_f64();
        // Paper: up to 111× slower; LibreOffice ≈ 168 s.
        assert!((80.0..150.0).contains(&ratio), "penalty ratio {ratio}");
        let secs = partial.as_secs_f64();
        assert!((130.0..210.0).contains(&secs), "LibreOffice start {secs}");
    }

    #[test]
    fn fault_injection_degrades_gracefully() {
        let mut lab = MicroLab::with_options(
            1,
            LabOptions { serve_error_rate: 0.10, ..LabOptions::default() },
        );
        lab.prime_os();
        lab.run_workload(&DesktopWorkload::workload1());
        lab.idle_wait(SimDuration::from_mins(5));
        lab.partial_migrate();
        let idle = lab.consolidated_idle(SimDuration::from_mins(20));
        // The flow completes: all fetches eventually succeed.
        assert!(idle.faults > 1_000);
        assert!(idle.retries > 0, "10% loss must show up as retries");
        // Roughly one retry per nine successful first attempts.
        let rate = idle.retries as f64 / (idle.faults + idle.retries) as f64;
        assert!((0.05..0.20).contains(&rate), "retry rate {rate}");
        // Reintegration still works after a lossy consolidation.
        let r = lab.reintegrate();
        assert!(r.total.as_secs_f64() < 10.0);
    }

    #[test]
    #[should_panic(expected = "memory server serves the partial VM: serving daemon crashed")]
    fn dead_memory_server_fails_the_idle_fetch_loop() {
        let mut lab = MicroLab::new(1);
        lab.prime_os();
        lab.run_workload(&DesktopWorkload::workload1());
        lab.idle_wait(SimDuration::from_mins(5));
        lab.partial_migrate();
        // The daemon dies before answering its first request: the fetch
        // loop must not turn the dead server's errors into zero pages.
        lab.home.memserver.as_mut().expect("memserver").schedule_crash_after(0);
        lab.consolidated_idle(SimDuration::from_mins(20));
    }

    /// Runs the full flow and serializes every observable outcome: phase
    /// reports, traffic ledger, memtap and memory-server stats, final
    /// page-table/working-set state and the lab clock.
    fn flow_snapshot(seed: u64, serve_error_rate: f64) -> String {
        let mut lab =
            MicroLab::with_options(seed, LabOptions { serve_error_rate, ..LabOptions::default() });
        lab.prime_os();
        lab.run_workload(&DesktopWorkload::workload1());
        lab.idle_wait(SimDuration::from_mins(5));
        let first = lab.partial_migrate();
        let idle = lab.consolidated_idle(SimDuration::from_mins(20));
        let reint = lab.reintegrate();
        lab.run_workload(&DesktopWorkload::workload2());
        lab.idle_wait(SimDuration::from_mins(5));
        let second = lab.partial_migrate();
        let full = lab.full_migrate_baseline();
        let home = lab.home.hypervisor.vm(lab.vm_id).expect("vm at home");
        format!(
            "{first:?}\n{idle:?}\n{reint:?}\n{second:?}\n{full:?}\n{:?}\n{:?}\n{:?}\nwss={} present={} dirty={} now={:?}",
            lab.traffic,
            lab.memtap.stats(),
            lab.home.memserver.as_ref().expect("memserver").stats(),
            home.wss.unique_pages(),
            home.table.present_count(),
            home.dirty.dirty_count(),
            lab.now(),
        )
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn flow_snapshot_bytes_are_pinned() {
        for (seed, rate, expect) in [
            (1, 0.0, 0xbb12_d2ed_cdef_65ea),
            (1, 0.10, 0x0c18_fdc0_23f5_666c),
            (2, 0.0, 0xbeb4_5e4e_a1d1_7c98),
            (3, 0.0, 0x7d8a_9cec_98b0_486e),
        ] {
            let snapshot = flow_snapshot(seed, rate);
            assert_eq!(
                fnv1a(snapshot.as_bytes()),
                expect,
                "seed {seed}, serve_error_rate {rate}:\n{snapshot}"
            );
        }
    }

    #[test]
    fn memory_server_serves_while_flow_runs() {
        let (lab, _, idle, _, _) = run_flow();
        let ms = lab.home.memserver.as_ref().unwrap();
        assert_eq!(ms.stats().requests, idle.faults);
        assert!(idle.faults > 1_000, "faults {}", idle.faults);
    }

    #[test]
    fn traffic_classes_disjoint() {
        let (lab, ..) = run_flow();
        // SAS uploads dwarf network traffic and stay off the network.
        let sas = lab.traffic.total(TrafficClass::MemServerUpload);
        let net = lab.traffic.network_total();
        assert!(sas > net);
        assert!(lab.traffic.grand_total() == sas + net);
    }
}
