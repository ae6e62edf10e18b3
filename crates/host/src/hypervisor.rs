//! The hypervisor model: VM hosting and extended page-fault handling.
//!
//! §4.2: "When setting up the page tables of a partial VM, the hypervisor
//! marks its page entries as absent which causes page faults whenever the
//! VM attempts to access the pages. … Page fault handling in Xen was
//! extended to allocate frames on-demand and, via an event channel, notify
//! the corresponding memtap process … The hypervisor allocates frames at
//! the granularity of a chunk consisting of 2 MiB."
//!
//! [`Hypervisor`] hosts VMs, routes guest accesses through their page
//! tables, allocates frames from a [`ChunkAllocator`] on demand, and
//! tracks dirty state for reintegration. Each VM's page state lives in
//! three dense bitmaps, one fact each: present pages in its
//! [`PageTable`], unique touches in its [`WorkingSetTracker`], and writes
//! in its [`DirtyLog`].

use std::collections::BTreeMap;

use oasis_mem::chunk::ChunkAllocator;
use oasis_mem::dirty::DirtyLog;
use oasis_mem::page_table::{Access, PageTable};
use oasis_mem::wss::WorkingSetTracker;
use oasis_mem::{ByteSize, PageNum, PAGE_SIZE};
use oasis_telemetry::{Counter, Event, Telemetry};
use oasis_vm::{Vm, VmId};

use crate::guest::GuestMemoryImage;

/// Errors from hypervisor operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HvError {
    /// The VM is not hosted here.
    UnknownVm(VmId),
    /// A VM with this id already runs here.
    DuplicateVm(VmId),
    /// The host's memory is exhausted.
    OutOfMemory,
    /// The page number is outside the VM's allocation.
    BadPage(VmId, PageNum),
}

impl core::fmt::Display for HvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HvError::UnknownVm(id) => write!(f, "{id} is not hosted here"),
            HvError::DuplicateVm(id) => write!(f, "{id} already exists"),
            HvError::OutOfMemory => write!(f, "host memory exhausted"),
            HvError::BadPage(id, p) => write!(f, "{id}: {p:?} out of range"),
        }
    }
}

impl std::error::Error for HvError {}

/// Result of a guest memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuestAccess {
    /// Page resident; access completed locally.
    Hit,
    /// Page absent; the vCPU is paused and memtap must fetch the page.
    FaultPending(PageNum),
}

/// How the accesses of one [`Hypervisor::access_run`] resolved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunAccess {
    /// Accesses to resident pages.
    pub hits: u64,
    /// Accesses to absent pages. The run installs nothing for them: each
    /// counts as one [`GuestAccess::FaultPending`] the caller let pass.
    pub faults: u64,
}

/// A VM hosted by this hypervisor.
#[derive(Clone, Debug)]
pub struct HostedVm {
    /// Control-plane view.
    pub vm: Vm,
    /// Pseudo-physical page table (present bits only).
    pub table: PageTable,
    /// Shadow-page-table dirty log (for differential upload and
    /// reintegration).
    pub dirty: DirtyLog,
    /// Unique-touch tracker for working-set measurement.
    pub wss: WorkingSetTracker,
    /// Content model of the VM's memory.
    pub image: GuestMemoryImage,
}

/// The hypervisor of one host.
#[derive(Clone, Debug)]
pub struct Hypervisor {
    allocator: ChunkAllocator,
    vms: BTreeMap<VmId, HostedVm>,
    telemetry: Telemetry,
    /// Cached instrument handles: the fault path is hot, so the registry
    /// is consulted once, not per access.
    hits: Counter,
    faults: Counter,
}

impl Hypervisor {
    /// Creates a hypervisor managing `capacity` of machine memory.
    pub fn new(capacity: ByteSize) -> Self {
        Hypervisor::with_telemetry(capacity, Telemetry::disabled())
    }

    /// Creates a hypervisor reporting to the given telemetry bus.
    pub fn with_telemetry(capacity: ByteSize, telemetry: Telemetry) -> Self {
        let m = telemetry.metrics();
        let hits = m.counter("guest_accesses_total", &[("result", "hit")]);
        let faults = m.counter("guest_accesses_total", &[("result", "fault")]);
        Hypervisor {
            allocator: ChunkAllocator::new(capacity),
            vms: BTreeMap::new(),
            telemetry,
            hits,
            faults,
        }
    }

    /// Access to a hosted VM.
    pub fn vm(&self, id: VmId) -> Result<&HostedVm, HvError> {
        self.vms.get(&id).ok_or(HvError::UnknownVm(id))
    }

    /// Mutable access to a hosted VM.
    pub fn vm_mut(&mut self, id: VmId) -> Result<&mut HostedVm, HvError> {
        self.vms.get_mut(&id).ok_or(HvError::UnknownVm(id))
    }

    /// Creates a fully resident VM (normal creation or full-migration
    /// arrival).
    pub fn create_full(&mut self, vm: Vm, image: GuestMemoryImage) -> Result<(), HvError> {
        self.insert(vm, image, true)
    }

    /// Creates a partial VM from a migrated descriptor: page tables are
    /// present but every entry is absent (§4.2).
    pub fn create_partial(&mut self, vm: Vm, image: GuestMemoryImage) -> Result<(), HvError> {
        self.insert(vm, image, false)
    }

    fn insert(&mut self, vm: Vm, image: GuestMemoryImage, resident: bool) -> Result<(), HvError> {
        if self.vms.contains_key(&vm.id) {
            return Err(HvError::DuplicateVm(vm.id));
        }
        let pages = vm.allocation.pages(PAGE_SIZE);
        let table =
            if resident { PageTable::new_resident(pages) } else { PageTable::new_absent(pages) };
        self.vms.insert(
            vm.id,
            HostedVm {
                vm,
                dirty: DirtyLog::new(pages),
                wss: WorkingSetTracker::new(pages),
                table,
                image,
            },
        );
        Ok(())
    }

    /// Destroys a VM and frees its chunks; returns its control-plane view.
    pub fn destroy(&mut self, id: VmId) -> Result<Vm, HvError> {
        let hosted = self.vms.remove(&id).ok_or(HvError::UnknownVm(id))?;
        self.allocator.free_owner(id.0);
        Ok(hosted.vm)
    }

    /// Routes a guest access. Absent pages pause the vCPU and return
    /// [`GuestAccess::FaultPending`]; memtap must complete the fault via
    /// [`install_fetched`](Hypervisor::install_fetched).
    pub fn guest_access(
        &mut self,
        id: VmId,
        page: PageNum,
        write: bool,
    ) -> Result<GuestAccess, HvError> {
        let hosted = self.vms.get_mut(&id).ok_or(HvError::UnknownVm(id))?;
        match hosted.table.touch(page, write) {
            Ok(Access::Hit) => {
                hosted.wss.touch(page);
                if write {
                    hosted.dirty.record(page);
                }
                self.hits.inc();
                Ok(GuestAccess::Hit)
            }
            Ok(Access::Fault) => {
                self.faults.inc();
                Ok(GuestAccess::FaultPending(page))
            }
            Err(_) => Err(HvError::BadPage(id, page)),
        }
    }

    /// Routes accesses to pages `start..start + n` in ascending order,
    /// drawing each page's write flag from `write` in that order.
    ///
    /// The outcome is that of calling
    /// [`guest_access`](Hypervisor::guest_access) on each page with its
    /// flag: the same present, working-set and dirty bits, hit and fault
    /// counts, draws, and first error (after the failing page's draw).
    /// A fault installs nothing and the run goes on; see [`RunAccess`].
    /// The work is done a 64-page word at a time: the draws fill a write
    /// mask, and each bitmap takes one masked update per word.
    pub fn access_run(
        &mut self,
        id: VmId,
        start: PageNum,
        n: u64,
        mut write: impl FnMut() -> bool,
    ) -> Result<RunAccess, HvError> {
        let mut run = RunAccess::default();
        if n == 0 {
            return Ok(run);
        }
        let Some(hosted) = self.vms.get_mut(&id) else {
            write();
            return Err(HvError::UnknownVm(id));
        };
        let end = start.0.saturating_add(n);
        // Pages from `stop` on are beyond the VM: the first of them fails.
        let stop = end.min(hosted.table.num_pages()).max(start.0);
        let mut p = start.0;
        while p < stop {
            let (w, bit) = ((p / 64) as usize, p % 64);
            let span = (64 - bit).min(stop - p);
            let range = (u64::MAX >> (64 - span)) << bit;
            let mut writes = 0u64;
            for b in bit..bit + span {
                writes |= u64::from(write()) << b;
            }
            let present = hosted.table.present_word(w) & range;
            hosted.wss.touch_word(w, present);
            hosted.dirty.record_word(w, present & writes);
            run.hits += u64::from(present.count_ones());
            run.faults += u64::from((range & !present).count_ones());
            p += span;
        }
        self.hits.add(run.hits);
        self.faults.add(run.faults);
        if stop < end {
            write();
            return Err(HvError::BadPage(id, PageNum(stop)));
        }
        Ok(run)
    }

    /// Completes a fault: allocates a frame from the chunk allocator and
    /// installs the fetched page, then replays the access.
    pub fn install_fetched(&mut self, id: VmId, page: PageNum, write: bool) -> Result<(), HvError> {
        self.allocator.alloc_frame(id.0).map_err(|_| HvError::OutOfMemory)?;
        let hosted = self.vms.get_mut(&id).ok_or(HvError::UnknownVm(id))?;
        hosted.table.install(page).map_err(|_| HvError::BadPage(id, page))?;
        hosted.wss.touch(page);
        if write {
            hosted.dirty.record(page);
        }
        self.telemetry.emit(Event::PageFaultFetched { vm: id.0, page: page.0 });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_mem::compress::PageMix;
    use oasis_sim::SimRng;
    use oasis_telemetry::Level;
    use oasis_vm::workload::WorkloadClass;

    fn small_vm(id: u32) -> (Vm, GuestMemoryImage) {
        let vm = Vm::new(VmId(id), WorkloadClass::Desktop, ByteSize::mib(64), 1);
        let image = GuestMemoryImage::new(id as u64, PageMix::desktop(), 64 * 256);
        (vm, image)
    }

    #[test]
    fn full_vm_hits_everywhere() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (vm, img) = small_vm(1);
        hv.create_full(vm, img).unwrap();
        assert_eq!(hv.guest_access(VmId(1), PageNum(100), false).unwrap(), GuestAccess::Hit);
        assert_eq!(hv.vm(VmId(1)).unwrap().wss.unique_pages(), 1);
    }

    #[test]
    fn partial_vm_faults_then_hits() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (mut vm, img) = small_vm(2);
        vm.make_partial(ByteSize::ZERO);
        hv.create_partial(vm, img).unwrap();
        let id = VmId(2);
        assert_eq!(
            hv.guest_access(id, PageNum(5), false).unwrap(),
            GuestAccess::FaultPending(PageNum(5))
        );
        hv.install_fetched(id, PageNum(5), false).unwrap();
        assert_eq!(hv.guest_access(id, PageNum(5), false).unwrap(), GuestAccess::Hit);
        assert_eq!(hv.vm(id).unwrap().table.present_count(), 1);
    }

    #[test]
    fn writes_feed_dirty_log() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (vm, img) = small_vm(3);
        hv.create_full(vm, img).unwrap();
        hv.guest_access(VmId(3), PageNum(1), true).unwrap();
        hv.guest_access(VmId(3), PageNum(2), false).unwrap();
        let hosted = hv.vm_mut(VmId(3)).unwrap();
        assert_eq!(hosted.dirty.take_epoch(), vec![PageNum(1)]);
    }

    #[test]
    fn fetched_write_is_dirty() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (mut vm, img) = small_vm(4);
        vm.make_partial(ByteSize::ZERO);
        hv.create_partial(vm, img).unwrap();
        hv.install_fetched(VmId(4), PageNum(9), true).unwrap();
        let hosted = hv.vm_mut(VmId(4)).unwrap();
        assert_eq!(hosted.dirty.take_epoch(), vec![PageNum(9)]);
    }

    #[test]
    fn duplicate_and_unknown_vm_errors() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (vm, img) = small_vm(5);
        hv.create_full(vm.clone(), img.clone()).unwrap();
        assert_eq!(hv.create_full(vm, img), Err(HvError::DuplicateVm(VmId(5))));
        assert_eq!(hv.guest_access(VmId(99), PageNum(0), false), Err(HvError::UnknownVm(VmId(99))));
        assert!(hv.destroy(VmId(99)).is_err());
    }

    #[test]
    fn destroy_frees_chunks_for_reuse() {
        let mut hv = Hypervisor::new(ByteSize::mib(2)); // One chunk.
        let (mut vm, img) = small_vm(6);
        vm.make_partial(ByteSize::ZERO);
        hv.create_partial(vm, img).unwrap();
        hv.install_fetched(VmId(6), PageNum(0), false).unwrap();
        // Second VM cannot get a chunk while the first holds it.
        let (mut vm2, img2) = small_vm(7);
        vm2.make_partial(ByteSize::ZERO);
        hv.create_partial(vm2, img2).unwrap();
        assert_eq!(hv.install_fetched(VmId(7), PageNum(0), false), Err(HvError::OutOfMemory));
        hv.destroy(VmId(6)).unwrap();
        assert!(hv.install_fetched(VmId(7), PageNum(0), false).is_ok());
    }

    /// A hypervisor with a 1,000-page VM (id 1) resident and a 300-page
    /// VM (id 2) partial, with a random third of its pages installed.
    fn run_fixture(rng: &mut SimRng, image: &GuestMemoryImage) -> (Hypervisor, Telemetry) {
        let telemetry = Telemetry::new(Level::Info);
        let mut hv = Hypervisor::with_telemetry(ByteSize::mib(64), telemetry.clone());
        let full = Vm::new(VmId(1), WorkloadClass::Desktop, ByteSize::kib(4_000), 1);
        hv.create_full(full, image.clone()).unwrap();
        let mut part = Vm::new(VmId(2), WorkloadClass::Desktop, ByteSize::kib(1_200), 1);
        part.make_partial(ByteSize::ZERO);
        hv.create_partial(part, image.clone()).unwrap();
        for p in 0..300 {
            if rng.chance(0.33) {
                hv.install_fetched(VmId(2), PageNum(p), rng.chance(0.5)).unwrap();
            }
        }
        (hv, telemetry)
    }

    fn counts(t: &Telemetry) -> (u64, u64) {
        let m = t.metrics();
        let get = |r| m.counter("guest_accesses_total", &[("result", r)]).get();
        (get("hit"), get("fault"))
    }

    fn page_state(hv: &Hypervisor, id: VmId) -> (Vec<PageNum>, Vec<PageNum>, Vec<PageNum>) {
        let h = hv.vm(id).unwrap();
        let mut dirty = h.dirty.clone();
        (h.table.present_pages().collect(), h.wss.pages().collect(), dirty.take_epoch())
    }

    #[test]
    fn access_run_matches_a_loop_of_guest_access() {
        let mut draws = SimRng::new(0xACCE55);
        // Page counts come from the VMs; the image only models content.
        let image = GuestMemoryImage::new(1, PageMix::desktop(), 1_000);
        // Cases seen: faults inside a run, a bad page, an unknown VM, an
        // empty range.
        let mut seen = [0u32; 4];
        for case in 0..400 {
            let fixture_seed = draws.next_u64();
            let (mut run_hv, run_t) = run_fixture(&mut SimRng::new(fixture_seed), &image);
            let (mut loop_hv, loop_t) = run_fixture(&mut SimRng::new(fixture_seed), &image);
            // VM 3 is unknown; ranges cross words, start or run past the
            // end, and are sometimes empty.
            let id = VmId(1 + draws.below(3) as u32);
            let start = PageNum(draws.below(1_100));
            let n = if draws.chance(0.1) { 0 } else { draws.below(400) };
            let p_write = draws.next_f64();
            let write_seed = draws.next_u64();

            let mut run_rng = SimRng::new(write_seed);
            let got = run_hv.access_run(id, start, n, || run_rng.chance(p_write));

            let mut loop_rng = SimRng::new(write_seed);
            let mut want = Ok(RunAccess::default());
            for p in start.0..start.0 + n {
                let write = loop_rng.chance(p_write);
                match loop_hv.guest_access(id, PageNum(p), write) {
                    Ok(access) => {
                        let r = want.as_mut().unwrap();
                        match access {
                            GuestAccess::Hit => r.hits += 1,
                            GuestAccess::FaultPending(_) => r.faults += 1,
                        }
                    }
                    Err(e) => {
                        want = Err(e);
                        break;
                    }
                }
            }

            seen[0] += u32::from(matches!(want, Ok(r) if r.faults > 0 && r.hits > 0));
            seen[1] += u32::from(matches!(want, Err(HvError::BadPage(..))));
            seen[2] += u32::from(matches!(want, Err(HvError::UnknownVm(_))));
            seen[3] += u32::from(n == 0);
            let what = format!("case {case}: {id} {start:?} +{n}");
            assert_eq!(got, want, "{what}");
            assert_eq!(counts(&run_t), counts(&loop_t), "{what}");
            assert_eq!(run_rng.next_u64(), loop_rng.next_u64(), "{what}: draws");
            for vm in [VmId(1), VmId(2)] {
                assert_eq!(page_state(&run_hv, vm), page_state(&loop_hv, vm), "{what}: {vm}");
            }
        }
        assert!(seen.iter().all(|&k| k > 0), "every kind of run is exercised: {seen:?}");
    }

    #[test]
    fn out_of_range_page_rejected() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (vm, img) = small_vm(10);
        hv.create_full(vm, img).unwrap();
        let beyond = PageNum(64 * 256 + 1);
        assert_eq!(
            hv.guest_access(VmId(10), beyond, false),
            Err(HvError::BadPage(VmId(10), beyond))
        );
    }
}
