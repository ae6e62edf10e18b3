//! The interval-driven cluster simulator.
//!
//! §5.1's methodology: sample one user-day per VM, divide the day into
//! 5-minute intervals, and mark a VM active in any interval with keyboard
//! or mouse input. The simulator walks the 288 intervals of the day; at
//! each boundary it feeds the cluster manager a snapshot, executes the
//! returned plan with the measured §4.4/§5.1 latencies, reacts to VM state
//! changes (including the §3.2 activation policies), and integrates
//! energy.
//!
//! ## Energy accounting
//!
//! Energy is accumulated per interval from a per-host awake/asleep
//! timeline: awake seconds at the powered draw for the host's active-VM
//! count, plus measured suspend (138.2 W × 3.1 s) and resume
//! (149.2 W × 2.3 s) transition energies, with the remainder asleep at
//! 12.9 W. A sleeping *home* host additionally powers its memory server
//! (§5.1: consolidation hosts' memory servers are never powered). The
//! §5.3 baseline — home hosts left powered all day running their VMs —
//! integrates alongside.

use oasis_core::manager::ManagerConfig;
use oasis_core::{
    ActivationDecision, ClusterManager, ClusterView, HostRole, HostView, PlannedAction, VmView,
};
use oasis_faults::{Fault, FaultCounts, Reboot, RetryPolicy};
use oasis_mem::{Bitmap, ByteSize, IdleWssDistribution};
use oasis_migration::recovery::with_retries;
use oasis_migration::MigrationType;
use oasis_net::{TrafficAccountant, TrafficClass};
use oasis_power::PowerState;
use oasis_sim::stats::{Cdf, TimeSeries};
use oasis_sim::{SimDuration, SimRng, SimTime};
use oasis_telemetry::metrics::Counter;
use oasis_telemetry::{
    DecisionClass, EnergyLedger, Event, HostEnergy, MigrationKind, QuiescenceLedger, RecoveryKind,
    Telemetry, VmEnergy, CLUSTER_WIDE,
};
use oasis_trace::{sample_user_days, UserDay, INTERVALS_PER_DAY};
use oasis_vm::workload::WorkloadClass;
use oasis_vm::{HostId, VmId, VmState};

use crate::config::ClusterConfig;
use crate::results::{DecisionCounts, MigrationCounts, SimReport, VmPlacement};
use crate::session::SessionEdges;

/// Interval length in seconds (5-minute trace intervals).
pub(crate) const INTERVAL_SECS: f64 = 300.0;

/// Samples an idle working set for a VM of the given class.
///
/// Desktops use the Jettison distribution the paper samples from (§5.1);
/// server classes derive theirs from the Figure 1 unique-touch curves
/// (mean = one idle hour of touches, ±45 %).
fn sample_class_wss(
    class: WorkloadClass,
    jettison: &IdleWssDistribution,
    allocation: ByteSize,
    rng: &mut SimRng,
) -> ByteSize {
    match class {
        WorkloadClass::Desktop => jettison.sample(rng, allocation),
        other => {
            let mean = other
                .idle_model()
                .unique_touched(SimDuration::from_hours(1), allocation)
                .as_mib_f64();
            let mib = rng.truncated_normal(mean, 0.45 * mean, 4.0, allocation.as_mib_f64());
            ByteSize::from_mib_f64(mib)
        }
    }
}

/// Upload-volume scale of a class relative to the desktop calibration.
fn upload_scale(class: WorkloadClass) -> f64 {
    match class {
        WorkloadClass::Desktop => 1.0,
        // Server VMs touch far less memory (Figure 1): their images and
        // dirty deltas shrink roughly with the working set.
        WorkloadClass::WebServer => 0.25,
        WorkloadClass::Database => 0.20,
        WorkloadClass::ClusterNode => 0.12,
    }
}

/// Aggregate compression ratio of desktop memory under the codec (used to
/// size demand-fetch and upload volumes at the statistical level).
const COMPRESS_RATIO: f64 = 0.54;

/// First (non-differential) memory upload volume per VM, compressed
/// (§4.4.2: 10.2 s at 128 MiB/s ≈ 1.3 GiB).
const FIRST_UPLOAD: ByteSize = ByteSize::mib(1_306);

/// Differential upload volume per re-consolidation (§4.4.2: 2.2 s ≈
/// 282 MiB).
const DIFF_UPLOAD: ByteSize = ByteSize::mib(282);

/// Dirty-state growth of a consolidated idle VM (§4.4.3: 175.3 MiB over
/// 20 minutes).
const DIRTY_MIB_PER_MIN: f64 = 175.3 / 20.0;

/// Cap on reintegration dirty volume per VM.
const DIRTY_CAP: ByteSize = ByteSize::mib(512);

/// Working sets keep growing for this long after consolidation before the
/// saturating part of the Figure 1 curve flattens them out.
const WSS_GROWTH_WINDOW: SimDuration = SimDuration::from_mins(60);

/// A host's awake/asleep timeline within the current interval. Its
/// power state lives in the planning view; every method that depends
/// on it takes it as an argument.
#[derive(Clone, Debug, Default)]
pub(crate) struct SimHost {
    pub(crate) awake_secs: f64,
    pub(crate) last_on_offset: f64,
    pub(crate) suspends: u32,
    pub(crate) resumes: u32,
}

impl SimHost {
    fn begin_interval(&mut self) {
        self.awake_secs = 0.0;
        self.last_on_offset = 0.0;
        self.suspends = 0;
        self.resumes = 0;
    }

    /// Records a switch from `powered` to `on` at `offset_secs`; a
    /// redundant switch records nothing.
    fn set_power(&mut self, powered: bool, offset_secs: f64, on: bool) {
        if powered == on {
            return;
        }
        if on {
            self.last_on_offset = offset_secs;
            self.resumes += 1;
        } else {
            self.awake_secs += (offset_secs - self.last_on_offset).max(0.0);
            self.suspends += 1;
        }
    }

    /// A wake-work-sleep episode of a sleeping host that starts and ends
    /// inside the interval (the FulltoPartial temporary home wake).
    fn temporary_episode(&mut self, secs: f64) {
        self.awake_secs += secs;
        self.resumes += 1;
        self.suspends += 1;
    }

    fn end_interval(&mut self, powered: bool) -> f64 {
        if powered {
            self.awake_secs += (INTERVAL_SECS - self.last_on_offset).max(0.0);
        }
        self.awake_secs.min(INTERVAL_SECS)
    }
}

/// What the simulator knows of a VM beyond its [`VmView`] record.
#[derive(Clone, Debug)]
pub(crate) struct SimVm {
    pub(crate) class: WorkloadClass,
    /// Expected working set if consolidated (planner estimate).
    pub(crate) wss_estimate: ByteSize,
    /// Growth ceiling for the current consolidation epoch.
    pub(crate) wss_cap: ByteSize,
    /// When the current consolidation epoch began.
    consolidated_since: Option<SimTime>,
    /// Whether a full memory image was ever uploaded (differential
    /// uploads afterwards, §4.3).
    uploaded_once: bool,
}

/// Incrementally maintained per-host residency index.
///
/// The resident sets are updated at every placement/state mutation
/// instead of being rescanned from the VM records each interval. They
/// are bitsets over VM index: a move or state change is O(1), the
/// resident count is O(1), and iteration is ascending VM-index order, so
/// every consumer observes exactly the order a full scan produces —
/// byte-identical results are part of the contract, not an accident.
/// The residents' demand sum is the view's `host_demand`.
#[derive(Clone, Debug)]
pub(crate) struct Residency {
    /// The VMs resident on this host, by index into the VM vector.
    pub(crate) vms: Bitmap,
    /// The active residents — the subset of `vms` the attribution split
    /// visits, kept so that split never walks a host's (possibly
    /// hundreds of) idle residents to find the handful of active ones.
    pub(crate) active_vms: Bitmap,
    /// Total demand of `active_vms`, in bytes: the weight sum of the
    /// active-energy split.
    pub(crate) active_demand: u64,
}

impl Residency {
    /// An empty index over `vms` VM indices.
    fn new(vms: usize) -> Self {
        Residency { vms: Bitmap::new(vms), active_vms: Bitmap::new(vms), active_demand: 0 }
    }
}

/// One host's activation queues within the current interval.
#[derive(Clone, Copy, Debug, Default)]
struct QueueSlots {
    /// Reintegrations queued at this home host.
    reintegration: u32,
    /// Concurrent promote-in-place resumes on this consolidation host
    /// (resume storms share the destination NIC).
    promote: u32,
}

/// Borrow of the simulator's maintained residency indices, handed to
/// the planner so a round never rebuilds its host index from the VM
/// vector. The recount tests in `verify_indices` lock the borrowed data
/// to the [`oasis_core::ResidencyIndex`] contract.
struct ResidencyHandoff<'a> {
    residency: &'a [Residency],
    exchange_ready: &'a Bitmap,
}

impl oasis_core::ResidencyIndex for ResidencyHandoff<'_> {
    fn residents(&self, pos: usize) -> &Bitmap {
        &self.residency[pos].vms
    }

    fn full_idle_consolidated(&self) -> Option<&Bitmap> {
        Some(self.exchange_ready)
    }
}

/// The trace-driven cluster simulator.
pub struct ClusterSim {
    pub(crate) cfg: ClusterConfig,
    pub(crate) rng: SimRng,
    pub(crate) manager: ClusterManager,
    /// Per-host interval timelines, parallel to `view.hosts`.
    pub(crate) hosts: Vec<SimHost>,
    /// Per-VM simulation state the planner never reads, parallel to
    /// `view.vms`.
    pub(crate) vms: Vec<SimVm>,
    /// The rack's state as the manager plans over it: the one record of
    /// every host's role, power and capacity and every VM's placement,
    /// state and demand (with the per-host demand sums in
    /// `host_demand`). The mutation funnels below write it in place, so
    /// the manager is handed `&self.view` with no per-round rebuild.
    pub(crate) view: ClusterView,
    /// Per-host residency index, parallel to `view.hosts`.
    pub(crate) residency: Vec<Residency>,
    /// Per-host count of partial VMs homed there but located elsewhere
    /// (their memory server must stay powered while the host sleeps).
    pub(crate) home_partials: Vec<u32>,
    /// The sampled trace as per-interval session edges, with the trace's
    /// running active counts.
    session: SessionEdges,
    pub(crate) wss_dist: IdleWssDistribution,
    pub(crate) traffic: TrafficAccountant,
    pub(crate) delays: Cdf,
    pub(crate) ratio: Cdf,
    pub(crate) series_active: TimeSeries,
    pub(crate) series_powered: TimeSeries,
    pub(crate) total_joules: f64,
    pub(crate) baseline_joules: f64,
    pub(crate) counts: MigrationCounts,
    /// Per-host activation queue lengths within the interval, parallel
    /// to `hosts`.
    queues: Vec<QueueSlots>,
    /// Hosts with a nonzero queue slot; the next interval zeroes just
    /// these.
    queued_hosts: Vec<u32>,
    /// Cached `wol_packets_total` handle, fetched on the first wake so
    /// the counter registers exactly when an uncached fetch would.
    wol_packets: Option<Counter>,
    /// Per-host instant until which the vacate cooldown applies.
    pub(crate) cooldown_until: std::collections::BTreeMap<HostId, SimTime>,
    /// RNG for recovery backoff jitter. Seeded independently of the main
    /// stream (never forked from it) so that fault recovery draws cannot
    /// perturb trace sampling or placement — a zero-fault schedule leaves
    /// the run byte-identical.
    pub(crate) recovery_rng: SimRng,
    /// Homes whose memory server is currently crashed.
    pub(crate) ms_down: std::collections::BTreeSet<HostId>,
    /// Network latency multiplier for the current interval (1.0 = clean).
    pub(crate) link_factor: f64,
    pub(crate) fault_counts: FaultCounts,
    pub(crate) recovery_times: Cdf,
    pub(crate) energy_series: TimeSeries,
    /// Per-host integer-millijoule energy components, parallel to
    /// `hosts`. Accumulated alongside the `f64` total so the report can
    /// decompose energy without perturbing the existing accounting.
    pub(crate) host_energy: Vec<HostEnergy>,
    /// Per-VM millijoule share of the hosts' active components, parallel
    /// to `vms` (demand-weighted split per interval).
    pub(crate) vm_energy_mj: Vec<u64>,
    /// Per-host "mutated this interval" flags for the quiescence ledger,
    /// parallel to `hosts`; cleared at every interval boundary.
    pub(crate) dirty_hosts: Vec<bool>,
    /// Per-VM mutation stamps, parallel to `vms`: a VM was mutated this
    /// interval when its stamp equals `dirty_epoch`. Bumping the epoch
    /// clears every flag at once, so no interval walks the vector.
    pub(crate) dirty_vms: Vec<u32>,
    /// Stamp of the current interval in `dirty_vms`.
    dirty_epoch: u32,
    /// VMs stamped with `dirty_epoch`, so the per-interval quiescence
    /// tally never rescans the stamps.
    pub(crate) dirty_vm_count: usize,
    pub(crate) quiescence: QuiescenceLedger,
    pub(crate) decisions: DecisionCounts,
    pub(crate) telemetry: Telemetry,
    /// The growth frontier: the partial VMs whose demand is still below
    /// their epoch's `wss_cap`, in no particular order. The working-set
    /// growth phase walks only these; a VM joins or leaves at the
    /// demand, partial-flag and cap updates (`sync_frontier`). Every
    /// effect of the walk is an integer `ByteSize` sum or a per-VM write,
    /// so its order cannot change a byte.
    frontier: Vec<u32>,
    /// Position of each VM in `frontier`, or `u32::MAX` when absent,
    /// parallel to `vms`.
    frontier_pos: Vec<u32>,
    /// Reusable per-host scratch for the planner's serialized-work
    /// offsets, kept across intervals to avoid a fresh allocation per
    /// round. Always cleared on entry to `plan_and_execute`.
    busy_scratch: Vec<f64>,
    /// Reusable scratch for the planner's decision ids, copied out of
    /// the manager once per round.
    decision_scratch: Vec<u64>,
    /// Consolidation-host ids in id order; roles are fixed at
    /// construction, so the capacity-exhaustion sweep reuses this
    /// instead of re-filtering (and re-allocating) every interval.
    cons_hosts: Vec<HostId>,
    /// The full (non-partial) idle VMs currently located on
    /// consolidation hosts, as a bitset over VM index — the candidate
    /// superset of the planner's exchange pass. Maintained at the
    /// location/partial/state funnels; handing the planner this set
    /// (instead of the VM vector it used to filter) turns the
    /// every-round exchange sweep into a walk of only the VMs that can
    /// match.
    exchange_ready: Bitmap,
}

/// Per-class volumes the interval loop would otherwise recompute for
/// every VM it touches. Each is evaluated once, from the exact
/// expression it replaces, so every byte is unchanged.
#[derive(Clone, Copy, Debug)]
struct ClassConsts {
    /// Working-set growth per interval:
    /// `from_mib_f64(growth_per_min × INTERVAL_SECS / 60)`.
    growth: ByteSize,
    /// Demand-fetch volume of one full `growth` step:
    /// `growth.mul_f64(COMPRESS_RATIO)`.
    growth_fetch: ByteSize,
    /// Growth over a consolidation epoch, added to the sampled working
    /// set to cap it: `from_mib_f64(growth_per_min × WSS_GROWTH_WINDOW)`.
    growth_cap: ByteSize,
    /// Memory-server upload volume of a first consolidation
    /// (`FIRST_UPLOAD`) and of a later one (`DIFF_UPLOAD`), scaled by
    /// `upload_scale`.
    first_upload: ByteSize,
    diff_upload: ByteSize,
}

impl ClassConsts {
    /// The constants of `class`, computed once per process.
    fn of(class: WorkloadClass) -> &'static ClassConsts {
        static ALL: std::sync::LazyLock<[ClassConsts; 4]> =
            std::sync::LazyLock::new(|| WorkloadClass::ALL.map(ClassConsts::new));
        &ALL[class_idx(class)]
    }

    fn new(class: WorkloadClass) -> Self {
        let per_min = class.idle_model().growth_per_min.as_mib_f64();
        let growth = ByteSize::from_mib_f64(per_min * INTERVAL_SECS / 60.0);
        ClassConsts {
            growth,
            growth_fetch: growth.mul_f64(COMPRESS_RATIO),
            growth_cap: ByteSize::from_mib_f64(per_min * WSS_GROWTH_WINDOW.as_secs_f64() / 60.0),
            first_upload: FIRST_UPLOAD.mul_f64(upload_scale(class)),
            diff_upload: DIFF_UPLOAD.mul_f64(upload_scale(class)),
        }
    }
}

/// Flash-crowd membership: a splitmix64-style hash of `(seed, vm)`
/// mapped onto `[0, 1)` and compared against the participation
/// fraction. A pure function of its arguments — no RNG stream is
/// consumed, so runs with and without a spike share every draw.
fn spike_member(seed: u64, vm: usize, participation: f64) -> bool {
    if participation >= 1.0 {
        return true;
    }
    if participation <= 0.0 {
        return false;
    }
    let mut z = seed ^ (vm as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 53) as f64) < participation
}

/// Position of `class` in [`WorkloadClass::ALL`].
fn class_idx(class: WorkloadClass) -> usize {
    match class {
        WorkloadClass::Desktop => 0,
        WorkloadClass::WebServer => 1,
        WorkloadClass::Database => 2,
        WorkloadClass::ClusterNode => 3,
    }
}

/// Samples one user-day per VM from `rng` (the simulator's main
/// stream), then applies the configured rotation and spike.
fn sample_days(cfg: &ClusterConfig, rng: &mut SimRng) -> Vec<UserDay> {
    // Sample `total_vms` user-days of the requested kind, either from
    // the supplied trace library or from a synthesized corpus
    // comparable to §5.1's. The synthetic corpus is a pure function
    // of its seed, so it comes from the process-wide memoizing cache:
    // sweeps re-running the same seed stop re-deriving it.
    let library = match &cfg.trace {
        Some(set) => std::sync::Arc::new(set.clone()),
        None => {
            oasis_trace::shared_library(22, 17, cfg.trace_seed.unwrap_or(cfg.seed) ^ 0x712A_CE5E)
        }
    };
    let mut users = sample_user_days(&library, cfg.day, cfg.total_vms() as usize, rng);
    if users.is_empty() {
        // A trace without days of this kind still yields a valid (all
        // idle) simulation rather than a panic.
        users = vec![UserDay::all_idle(cfg.day); cfg.total_vms() as usize];
    }
    if cfg.trace_rotation != 0 {
        // Timezone stagger: shift every sampled day later in the day
        // (wrapping) so racks in different zones quiesce at different
        // simulated hours.
        for day in &mut users {
            day.rotate(cfg.trace_rotation as usize);
        }
    }
    if let Some(spike) = cfg.spike {
        // Flash crowd: force the caught users active over the spike
        // window, after rotation so the window is in absolute
        // datacenter time. Membership comes from a pure hash of
        // (seed, vm index) — the RNG stream is not consumed, so a
        // `spike: None` run stays byte-identical to one without the
        // spike plumbing.
        for (v, day) in users.iter_mut().enumerate() {
            if spike_member(cfg.seed, v, spike.participation) {
                day.spike(spike.start_interval as usize, spike.duration_intervals as usize);
            }
        }
    }
    users
}

/// The simulator's main RNG stream for `seed`.
fn main_stream(seed: u64) -> SimRng {
    SimRng::new(seed ^ 0xC1u64.wrapping_mul(0x9E37_79B9))
}

impl ClusterSim {
    /// Builds the simulated rack and samples one user-day per VM.
    pub fn new(cfg: ClusterConfig) -> Self {
        let mut rng = main_stream(cfg.seed);
        let session = SessionEdges::new(&sample_days(&cfg, &mut rng), cfg.vms_per_host);

        let capacity = cfg.effective_capacity();
        let hosts: Vec<HostView> = (0..cfg.home_hosts + cfg.consolidation_hosts)
            .map(|h| {
                let compute = h < cfg.home_hosts;
                HostView {
                    id: HostId(h),
                    role: if compute { HostRole::Compute } else { HostRole::Consolidation },
                    // Consolidation hosts sleep until a plan needs them.
                    powered: compute,
                    vacatable: true,
                    capacity,
                }
            })
            .collect();

        let wss_dist = IdleWssDistribution::jettison();
        let total_weight: f64 = cfg.workload_mix.iter().map(|&(_, w)| w.max(0.0)).sum();
        let mut vm_views = Vec::new();
        let mut vms = Vec::new();
        for v in 0..cfg.total_vms() {
            let home = HostId(v / cfg.vms_per_host);
            // Draw the VM's workload class from the configured mix.
            let mut pick = rng.next_f64() * total_weight;
            let mut class = cfg.workload_mix[0].0;
            for &(c, w) in &cfg.workload_mix {
                if w <= 0.0 {
                    continue;
                }
                class = c;
                pick -= w;
                if pick <= 0.0 {
                    break;
                }
            }
            let estimate = sample_class_wss(class, &wss_dist, cfg.vm_allocation, &mut rng);
            vm_views.push(VmView {
                id: VmId(v),
                home,
                location: home,
                state: VmState::Idle,
                allocation: cfg.vm_allocation,
                demand: cfg.vm_allocation,
                partial_demand: estimate,
                partial: false,
            });
            vms.push(SimVm {
                class,
                wss_estimate: estimate,
                wss_cap: estimate,
                consolidated_since: None,
                uploaded_once: false,
            });
        }
        let mut view = ClusterView { hosts, vms: vm_views, host_demand: Vec::new() };
        view.rebuild_host_demand();

        let manager = ClusterManager::new(
            ManagerConfig {
                policy: cfg.policy,
                interval: cfg.interval,
                planner: oasis_core::placement::PlannerConfig {
                    strategy: cfg.placement,
                    // The paper's objective is host-count minimization
                    // (§3.1); weighting both sides with the same idle draw
                    // makes the net check equivalent to "strictly fewer
                    // powered hosts". Heterogeneous fleets keep the
                    // reference generation's weight here (the planner
                    // still minimizes host count); the energy accounting
                    // below charges each host its own generation profile.
                    home_sleep_saving_watts: cfg.host_profile.idle_watts,
                    consolidation_power_watts: cfg.host_profile.idle_watts,
                    promotion_headroom: oasis_mem::ByteSize::gib(8),
                },
            },
            cfg.seed,
        );

        let hosts = vec![SimHost::default(); view.hosts.len()];
        let mut residency = vec![Residency::new(vms.len()); hosts.len()];
        for (vi, vm) in view.vms.iter().enumerate() {
            residency[vm.location.0 as usize].vms.set(vi);
        }
        let home_partials = vec![0; hosts.len()];
        let queues = vec![QueueSlots::default(); hosts.len()];

        let recovery_rng = SimRng::new(cfg.seed ^ 0xFA17_5EED);
        let host_energy = view
            .hosts
            .iter()
            .map(|h| HostEnergy { host: h.id.0, ..HostEnergy::default() })
            .collect::<Vec<_>>();
        let vm_energy_mj = vec![0u64; vms.len()];
        let dirty_hosts = vec![false; hosts.len()];
        let dirty_vms = vec![0; vms.len()];
        let frontier_pos = vec![u32::MAX; vms.len()];
        let exchange_ready = Bitmap::new(vms.len());
        let cons_hosts: Vec<HostId> = view.consolidation_hosts().map(|h| h.id).collect();
        ClusterSim {
            cfg,
            rng,
            manager,
            hosts,
            vms,
            view,
            residency,
            home_partials,
            session,
            wss_dist,
            traffic: TrafficAccountant::new(),
            delays: Cdf::new(),
            ratio: Cdf::new(),
            series_active: TimeSeries::new(),
            series_powered: TimeSeries::new(),
            total_joules: 0.0,
            baseline_joules: 0.0,
            counts: MigrationCounts::default(),
            queues,
            queued_hosts: Vec::new(),
            wol_packets: None,
            cooldown_until: std::collections::BTreeMap::new(),
            recovery_rng,
            ms_down: std::collections::BTreeSet::new(),
            link_factor: 1.0,
            fault_counts: FaultCounts::default(),
            recovery_times: Cdf::new(),
            energy_series: TimeSeries::new(),
            host_energy,
            vm_energy_mj,
            dirty_hosts,
            dirty_vms,
            dirty_epoch: 1,
            dirty_vm_count: 0,
            quiescence: QuiescenceLedger::default(),
            decisions: DecisionCounts::default(),
            telemetry: Telemetry::disabled(),
            frontier: Vec::new(),
            frontier_pos,
            busy_scratch: Vec::new(),
            decision_scratch: Vec::new(),
            cons_hosts,
            exchange_ready,
        }
    }

    /// Routes the simulator's (and its manager's) events, counters and
    /// profile scopes through `telemetry`. Telemetry never touches the RNG, so
    /// attaching it leaves simulation results bit-identical.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.manager.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        // The cached handle points into the previous registry.
        self.wol_packets = None;
    }

    fn host_index(&self, id: HostId) -> usize {
        id.0 as usize
    }

    /// Switches a host's power state, mirroring real transitions onto the
    /// event bus (redundant calls stay silent, like `set_power`).
    fn set_host_power(&mut self, idx: usize, offset_secs: f64, on: bool) {
        let powered = &mut self.view.hosts[idx].powered;
        if *powered == on {
            return;
        }
        self.hosts[idx].set_power(*powered, offset_secs, on);
        *powered = on;
        self.dirty_hosts[idx] = true;
        let host = self.view.hosts[idx].id.0;
        self.telemetry.emit(if on {
            Event::HostResumed { host }
        } else {
            Event::HostSuspended { host }
        });
    }

    /// Stretches a latency by the interval's link factor. Gated on the
    /// clean case: a ×1.0 multiply is not guaranteed bit-exact through
    /// the `f64` round-trip, and a fault-free run must stay byte-identical.
    fn stretch_secs(&self, secs: f64) -> f64 {
        if self.link_factor == 1.0 {
            secs
        } else {
            secs * self.link_factor
        }
    }

    /// [`Self::stretch_secs`] for durations.
    fn stretch(&self, d: SimDuration) -> SimDuration {
        if self.link_factor == 1.0 {
            d
        } else {
            d.mul_f64(self.link_factor)
        }
    }

    /// Attempts to power on a host, honouring the fault schedule.
    ///
    /// Returns `Ok(extra_secs)` with the injected wake latency (0.0 on a
    /// clean wake or an already-powered host), or `Err(waited_secs)` when
    /// the host sits in a wake-failure window that outlasted the
    /// retry/backoff recovery — the host stays asleep and the caller must
    /// degrade gracefully.
    ///
    /// `decision` is the audit-trail id of the decision this wake serves;
    /// it is threaded into any recovery events the wake produces.
    fn try_wake(
        &mut self,
        idx: usize,
        offset_secs: f64,
        now: SimTime,
        decision: u64,
    ) -> Result<f64, f64> {
        if self.view.hosts[idx].powered {
            return Ok(0.0);
        }
        let host = self.view.hosts[idx].id.0;
        if let Some(fault) = self.cfg.faults.wake_failure(host, now).copied() {
            return match self.wake_recovery(host, fault, now, decision) {
                Ok(waited) => {
                    // A retry landed after the window cleared: the host
                    // comes up late.
                    self.set_host_power(idx, offset_secs + waited, true);
                    Ok(waited)
                }
                Err(waited) => Err(waited),
            };
        }
        let extra = self.cfg.faults.wake_delay_secs(host, now);
        if extra > 0.0 {
            self.fault_counts.wake_delays += 1;
        }
        self.set_host_power(idx, offset_secs + extra, true);
        Ok(extra)
    }

    /// Runs the bounded-backoff recovery loop against an active
    /// wake-failure window. An attempt succeeds once the cumulative
    /// backoff carries it past the window's end; a sequence that exhausts
    /// its budget inside the window is abandoned. Returns the seconds
    /// spent waiting either way.
    fn wake_recovery(
        &mut self,
        host: u32,
        fault: Fault,
        now: SimTime,
        decision: u64,
    ) -> Result<f64, f64> {
        self.fault_counts.wake_failures += 1;
        let policy = RetryPolicy::recovery();
        let telemetry = self.telemetry.clone();
        let window_end = fault.end();
        let outcome = with_retries(&policy, &mut self.recovery_rng, |attempt, waited| {
            if now + waited >= window_end {
                return true;
            }
            telemetry.emit(Event::WakeFailed { host, attempt });
            false
        });
        self.fault_counts.wake_retries += u64::from(outcome.attempts.saturating_sub(1));
        let waited = outcome.waited.as_secs_f64();
        if outcome.completed {
            self.fault_counts.recoveries += 1;
            self.recovery_times.record(waited);
            self.telemetry.emit(Event::RecoveryApplied {
                action: RecoveryKind::RetryWake,
                target: host,
                decision,
            });
            Ok(waited)
        } else {
            self.fault_counts.wake_exhausted += 1;
            self.telemetry.emit(Event::WakeAbandoned { host, attempts: outcome.attempts });
            Err(waited)
        }
    }

    /// Promotes a partial VM to a full VM in place on its current host —
    /// the graceful degradation when its home cannot be woken. Costs a
    /// demand-fetch of the missing pages; the VM stops depending on its
    /// home's memory server.
    fn fallback_promote(&mut self, vi: usize) {
        if !self.view.vms[vi].partial {
            return;
        }
        self.promote_in_place(vi);
        let target = self.view.vms[vi].id.0;
        self.counts.promotions += 1;
        self.fault_counts.fallback_promotions += 1;
        self.fault_counts.recoveries += 1;
        self.decisions.fallback_promote += 1;
        let decision = self.telemetry.next_decision_id();
        self.telemetry.emit(Event::DecisionMade {
            decision,
            class: DecisionClass::FallbackPromote,
            vm: target,
            target: self.view.vms[vi].location.0,
            candidates: 1,
        });
        self.telemetry.emit(Event::RecoveryApplied {
            action: RecoveryKind::FallbackPromote,
            target,
            decision,
        });
    }

    /// Moves a VM off an exhausted host by full migration when waking its
    /// home failed. Prefers an already powered host with headroom, then a
    /// wakeable sleeping one; picks the lowest id for determinism.
    /// Returns `false` when no host qualifies — the source rides out the
    /// fault window over-committed.
    fn relocate_to_fallback(&mut self, vi: usize, now: SimTime) -> bool {
        let src = self.view.vms[vi].location;
        let need = self.view.vms[vi].allocation;
        // One deterministic pass over the residency index: the first
        // powered host with headroom wins outright; the first wakeable
        // sleeper is remembered as the fallback. Identical selection to
        // the old two-pass scan (lowest-id powered, then lowest-id
        // wakeable) at half the host walks, with O(1) demand lookups.
        let mut sleeper = None;
        let mut dest = None;
        let mut examined = 0u32;
        for h in &self.view.hosts {
            examined += 1;
            if h.id == src || self.demand_on(h.id) + need > h.capacity {
                continue;
            }
            if h.powered {
                dest = Some(h.id);
                break;
            }
            if sleeper.is_none() && self.cfg.faults.wake_failure(h.id.0, now).is_none() {
                sleeper = Some(h.id);
            }
        }
        let Some(dest) = dest.or(sleeper) else { return false };
        self.decisions.shed += 1;
        let decision = self.telemetry.next_decision_id();
        self.telemetry.emit(Event::DecisionMade {
            decision,
            class: DecisionClass::Shed,
            vm: self.view.vms[vi].id.0,
            target: dest.0,
            candidates: examined,
        });
        let di = self.host_index(dest);
        if self.try_wake(di, 0.0, now, decision).is_err() {
            return false;
        }
        let moved = self.view.vms[vi].allocation.mul_f64(1.15);
        self.traffic.record(TrafficClass::FullMigration, moved);
        self.telemetry.emit(Event::MigrationCompleted {
            vm: self.view.vms[vi].id.0,
            from: src.0,
            to: dest.0,
            kind: MigrationKind::Full,
            moved_bytes: moved.as_bytes(),
            downtime_us: self.stretch(self.cfg.full_migration_time).as_micros(),
            decision,
        });
        self.move_vm_to(vi, dest);
        self.make_full(vi);
        let target = self.view.vms[vi].id.0;
        self.counts.full += 1;
        self.fault_counts.fallback_promotions += 1;
        self.fault_counts.recoveries += 1;
        self.telemetry.emit(Event::RecoveryApplied {
            action: RecoveryKind::FallbackPromote,
            target,
            decision,
        });
        true
    }

    /// Re-homes every partial VM whose memory server just crashed: the
    /// missing pages are demand-fetched in bulk (the image survives on the
    /// server's drive) and the replica becomes a full VM, so nothing
    /// depends on the dead daemon. Maintains the invariant that no
    /// partial VM is ever homed at a host whose memory server is down.
    fn recover_orphans(&mut self, home: HostId) {
        // Promoting a VM moves nothing and changes no other VM, so the
        // walk meets exactly the replicas a scan up front would list.
        for vi in self.homed_at(home) {
            let vm = &self.view.vms[vi];
            if !vm.partial || vm.location == home {
                continue;
            }
            self.promote_in_place(vi);
            let target = self.view.vms[vi].id.0;
            self.fault_counts.rehomed_vms += 1;
            self.fault_counts.recoveries += 1;
            self.decisions.fallback_promote += 1;
            let decision = self.telemetry.next_decision_id();
            self.telemetry.emit(Event::DecisionMade {
                decision,
                class: DecisionClass::FallbackPromote,
                vm: target,
                target: self.view.vms[vi].location.0,
                candidates: 1,
            });
            self.telemetry.emit(Event::RecoveryApplied {
                action: RecoveryKind::Rehome,
                target,
                decision,
            });
        }
    }

    /// Handles a migration caught by an active stall window: retries with
    /// backoff until an attempt lands past the window, else cancels the
    /// migration (the planner re-plans next round). Returns the seconds
    /// the transfer was held up, or `None` when it was aborted.
    fn stall_recovery(
        &mut self,
        vm: u32,
        from: u32,
        to: u32,
        fault: Fault,
        now: SimTime,
        decision: u64,
    ) -> Option<f64> {
        self.fault_counts.migration_stalls += 1;
        self.telemetry.emit(Event::MigrationStalled { vm, from, to, decision });
        // The retry-vs-abort choice is a decision of its own; the
        // recovery events reference it, while the migration lifecycle
        // events keep the planner's id.
        self.decisions.stall += 1;
        let recovery = self.telemetry.next_decision_id();
        self.telemetry.emit(Event::DecisionMade {
            decision: recovery,
            class: DecisionClass::Stall,
            vm,
            target: to,
            candidates: 0,
        });
        let policy = RetryPolicy::recovery();
        let window_end = fault.end();
        let outcome =
            with_retries(&policy, &mut self.recovery_rng, |_, waited| now + waited >= window_end);
        self.fault_counts.migration_retries += u64::from(outcome.attempts.saturating_sub(1));
        self.fault_counts.recoveries += 1;
        if outcome.completed {
            let waited = outcome.waited.as_secs_f64();
            self.recovery_times.record(waited);
            self.telemetry.emit(Event::RecoveryApplied {
                action: RecoveryKind::RetryMigration,
                target: vm,
                decision: recovery,
            });
            Some(waited)
        } else {
            self.fault_counts.migrations_aborted += 1;
            self.telemetry.emit(Event::MigrationAborted {
                vm,
                from,
                to,
                attempts: outcome.attempts,
                decision,
            });
            self.telemetry.emit(Event::RecoveryApplied {
                action: RecoveryKind::AbortMigration,
                target: vm,
                decision: recovery,
            });
            None
        }
    }

    /// Applies the fault schedule at an interval boundary: announces the
    /// interval's fault onsets, edge-detects memory-server crash windows
    /// (recovering orphaned partial replicas at crash onset), and samples
    /// the link-degradation factor the whole interval runs under.
    fn apply_faults(&mut self, now: SimTime) {
        if self.cfg.faults.is_empty() {
            return;
        }
        let interval_end = now + SimDuration::from_secs_f64(INTERVAL_SECS);
        let onsets: Vec<Fault> =
            self.cfg.faults.onsets_between(now, interval_end).copied().collect();
        for fault in onsets {
            self.fault_counts.injected += 1;
            self.telemetry.emit(Event::FaultInjected {
                fault: fault.kind,
                host: fault.host.unwrap_or(CLUSTER_WIDE),
            });
        }
        for h in 0..self.cfg.home_hosts {
            let home = HostId(h);
            let down = self.cfg.faults.memserver_down(h, now).is_some();
            let was_down = self.ms_down.contains(&home);
            if down && !was_down {
                self.ms_down.insert(home);
                self.fault_counts.memserver_crashes += 1;
                self.telemetry.emit(Event::MemServerCrashed { host: h });
                self.recover_orphans(home);
            } else if !down && was_down {
                self.ms_down.remove(&home);
                self.telemetry.emit(Event::MemServerRestarted { host: h });
            }
        }
        self.link_factor = self.cfg.faults.link_factor(now);
        if self.link_factor != 1.0 {
            self.fault_counts.link_degradations += 1;
        }
    }

    /// Applies the patch-window reboot schedule at an interval boundary.
    ///
    /// Every host whose scheduled cold restart starts in this interval
    /// goes down at its in-interval offset and comes back `downtime`
    /// later (clamped to the interval end, so the outage's energy and
    /// availability cost are charged in the interval the onset lands
    /// in). A powered host is charged the suspend/resume transition
    /// pair and loses the downtime from its awake seconds; a sleeping
    /// host boots, restarts and goes straight back to sleep (one
    /// wake-work-sleep episode). Active residents of a powered host see
    /// the downtime as transition delay, so patch windows show up in
    /// the SLA CDF. Memory-server state survives the restart (§4.2's
    /// servers are independent daemons), so partial replicas need no
    /// recovery. Reboots are applied in the schedule's canonical
    /// `(start, host)` order.
    fn apply_reboots(&mut self, now: SimTime) {
        if self.cfg.reboots.is_empty() {
            return;
        }
        let interval_end = now + SimDuration::from_secs_f64(INTERVAL_SECS);
        let due: Vec<Reboot> =
            self.cfg.reboots.onsets_between(now, interval_end).copied().collect();
        for r in due {
            let idx = r.host as usize;
            if idx >= self.hosts.len() {
                continue;
            }
            let offset = (r.start.as_secs_f64() - now.as_secs_f64()).clamp(0.0, INTERVAL_SECS);
            let downtime = r.downtime.as_secs_f64().min(INTERVAL_SECS - offset).max(0.0);
            self.counts.reboots += 1;
            if self.view.hosts[idx].powered {
                for _ in 0..self.residency[idx].active_vms.count_ones() {
                    self.delays.record(downtime);
                }
                self.set_host_power(idx, offset, false);
                self.set_host_power(idx, offset + downtime, true);
            } else {
                // Asleep: boot, patch, and go straight back to sleep.
                self.hosts[idx].temporary_episode(downtime);
                self.dirty_hosts[idx] = true;
                self.telemetry.emit(Event::HostResumed { host: r.host });
                self.telemetry.emit(Event::HostSuspended { host: r.host });
            }
        }
    }

    /// Moves a VM to `dest`, carrying its demand/active contributions
    /// between the residency indices. Every location change funnels
    /// through here (and the sibling setters below) so the indices can
    /// never drift from the view.
    fn move_vm_to(&mut self, vi: usize, dest: HostId) {
        let VmView { location: src, demand, state, partial, home, .. } = self.view.vms[vi];
        if src == dest {
            return;
        }
        let (s, d) = (src.0 as usize, dest.0 as usize);
        let active = state.is_active();
        self.mark_vm_dirty(vi);
        self.dirty_hosts[s] = true;
        self.dirty_hosts[d] = true;
        // A full idle VM crossing the compute/consolidation boundary
        // enters or leaves the exchange pass's candidate set.
        if !partial && !active {
            let src_cons = self.view.hosts[s].role == HostRole::Consolidation;
            let dest_cons = self.view.hosts[d].role == HostRole::Consolidation;
            if dest_cons && !src_cons {
                self.exchange_ready_insert(vi);
            } else if src_cons && !dest_cons {
                self.exchange_ready_remove(vi);
            }
        }
        let r = &mut self.residency[s];
        let left = r.vms.clear(vi);
        debug_assert!(left, "vm {vi} missing from source index");
        if active {
            let left = r.active_vms.clear(vi);
            debug_assert!(left, "vm {vi} missing from active index");
        }
        let r = &mut self.residency[d];
        let arrived = r.vms.set(vi);
        debug_assert!(arrived, "vm {vi} already in destination index");
        if active {
            let arrived = r.active_vms.set(vi);
            debug_assert!(arrived, "vm {vi} already in active index");
        }
        self.view.host_demand[s] -= demand;
        self.view.host_demand[d] += demand;
        if active {
            self.residency[s].active_demand -= demand.as_bytes();
            self.residency[d].active_demand += demand.as_bytes();
        }
        if partial {
            // A partial replica's home serves it only while it lives
            // elsewhere; track entering/leaving the home host.
            if src == home {
                self.home_partials[home.0 as usize] += 1;
            } else if dest == home {
                self.home_partials[home.0 as usize] -= 1;
            }
        }
        self.view.vms[vi].location = dest;
    }

    /// Sets a VM's demand, keeping its host's demand sum current.
    fn set_vm_demand(&mut self, vi: usize, demand: ByteSize) {
        let old = self.view.vms[vi].demand;
        if old != demand {
            self.mark_vm_dirty(vi);
        }
        let vv = &mut self.view.vms[vi];
        vv.demand = demand;
        if vv.partial {
            vv.partial_demand = demand;
        }
        let host = vv.location.0 as usize;
        let sum = &mut self.view.host_demand[host];
        *sum = (*sum + demand) - old;
        if vv.state.is_active() {
            let sum = &mut self.residency[host].active_demand;
            *sum = (*sum + demand.as_bytes()) - old.as_bytes();
        }
        self.sync_frontier(vi);
    }

    /// Puts `vi` on the growth frontier exactly when it is partial with
    /// demand below its `wss_cap`; called wherever one of those changes.
    fn sync_frontier(&mut self, vi: usize) {
        let vm = &self.view.vms[vi];
        let grows = vm.partial && vm.demand < self.vms[vi].wss_cap;
        let pos = self.frontier_pos[vi];
        if grows && pos == u32::MAX {
            self.frontier_pos[vi] = self.frontier.len() as u32;
            self.frontier.push(vi as u32);
        } else if !grows && pos != u32::MAX {
            self.frontier.swap_remove(pos as usize);
            if let Some(&moved) = self.frontier.get(pos as usize) {
                self.frontier_pos[moved as usize] = pos;
            }
            self.frontier_pos[vi] = u32::MAX;
        }
    }

    /// Sets a VM's partial flag, keeping the served-partials count of its
    /// home current.
    fn set_vm_partial(&mut self, vi: usize, partial: bool) {
        let VmView { location, home, state, demand, partial: was, .. } = self.view.vms[vi];
        if was == partial {
            return;
        }
        self.mark_vm_dirty(vi);
        // An idle VM on a consolidation host swaps between "full idle"
        // (exchange candidate) and partial as the flag flips.
        if !state.is_active()
            && self.view.hosts[location.0 as usize].role == HostRole::Consolidation
        {
            if partial {
                self.exchange_ready_remove(vi);
            } else {
                self.exchange_ready_insert(vi);
            }
        }
        if location != home {
            let slot = &mut self.home_partials[home.0 as usize];
            if partial {
                *slot += 1;
            } else {
                *slot -= 1;
            }
        }
        let vv = &mut self.view.vms[vi];
        vv.partial = partial;
        vv.partial_demand = if partial { demand } else { self.vms[vi].wss_estimate };
        self.sync_frontier(vi);
    }

    /// Sets a VM's activity state, keeping its host's active residents
    /// current.
    fn set_vm_state(&mut self, vi: usize, state: VmState) {
        let VmView { location, partial, state: old, demand, .. } = self.view.vms[vi];
        if old != state {
            self.mark_vm_dirty(vi);
        }
        if old.is_active() != state.is_active() {
            let host = location.0 as usize;
            // A full VM on a consolidation host joins the exchange
            // candidate set when it idles and leaves it on activation.
            if !partial && self.view.hosts[host].role == HostRole::Consolidation {
                if state.is_active() {
                    self.exchange_ready_remove(vi);
                } else {
                    self.exchange_ready_insert(vi);
                }
            }
            let active = &mut self.residency[host].active_vms;
            let changed = if state.is_active() { active.set(vi) } else { active.clear(vi) };
            debug_assert!(changed, "active index out of step with vm {vi}");
            let sum = &mut self.residency[host].active_demand;
            if state.is_active() {
                *sum += demand.as_bytes();
            } else {
                *sum -= demand.as_bytes();
            }
        }
        self.view.vms[vi].state = state;
    }

    /// Turns a VM full on its current host: its demand becomes its whole
    /// allocation and its consolidation epoch ends (only partial VMs
    /// read the epoch start). Callers that moved the VM by full
    /// migration have already carried its pages.
    fn make_full(&mut self, vi: usize) {
        self.set_vm_partial(vi, false);
        self.set_vm_demand(vi, self.view.vms[vi].allocation);
        self.vms[vi].consolidated_since = None;
    }

    /// Promotes a VM to full without moving it: the pages it lacks are
    /// demand-fetched from its home's memory server, then
    /// [`Self::make_full`].
    fn promote_in_place(&mut self, vi: usize) {
        let vm = &self.view.vms[vi];
        let remaining = vm.allocation - vm.demand;
        self.traffic.record(TrafficClass::DemandFetch, remaining.mul_f64(COMPRESS_RATIO));
        self.make_full(vi);
    }

    /// Consolidates a VM onto `dest` as a partial replica (a no-op move
    /// when it is already there): uploads its image to its home's memory
    /// server — differential after the first upload — and starts a new
    /// consolidation epoch with a freshly sampled working set. Returns
    /// the upload volume.
    fn consolidate_partial(&mut self, vi: usize, dest: HostId, now: SimTime) -> ByteSize {
        let class = self.vms[vi].class;
        let consts = ClassConsts::of(class);
        let upload =
            if self.vms[vi].uploaded_once { consts.diff_upload } else { consts.first_upload };
        let growth_cap = consts.growth_cap;
        self.traffic.record(TrafficClass::MemServerUpload, upload);
        self.traffic
            .record(TrafficClass::PartialDescriptor, oasis_migration::partial::DESCRIPTOR_BYTES);
        let allocation = self.view.vms[vi].allocation;
        let wss = sample_class_wss(class, &self.wss_dist, allocation, &mut self.rng);
        // The epoch's cap is set before the funnels run: they place the
        // VM on the growth frontier against it.
        let vm = &mut self.vms[vi];
        vm.wss_cap = wss + growth_cap;
        vm.consolidated_since = Some(now);
        vm.uploaded_once = true;
        self.move_vm_to(vi, dest);
        self.set_vm_partial(vi, true);
        self.set_vm_demand(vi, wss);
        upload
    }

    /// Adds `vi` to the exchange-candidate set.
    fn exchange_ready_insert(&mut self, vi: usize) {
        let added = self.exchange_ready.set(vi);
        debug_assert!(added, "vm {vi} already an exchange candidate");
    }

    /// Removes `vi` from the exchange-candidate set.
    fn exchange_ready_remove(&mut self, vi: usize) {
        let removed = self.exchange_ready.clear(vi);
        debug_assert!(removed, "vm {vi} missing from exchange candidates");
    }

    /// Stamps a VM as mutated this interval, keeping the count current.
    fn mark_vm_dirty(&mut self, vi: usize) {
        if self.dirty_vms[vi] != self.dirty_epoch {
            self.dirty_vms[vi] = self.dirty_epoch;
            self.dirty_vm_count += 1;
        }
    }

    /// Indices of the VMs homed at `home`: `new` gives each home host one
    /// contiguous block of `vms_per_host` VMs, and homes never change, so
    /// no index of away-from-home VMs has to be kept at every move.
    fn homed_at(&self, home: HostId) -> core::ops::Range<usize> {
        let per_host = self.cfg.vms_per_host as usize;
        let lo = (home.0 as usize * per_host).min(self.view.vms.len());
        lo..(lo + per_host).min(self.view.vms.len())
    }

    /// The VMs resident on `host`, in ascending VM-index order — an
    /// index lookup, not a scan of the VM vector.
    fn vms_on(&self, host: HostId) -> impl Iterator<Item = usize> + '_ {
        self.residency[host.0 as usize].vms.iter_ones()
    }

    /// Total memory demand resident on `host` (cached sum).
    fn demand_on(&self, host: HostId) -> ByteSize {
        self.view.host_demand[host.0 as usize]
    }

    /// Number of active VMs resident on `host`.
    fn active_on(&self, host: HostId) -> usize {
        self.residency[host.0 as usize].active_vms.count_ones()
    }

    /// Compares every incrementally maintained index, and the view's
    /// per-host demand sums, against a from-scratch recount of the VM
    /// records. Test-only: the production path never rescans — that is
    /// the point of the indices.
    #[cfg(test)]
    fn verify_indices(&self) -> Result<(), String> {
        let vms = &self.view.vms;
        fn ones(set: &Bitmap) -> Result<Vec<usize>, String> {
            let ones: Vec<usize> = set.iter_ones().collect();
            if ones.len() != set.count_ones() {
                return Err(format!(
                    "bitset count {} != {} set bits",
                    set.count_ones(),
                    ones.len()
                ));
            }
            Ok(ones)
        }
        for (h, r) in self.residency.iter().enumerate() {
            let host = self.view.hosts[h].id;
            let residents: Vec<usize> =
                (0..vms.len()).filter(|&i| vms[i].location == host).collect();
            let cached = ones(&r.vms)?;
            if cached != residents {
                return Err(format!("host {h}: residents {cached:?} != recount {residents:?}"));
            }
            let demand: ByteSize = residents.iter().map(|&i| vms[i].demand).sum();
            if self.view.host_demand[h] != demand {
                return Err(format!(
                    "host {h}: cached demand {} != recount {demand}",
                    self.view.host_demand[h]
                ));
            }
            let active: Vec<usize> =
                residents.iter().copied().filter(|&i| vms[i].state.is_active()).collect();
            let cached = ones(&r.active_vms)?;
            if cached != active {
                return Err(format!("host {h}: cached active {cached:?} != recount {active:?}"));
            }
            let active_demand: u64 = active.iter().map(|&i| vms[i].demand.as_bytes()).sum();
            if r.active_demand != active_demand {
                return Err(format!(
                    "host {h}: cached active demand {} != recount {active_demand}",
                    r.active_demand
                ));
            }
            let partials =
                vms.iter().filter(|v| v.home == host && v.partial && v.location != host).count()
                    as u32;
            if self.home_partials[h] != partials {
                return Err(format!(
                    "host {h}: served partials {} != recount {partials}",
                    self.home_partials[h]
                ));
            }
        }
        for (vi, vm) in vms.iter().enumerate() {
            if !self.homed_at(vm.home).contains(&vi) {
                return Err(format!("vm {vi}: outside the VM block of its home {:?}", vm.home));
            }
        }
        let ready: Vec<usize> = (0..vms.len())
            .filter(|&i| {
                !vms[i].partial
                    && !vms[i].state.is_active()
                    && self.view.hosts[vms[i].location.0 as usize].role == HostRole::Consolidation
            })
            .collect();
        let cached = ones(&self.exchange_ready)?;
        if cached != ready {
            return Err(format!("exchange_ready {cached:?} != recount {ready:?}"));
        }
        let growing: Vec<usize> = (0..vms.len())
            .filter(|&i| vms[i].partial && vms[i].demand < self.vms[i].wss_cap)
            .collect();
        let mut cached: Vec<usize> = self.frontier.iter().map(|&vi| vi as usize).collect();
        cached.sort_unstable();
        if cached != growing {
            return Err(format!("growth frontier {cached:?} != recount {growing:?}"));
        }
        for (vi, &pos) in self.frontier_pos.iter().enumerate() {
            let listed = self.frontier.get(pos as usize) == Some(&(vi as u32));
            if listed != (pos != u32::MAX) {
                return Err(format!("vm {vi}: frontier position {pos} out of step"));
            }
        }
        Ok(())
    }

    /// Brings the maintained view's time-dependent `vacatable` flags up
    /// to `now`. Everything else in the view is kept exact by the
    /// mutation funnels; this is the only field that changes with the
    /// clock alone.
    fn refresh_vacatable(&mut self, now: SimTime) {
        if self.cooldown_until.is_empty() {
            // `vacatable` starts true and only cooldown entries ever
            // clear it; with no entries there is nothing stale.
            return;
        }
        for h in &mut self.view.hosts {
            h.vacatable = self.cooldown_until.get(&h.id).is_none_or(|&until| now >= until);
        }
    }

    /// The per-host effective capacity the capacity-exhaustion sweep
    /// currently holds consolidation hosts to: the configured capacity
    /// until the datacenter epoch planner moves it (via
    /// [`Self::set_cons_capacity`]). A rack without consolidation hosts
    /// never receives a grant, so it reads the configured value.
    pub(crate) fn cons_capacity(&self) -> ByteSize {
        match self.cons_hosts.first() {
            Some(h) => self.view.hosts[h.0 as usize].capacity,
            None => self.cfg.effective_capacity(),
        }
    }

    /// Total VM demand currently resident on consolidation hosts — the
    /// read-only load figure the datacenter epoch planner merges across
    /// racks.
    pub(crate) fn cons_demand(&self) -> ByteSize {
        self.cons_hosts.iter().map(|&h| self.demand_on(h)).sum()
    }

    /// Number of consolidation hosts (fixed at construction).
    pub(crate) fn cons_host_count(&self) -> u32 {
        self.cons_hosts.len() as u32
    }

    /// Applies an epoch planner grant: moves the consolidation hosts'
    /// effective capacity to `per_host`. Only the datacenter shard driver
    /// calls this, between epoch barriers.
    pub(crate) fn set_cons_capacity(&mut self, per_host: ByteSize) {
        for &h in &self.cons_hosts {
            self.view.hosts[h.0 as usize].capacity = per_host;
        }
    }

    /// Brings every VM homed at `home` back to it; wakes the host.
    ///
    /// Returns `Ok((work, wake_extra))` — the seconds of reintegration
    /// work serialized on the host and any injected wake latency — or
    /// `Err(waited)` when the home sits in a wake-failure window that
    /// outlasted recovery (no VM moves; the caller degrades).
    ///
    /// `decision` is the audit-trail id this return executes; every
    /// resulting migration event carries it.
    fn return_home(
        &mut self,
        home: HostId,
        now: SimTime,
        decision: u64,
    ) -> Result<(f64, f64), f64> {
        let hi = self.host_index(home);
        let wake_extra = self.try_wake(hi, 0.0, now, decision)?;
        if !self.cfg.vacate_cooldown.is_zero() {
            self.cooldown_until.insert(home, now + self.cfg.vacate_cooldown);
        }
        let mut work = 0.0;
        // The home's VM block, ascending: the VMs a full scan for
        // `home == h && location != h` finds, in the order it finds them.
        for i in self.homed_at(home) {
            let VmView { id, location: from, allocation, partial, .. } = self.view.vms[i];
            if from == home {
                continue;
            }
            let since = self.vms[i].consolidated_since;
            let (kind, moved, downtime) = if partial {
                let minutes =
                    since.map(|s| now.saturating_since(s).as_secs_f64() / 60.0).unwrap_or(0.0);
                let dirty =
                    ByteSize::from_mib_f64(DIRTY_MIB_PER_MIN * minutes.max(1.0)).min(DIRTY_CAP);
                self.traffic.record(TrafficClass::Reintegration, dirty);
                work += self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                (MigrationKind::Return, dirty, self.stretch(self.cfg.reintegration_time))
            } else {
                // A full VM homed here but consolidated elsewhere returns
                // by full migration.
                let moved = allocation.mul_f64(1.15);
                self.traffic.record(TrafficClass::FullMigration, moved);
                work += self.stretch_secs(self.cfg.full_migration_time.as_secs_f64());
                (MigrationKind::Full, moved, self.stretch(self.cfg.full_migration_time))
            };
            self.telemetry.emit(Event::MigrationCompleted {
                vm: id.0,
                from: from.0,
                to: home.0,
                kind,
                moved_bytes: moved.as_bytes(),
                downtime_us: downtime.as_micros(),
                decision,
            });
            self.move_vm_to(i, home);
            self.make_full(i);
        }
        self.counts.returns_home += 1;
        Ok((work, wake_extra))
    }

    /// Applies the interval's session edges (positions `edges` in the
    /// session list), in ascending VM order. Only the trace changes a
    /// VM's state, so the edges are exactly the VMs whose state differs
    /// from their trace bit.
    fn apply_trace(&mut self, edges: core::ops::Range<usize>, now: SimTime) {
        for h in self.queued_hosts.drain(..) {
            self.queues[h as usize] = QueueSlots::default();
        }
        for e in edges {
            let (vi, active) = self.session.edge(e);
            let desired = if active { VmState::Active } else { VmState::Idle };
            debug_assert_ne!(desired, self.view.vms[vi].state, "edge of vm {vi} changes nothing");
            self.apply_transition(vi, desired, now);
        }
    }

    /// Takes the next slot of `host`'s reintegration queue (`true`) or
    /// promote queue (`false`) for this interval, returning how many
    /// were queued ahead of it.
    fn enqueue(&mut self, host: HostId, reintegration: bool) -> u32 {
        let slots = &mut self.queues[host.0 as usize];
        if slots.reintegration == 0 && slots.promote == 0 {
            self.queued_hosts.push(host.0);
        }
        let slot = if reintegration { &mut slots.reintegration } else { &mut slots.promote };
        let queued = *slot;
        *slot += 1;
        queued
    }

    /// Applies one VM's session edge to `desired` — the per-VM body of
    /// [`Self::apply_trace`].
    fn apply_transition(&mut self, vi: usize, desired: VmState, now: SimTime) {
        if desired == VmState::Idle {
            self.set_vm_state(vi, VmState::Idle);
            return;
        }
        // Idle → active transition.
        self.set_vm_state(vi, VmState::Active);
        if !self.view.vms[vi].partial {
            // Full VM (at home or consolidated in full): zero delay.
            self.delays.record(0.0);
            return;
        }
        self.refresh_vacatable(now);
        let vm_id = self.view.vms[vi].id;
        match self.manager.handle_activation(&self.view, vm_id) {
            Some(ActivationDecision::PromoteInPlace { .. }) => {
                self.decisions.promote_in_place += 1;
                self.promote_in_place(vi);
                // The paper says the consolidation host "becomes the
                // VM's new home"; we keep the *home binding* on the
                // original compute host because only that host has a
                // memory server to serve a future partial replica —
                // the consolidation host's memory server is never
                // powered (§5.1). Ownership of control transfers; the
                // home association does not. See DESIGN.md.
                self.counts.promotions += 1;
                // The user waits for the partial-VM resume; during a
                // resume storm, concurrent promotions on the same
                // host share its NIC, so each queue position adds the
                // transfer share of the resume latency.
                let location = self.view.vms[vi].location;
                let queued = self.enqueue(location, false);
                let base = self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                self.delays.record(base + f64::from(queued) * base * 0.4);
            }
            Some(ActivationDecision::MoveTo { destination, .. }) => {
                self.decisions.relocate += 1;
                let decision = self.manager.last_decision_id();
                let di = self.host_index(destination);
                match self.try_wake(di, 0.0, now, decision) {
                    Ok(extra) => {
                        self.traffic.record(
                            TrafficClass::FullMigration,
                            self.view.vms[vi].allocation.mul_f64(1.15),
                        );
                        self.move_vm_to(vi, destination);
                        self.make_full(vi);
                        self.counts.relocations += 1;
                        let full = self.stretch_secs(self.cfg.full_migration_time.as_secs_f64());
                        self.delays.record(full + extra);
                    }
                    Err(waited) => {
                        // Destination unwakeable: promote in place so
                        // the user still gets a running full VM.
                        self.fallback_promote(vi);
                        let base = self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                        self.delays.record(waited + base);
                    }
                }
            }
            Some(ActivationDecision::ReturnHome { home }) => {
                self.decisions.return_home += 1;
                let decision = self.manager.last_decision_id();
                let was_asleep = !self.view.hosts[self.host_index(home)].powered;
                let queued = self.enqueue(home, true);
                // The manager wakes the host with Wake-on-LAN (§4.1);
                // lost packets are retransmitted after a one-second
                // timeout. These draws come from the main stream and
                // must stay ahead of any fault handling so a fault-free
                // schedule leaves the sequence untouched.
                let wol_wait = if was_asleep {
                    let sent = self.wol_packets.get_or_insert_with(|| {
                        self.telemetry.metrics().counter("wol_packets_total", &[])
                    });
                    let wait = oasis_net::wake_with_retries(
                        &self.telemetry,
                        sent,
                        home.0,
                        self.cfg.wol_loss_rate,
                        10.0,
                        &mut self.rng,
                    );
                    self.counts.wol_retries += wait as u64;
                    wait
                } else {
                    0.0
                };
                let reint = self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                match self.return_home(home, now, decision) {
                    Ok((_, wake_extra)) => {
                        let wake = if was_asleep {
                            // The resume latency is the woken host's own
                            // generation's (uniform fleets read the same
                            // profile either way).
                            wol_wait
                                + wake_extra
                                + self.cfg.host_profile_of(home.0).resume_time.as_secs_f64()
                        } else {
                            0.0
                        };
                        self.delays.record(wake + (f64::from(queued) + 1.0) * reint);
                    }
                    Err(waited) => {
                        // The home cannot be woken: promote the
                        // activating VM in place instead.
                        self.fallback_promote(vi);
                        self.delays.record(wol_wait + waited + reint);
                    }
                }
            }
            None => {
                // Raced: the VM is no longer partial.
                self.delays.record(0.0);
            }
        }
    }

    /// Runs one manager planning round and executes the plan.
    fn plan_and_execute(&mut self, now: SimTime) {
        self.refresh_vacatable(now);
        let handoff =
            ResidencyHandoff { residency: &self.residency, exchange_ready: &self.exchange_ready };
        let actions = self.manager.plan_with(&self.view, Some(&handoff));
        // Ids allocated by the manager, aligned index-for-index with the
        // actions; they tie every migration event below back to its
        // `decision_made` audit record.
        let mut decision_ids = std::mem::take(&mut self.decision_scratch);
        decision_ids.clear();
        decision_ids.extend_from_slice(self.manager.last_plan_decision_ids());
        let interval = (now.as_micros() / (INTERVAL_SECS as u64 * 1_000_000)) as u32;
        self.telemetry.emit(Event::PolicyDecision { interval, actions: actions.len() as u32 });
        // Per-source serialized-work seconds this round, indexed by host
        // position (the `hosts[id]` layout every other index relies on).
        let mut busy = std::mem::take(&mut self.busy_scratch);
        busy.clear();
        busy.resize(self.hosts.len(), 0.0);

        let scope = self.telemetry.profile("execute");
        for (ai, &action) in actions.iter().enumerate() {
            let decision = decision_ids.get(ai).copied().unwrap_or(0);
            match action {
                PlannedAction::Migrate { source, order } => {
                    self.decisions.consolidate += 1;
                    let vi = order.vm.0 as usize;
                    // Skip stale orders (state changed since the snapshot).
                    if self.view.vms[vi].location != source {
                        continue;
                    }
                    let kind = match order.kind {
                        // A fresh partial migration uploads its image to
                        // the home's memory server; with that server down
                        // it degrades to a full migration so the replica
                        // never depends on a crashed daemon.
                        MigrationType::Partial
                            if !self.view.vms[vi].partial
                                && self.ms_down.contains(&self.view.vms[vi].home) =>
                        {
                            self.fault_counts.degraded_to_full += 1;
                            MigrationType::Full
                        }
                        k => k,
                    };
                    let mig_kind = match kind {
                        MigrationType::Full => MigrationKind::Full,
                        MigrationType::Partial => MigrationKind::Partial,
                    };
                    self.telemetry.emit(Event::MigrationStarted {
                        vm: order.vm.0,
                        from: source.0,
                        to: order.destination.0,
                        kind: mig_kind,
                        decision,
                    });
                    // An active stall window holds the transfer: recovery
                    // retries with backoff, and cancels the migration if
                    // the window outlasts the budget (the planner simply
                    // re-plans next round).
                    if let Some(fault) = self.cfg.faults.migration_stalled(now).copied() {
                        match self.stall_recovery(
                            order.vm.0,
                            source.0,
                            order.destination.0,
                            fault,
                            now,
                            decision,
                        ) {
                            Some(held) => {
                                busy[source.0 as usize] += held;
                            }
                            None => continue,
                        }
                    }
                    let di = self.host_index(order.destination);
                    let offset = busy[source.0 as usize];
                    match self.try_wake(di, offset, now, decision) {
                        Ok(_) => {}
                        Err(_) => {
                            // Destination unwakeable: abandon the order.
                            self.fault_counts.migrations_aborted += 1;
                            self.telemetry.emit(Event::MigrationAborted {
                                vm: order.vm.0,
                                from: source.0,
                                to: order.destination.0,
                                attempts: 0,
                                decision,
                            });
                            continue;
                        }
                    }
                    let (moved, downtime) = match kind {
                        MigrationType::Partial if self.view.vms[vi].partial => {
                            // Drain relocation: the partial replica moves
                            // between consolidation hosts; its memory
                            // server (at its home) is untouched, only the
                            // resident state is pushed across the rack.
                            self.traffic.record(
                                TrafficClass::PartialDescriptor,
                                oasis_migration::partial::DESCRIPTOR_BYTES,
                            );
                            let demand = self.view.vms[vi].demand;
                            self.traffic.record(TrafficClass::Reintegration, demand);
                            let moved = oasis_migration::partial::DESCRIPTOR_BYTES + demand;
                            self.move_vm_to(vi, order.destination);
                            busy[source.0 as usize] +=
                                self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                            self.counts.partial += 1;
                            (moved, self.stretch(self.cfg.reintegration_time))
                        }
                        MigrationType::Partial => {
                            let upload = self.consolidate_partial(vi, order.destination, now);
                            busy[source.0 as usize] +=
                                self.stretch_secs(self.cfg.partial_migration_time.as_secs_f64());
                            self.counts.partial += 1;
                            (
                                upload + oasis_migration::partial::DESCRIPTOR_BYTES,
                                self.stretch(self.cfg.partial_migration_time),
                            )
                        }
                        MigrationType::Full => {
                            let moved = self.view.vms[vi].allocation.mul_f64(1.15);
                            self.traffic.record(TrafficClass::FullMigration, moved);
                            self.move_vm_to(vi, order.destination);
                            self.make_full(vi);
                            busy[source.0 as usize] +=
                                self.stretch_secs(self.cfg.full_migration_time.as_secs_f64());
                            self.counts.full += 1;
                            (moved, self.stretch(self.cfg.full_migration_time))
                        }
                    };
                    self.telemetry.emit(Event::MigrationCompleted {
                        vm: order.vm.0,
                        from: source.0,
                        to: order.destination.0,
                        kind: mig_kind,
                        moved_bytes: moved.as_bytes(),
                        downtime_us: downtime.as_micros(),
                        decision,
                    });
                }
                PlannedAction::Exchange { vm, home, consolidation } => {
                    self.decisions.exchange += 1;
                    let vi = vm.0 as usize;
                    if self.view.vms[vi].location != consolidation || self.view.vms[vi].partial {
                        continue;
                    }
                    let hi = self.host_index(home);
                    // An exchange needs the home awake briefly and its
                    // memory server up for the re-upload; with either
                    // faulted the order is abandoned and the VM stays full
                    // on the consolidation host until the next plan.
                    if self.ms_down.contains(&home)
                        || (!self.view.hosts[hi].powered
                            && self.cfg.faults.wake_failure(home.0, now).is_some())
                    {
                        self.fault_counts.migrations_aborted += 1;
                        self.telemetry.emit(Event::MigrationAborted {
                            vm: vm.0,
                            from: consolidation.0,
                            to: home.0,
                            attempts: 0,
                            decision,
                        });
                        continue;
                    }
                    self.telemetry.emit(Event::MigrationStarted {
                        vm: vm.0,
                        from: consolidation.0,
                        to: home.0,
                        kind: MigrationKind::Exchange,
                        decision,
                    });
                    // Wake the home temporarily: full migration back, then
                    // partial re-consolidation to the same host (§3.2).
                    let episode = self.stretch_secs(
                        self.cfg.full_migration_time.as_secs_f64()
                            + self.cfg.partial_migration_time.as_secs_f64(),
                    );
                    if self.view.hosts[hi].powered {
                        // Home happens to be awake: the exchange is plain
                        // work on a powered host.
                    } else {
                        let extra = self.cfg.faults.wake_delay_secs(home.0, now);
                        if extra > 0.0 {
                            self.fault_counts.wake_delays += 1;
                        }
                        self.hosts[hi].temporary_episode(episode + extra);
                        self.dirty_hosts[hi] = true;
                        self.telemetry.emit(Event::HostResumed { host: home.0 });
                        self.telemetry.emit(Event::HostSuspended { host: home.0 });
                    }
                    let full_bytes = self.view.vms[vi].allocation.mul_f64(1.15);
                    self.traffic.record(TrafficClass::FullMigration, full_bytes);
                    let upload = self.consolidate_partial(vi, consolidation, now);
                    self.counts.exchanges += 1;
                    self.telemetry.emit(Event::MigrationCompleted {
                        vm: vm.0,
                        from: consolidation.0,
                        to: consolidation.0,
                        kind: MigrationKind::Exchange,
                        moved_bytes: (full_bytes
                            + upload
                            + oasis_migration::partial::DESCRIPTOR_BYTES)
                            .as_bytes(),
                        downtime_us: SimDuration::from_secs_f64(episode).as_micros(),
                        decision,
                    });
                }
            }
        }

        // Sources drained of all VMs sleep after their serialized work.
        for (h, &serialized) in busy.iter().enumerate() {
            if self.view.hosts[h].powered && self.residency[h].vms.count_ones() == 0 {
                let offset = serialized.min(INTERVAL_SECS);
                self.set_host_power(h, offset, false);
            }
        }
        scope.end();
        self.manager.recycle_actions(actions);
        self.busy_scratch = busy;
        self.decision_scratch = decision_ids;
    }

    /// Grows consolidated working sets and handles capacity exhaustion.
    fn grow_working_sets(&mut self, now: SimTime) {
        let mut fetched = ByteSize::ZERO;
        // Only frontier VMs have headroom, so walking the frontier grows
        // exactly the VMs a scan of every partial VM would. A VM that
        // saturates leaves the frontier inside `set_vm_demand`, and the
        // last entry takes its slot, so the walk stays on that slot.
        let mut fi = 0;
        while let Some(&vi) = self.frontier.get(fi) {
            let vi = vi as usize;
            let demand = self.view.vms[vi].demand;
            debug_assert!(self.view.vms[vi].partial);
            let vm = &self.vms[vi];
            let class = ClassConsts::of(vm.class);
            let growth = class.growth.min(vm.wss_cap.saturating_sub(demand));
            if !growth.is_zero() {
                fetched += if growth == class.growth {
                    class.growth_fetch
                } else {
                    growth.mul_f64(COMPRESS_RATIO)
                };
                self.set_vm_demand(vi, demand + growth);
            }
            if self.frontier_pos[vi] != u32::MAX {
                fi += 1;
            }
        }
        if !fetched.is_zero() {
            self.traffic.record(TrafficClass::DemandFetch, fetched);
        }

        // Capacity exhaustion (§3.2): the host wakes the requesting VM's
        // home and returns all of that home's VMs.
        for ci in 0..self.cons_hosts.len() {
            let host = self.cons_hosts[ci];
            let capacity = self.view.hosts[host.0 as usize].capacity;
            if self.demand_on(host) <= capacity {
                continue;
            }
            // Rank eviction candidates once from the residency index,
            // largest (demand, id) last so `pop` yields the requester.
            // Demands of surviving candidates cannot change inside the
            // loop (return_home and relocate only move VMs away), so one
            // ranking replaces the per-iteration rescan of `vms_on`;
            // departed or promoted VMs are skipped at pop time.
            let vms = &self.view.vms;
            let mut candidates: Vec<usize> =
                self.vms_on(host).filter(|&i| vms[i].partial).collect();
            candidates.sort_by_key(|&i| (vms[i].demand, vms[i].id));
            let mut guard = 0;
            while self.demand_on(host) > capacity && guard < 1_000 {
                guard += 1;
                // The largest partial VM still resident is the requester.
                let victim = loop {
                    match candidates.pop() {
                        Some(i)
                            if self.view.vms[i].location == host && self.view.vms[i].partial =>
                        {
                            break Some(i)
                        }
                        Some(_) => continue,
                        None => break None,
                    }
                };
                match victim {
                    Some(vi) => {
                        let home = self.view.vms[vi].home;
                        self.telemetry.emit(Event::CapacityExhausted { host: host.0 });
                        // Evicting the requester's home-group is a shed
                        // decision the simulator takes on its own.
                        self.decisions.shed += 1;
                        let decision = self.telemetry.next_decision_id();
                        self.telemetry.emit(Event::DecisionMade {
                            decision,
                            class: DecisionClass::Shed,
                            vm: self.view.vms[vi].id.0,
                            target: home.0,
                            candidates: 1,
                        });
                        if self.return_home(home, now, decision).is_ok() {
                            continue;
                        }
                        // The home cannot be woken: shed the requester to
                        // a fallback host instead. If none qualifies, the
                        // host rides out the window over-committed.
                        if !self.relocate_to_fallback(vi, now) {
                            break;
                        }
                    }
                    None => break,
                }
            }
        }
    }

    /// Puts hosts drained outside planning (ReturnHome) to sleep.
    fn sleep_empty_hosts(&mut self) {
        for h in 0..self.hosts.len() {
            if self.view.hosts[h].powered && self.residency[h].vms.count_ones() == 0 {
                self.set_host_power(h, INTERVAL_SECS * 0.5, false);
            }
        }
    }

    /// Records the per-interval series and distribution samples.
    fn record(&mut self, now: SimTime) {
        // Summing the index-maintained per-host counts equals a recount
        // of the VM vector (locked by `verify_indices`), without the
        // O(VMs) scan per interval.
        let active: usize = self.residency.iter().map(|r| r.active_vms.count_ones()).sum();
        self.series_active.record(now, active as f64);
        let powered = self.view.hosts.iter().filter(|h| h.powered).count();
        self.series_powered.record(now, powered as f64);
        for h in &self.view.hosts {
            if h.role == HostRole::Consolidation && h.powered {
                let n = self.residency[h.id.0 as usize].vms.count_ones();
                if n > 0 {
                    self.ratio.record(n as f64);
                }
            }
        }
    }

    /// Integrates this interval's energy and the §5.3 baseline, and
    /// accumulates the integer-millijoule attribution ledger plus the
    /// per-interval quiescence counts alongside.
    // oasis-lint: boundary(float-energy, "fixed per-host fold order makes the f64 sums reproducible; the attribution ledger keeps the integer-mj truth")
    fn account_energy(&mut self) {
        fn mj(joules: f64) -> u64 {
            oasis_sim::round_u64(joules * 1_000.0)
        }
        let ms_watts = self.cfg.memserver.active_watts;
        for h in 0..self.hosts.len() {
            let HostView { id, role, powered, .. } = self.view.hosts[h];
            let p = self.cfg.host_profile_of(id.0);
            let active = self.active_on(id);
            let awake = self.hosts[h].end_interval(powered);
            let suspends = f64::from(self.hosts[h].suspends);
            let resumes = f64::from(self.hosts[h].resumes);
            let transit =
                suspends * p.suspend_time.as_secs_f64() + resumes * p.resume_time.as_secs_f64();
            let asleep = (INTERVAL_SECS - awake - transit).max(0.0);
            // Sleeping consolidation hosts are spare capacity, not part
            // of the active deployment: their S3 draw is not charged
            // (otherwise Figure 8 would fall linearly with the host count
            // instead of leveling off, as adding unused spares would
            // "cost" energy).
            let sleep_draw = if role == HostRole::Compute { p.sleep_watts } else { 0.0 };
            let mut joules = awake * p.watts(PowerState::Powered, active)
                + suspends * p.suspend_time.as_secs_f64() * p.suspend_watts
                + resumes * p.resume_time.as_secs_f64() * p.resume_watts
                + asleep * sleep_draw;
            // A sleeping home host keeps its memory server powered while
            // it has partial replicas to serve (§5.1); a host vacated
            // purely by full migrations has nothing to serve. The count
            // is index-maintained — no scan of the VM vector.
            let serves_partials = self.home_partials[h] > 0;
            if role == HostRole::Compute && serves_partials {
                joules += asleep * ms_watts;
            }
            self.total_joules += joules;

            // Attribution ledger: the same interval decomposed into
            // active (draw above the zero-VM floor), idle (powered floor
            // + S3 draw), transition and memory-server components, each
            // rounded to integer millijoules per interval.
            let idle_floor = p.watts(PowerState::Powered, 0);
            let active_mj = mj(awake * (p.watts(PowerState::Powered, active) - idle_floor));
            let acc = &mut self.host_energy[h];
            acc.active_mj += active_mj;
            acc.idle_mj += mj(awake * idle_floor + asleep * sleep_draw);
            acc.transition_mj += mj(suspends * p.suspend_time.as_secs_f64() * p.suspend_watts
                + resumes * p.resume_time.as_secs_f64() * p.resume_watts);
            if role == HostRole::Compute && serves_partials {
                acc.memserver_mj += mj(asleep * ms_watts);
            }
            self.attribute_active_mj(h, active_mj);
            // Quiescence: a host whose placement/power state nothing
            // touched this interval (and that never transitioned) could
            // have been skipped by an event-driven stepper.
            if !self.dirty_hosts[h] && self.hosts[h].suspends == 0 && self.hosts[h].resumes == 0 {
                self.quiescence.host_quiescent += 1;
            }
        }
        self.quiescence.intervals += 1;
        self.quiescence.host_intervals += self.hosts.len() as u64;
        self.quiescence.vm_intervals += self.view.vms.len() as u64;
        self.quiescence.vm_quiescent += (self.view.vms.len() - self.dirty_vm_count) as u64;
        // Baseline: home hosts powered all day, VMs in place. Each home
        // is charged its own generation's profile (a homogeneous fleet
        // reads identical values, so the f64 fold is unchanged).
        for home in 0..self.cfg.home_hosts {
            let p = self.cfg.host_profile_of(home);
            let active = self.session.home_active(home as usize) as usize;
            self.baseline_joules += INTERVAL_SECS * p.watts(PowerState::Powered, active);
        }
    }

    /// Splits a host's active millijoules over its active residents —
    /// demand-weighted, with the rounding remainder assigned to the
    /// lowest-indexed one so the shares always sum bit-exactly to the
    /// host's active millijoules — accumulating into the per-VM ledger.
    fn attribute_active_mj(&mut self, h: usize, active_mj: u64) {
        if active_mj == 0 {
            return;
        }
        // The active-resident index is exactly the ascending subsequence
        // of residents the old filtered walk visited, so the share order
        // (and the identity of `first`) is unchanged. The weight sum is
        // the maintained `active_demand`, so one walk assigns the shares.
        let active = &self.residency[h].active_vms;
        let weight_sum = self.residency[h].active_demand;
        let count = active.count_ones() as u64;
        let mut first = None;
        let mut assigned = 0u64;
        for vi in active.iter_ones() {
            debug_assert!(self.view.vms[vi].state.is_active());
            first.get_or_insert(vi);
            let w = self.view.vms[vi].demand.as_bytes();
            // Zero total demand degrades to an equal split. A product that
            // fits 64 bits divides in hardware; the quotient is the same
            // floor either way.
            let share = match active_mj.checked_mul(w) {
                _ if weight_sum == 0 => active_mj / count,
                Some(product) => product / weight_sum,
                None => (u128::from(active_mj) * u128::from(w) / u128::from(weight_sum)) as u64,
            };
            self.vm_energy_mj[vi] += share;
            assigned += share;
        }
        let Some(first) = first else { return };
        self.vm_energy_mj[first] += active_mj - assigned;
    }

    /// Advances the simulator through interval `interval` (one 5-minute
    /// trace step): fault onsets, trace-driven state changes, planning on
    /// the manager's own cadence, working-set growth, host sleep, series
    /// recording and energy integration.
    pub(crate) fn step_interval(&mut self, interval: usize, next_plan: &mut SimTime) {
        let now = SimTime::from_secs(interval as u64 * INTERVAL_SECS as u64);
        self.telemetry.advance_to(now);
        let edges = self.session.advance(interval);
        self.telemetry.emit(Event::IntervalStarted {
            interval: interval as u32,
            active: self.session.active(),
        });
        for h in &mut self.hosts {
            h.begin_interval();
        }
        self.dirty_hosts.iter_mut().for_each(|d| *d = false);
        self.dirty_epoch += 1;
        self.dirty_vm_count = 0;
        let scope = self.telemetry.profile("fault_service");
        self.apply_faults(now);
        self.apply_reboots(now);
        scope.end();
        let scope = self.telemetry.profile("activation");
        self.apply_trace(edges, now);
        scope.end();
        // The manager plans on its own configurable interval (§3.1),
        // not on every trace step.
        let scope = self.telemetry.profile("planner");
        if now >= *next_plan {
            self.plan_and_execute(now);
            *next_plan = now + self.cfg.interval;
        }
        scope.end();
        let scope = self.telemetry.profile("fetch");
        self.grow_working_sets(now);
        scope.end();
        let scope = self.telemetry.profile("accounting");
        self.sleep_empty_hosts();
        self.record(now);
        self.account_energy();
        self.energy_series.record(now, self.total_joules / oasis_power::meter::JOULES_PER_KWH);
        scope.end();
    }

    /// Runs one full simulated day and returns the report.
    pub fn run_day(mut self) -> SimReport {
        let day_scope = self.telemetry.profile("run_day");
        let mut next_plan = SimTime::ZERO;
        for interval in 0..INTERVALS_PER_DAY {
            self.step_interval(interval, &mut next_plan);
        }
        day_scope.end();
        self.manager.release_buffers();
        self.finish_report()
    }

    /// Assembles the [`SimReport`] after the day loop — shared with the
    /// shard driver, so the report layout cannot drift between them.
    pub(crate) fn finish_report(self) -> SimReport {
        let baseline_kwh = self.baseline_joules / oasis_power::meter::JOULES_PER_KWH;
        let total_kwh = self.total_joules / oasis_power::meter::JOULES_PER_KWH;
        // A sink keeps its first write error and reports it on every
        // flush; the caller that owns the sink checks it after the day.
        let _ = self.telemetry.flush();
        let placements = self
            .view
            .vms
            .iter()
            .map(|v| VmPlacement {
                vm: v.id.0,
                home: v.home.0,
                location: v.location.0,
                partial: v.partial,
            })
            .collect();
        SimReport {
            policy: self.cfg.policy,
            day: self.cfg.day,
            home_hosts: self.cfg.home_hosts,
            consolidation_hosts: self.cfg.consolidation_hosts,
            vms: self.cfg.total_vms(),
            baseline_kwh,
            total_kwh,
            energy_savings: oasis_power::meter::savings_fraction(
                self.baseline_joules,
                self.total_joules,
            ),
            active_vms_series: self.series_active,
            powered_hosts_series: self.series_powered,
            transition_delays: self.delays,
            consolidation_ratio: self.ratio,
            traffic: self.traffic,
            migrations: self.counts,
            faults: self.fault_counts,
            recovery_times: self.recovery_times,
            energy_series: self.energy_series,
            placements,
            energy: EnergyLedger {
                hosts: self.host_energy,
                vms: self
                    .view
                    .vms
                    .iter()
                    .enumerate()
                    .map(|(i, v)| VmEnergy { vm: v.id.0, share_mj: self.vm_energy_mj[i] })
                    .collect(),
            },
            quiescence: self.quiescence,
            decisions: self.decisions,
            telemetry: self.telemetry.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    #[test]
    fn timeline_full_interval_powered() {
        let mut h = SimHost::default();
        h.begin_interval();
        assert_eq!(h.end_interval(true), INTERVAL_SECS);
        assert_eq!(h.suspends, 0);
        assert_eq!(h.resumes, 0);
    }

    #[test]
    fn timeline_sleep_mid_interval() {
        let mut h = SimHost::default();
        h.begin_interval();
        h.set_power(true, 120.0, false);
        assert_eq!(h.end_interval(false), 120.0);
        assert_eq!(h.suspends, 1);
        // The next interval is fully asleep.
        h.begin_interval();
        assert_eq!(h.end_interval(false), 0.0);
    }

    #[test]
    fn timeline_wake_mid_interval() {
        let mut h = SimHost::default();
        h.begin_interval();
        h.set_power(false, 200.0, true);
        assert_eq!(h.end_interval(true), 100.0);
        assert_eq!(h.resumes, 1);
    }

    #[test]
    fn timeline_bounce_within_interval() {
        let mut h = SimHost::default();
        h.begin_interval();
        h.set_power(false, 50.0, true);
        h.set_power(true, 80.0, false);
        h.set_power(false, 200.0, true);
        let awake = h.end_interval(true);
        assert!((awake - (30.0 + 100.0)).abs() < 1e-9, "awake {awake}");
        assert_eq!(h.resumes, 2);
        assert_eq!(h.suspends, 1);
    }

    #[test]
    fn timeline_redundant_set_power_is_noop() {
        let mut h = SimHost::default();
        h.begin_interval();
        h.set_power(true, 10.0, true);
        assert_eq!(h.suspends + h.resumes, 0);
        assert_eq!(h.end_interval(true), INTERVAL_SECS);
    }

    #[test]
    fn temporary_episode_counts_transitions() {
        let mut h = SimHost::default();
        h.begin_interval();
        h.temporary_episode(17.2);
        assert_eq!(h.end_interval(false), 17.2);
        assert_eq!(h.suspends, 1);
        assert_eq!(h.resumes, 1);
    }

    #[test]
    fn awake_capped_at_interval_length() {
        let mut h = SimHost::default();
        h.begin_interval();
        h.temporary_episode(500.0);
        assert_eq!(h.end_interval(false), INTERVAL_SECS);
    }

    fn tiny_sim() -> ClusterSim {
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .build()
            .expect("valid configuration");
        ClusterSim::new(cfg)
    }

    /// Moves a VM onto `host` as a partial replica through the index
    /// helpers (direct field writes would desync the residency index).
    fn consolidate(sim: &mut ClusterSim, vi: usize, host: HostId, demand: ByteSize) {
        sim.move_vm_to(vi, host);
        sim.set_vm_partial(vi, true);
        sim.set_vm_demand(vi, demand);
        sim.vms[vi].consolidated_since = Some(SimTime::ZERO);
    }

    #[test]
    fn snapshot_reflects_initial_state() {
        let sim = tiny_sim();
        let view = &sim.view;
        assert_eq!(view.hosts.len(), 3);
        assert_eq!(view.vms.len(), 6);
        assert_eq!(view.hosts.iter().filter(|h| h.powered).count(), 2, "consolidation host sleeps");
        for vm in &view.vms {
            assert_eq!(vm.home, vm.location);
            assert!(!vm.partial);
            assert_eq!(vm.demand, vm.allocation);
        }
    }

    #[test]
    fn return_home_brings_every_vm_back() {
        let mut sim = tiny_sim();
        // Manually consolidate home 0's VMs onto the consolidation host.
        let cons = HostId(2);
        for vi in 0..3 {
            consolidate(&mut sim, vi, cons, ByteSize::mib(165));
        }
        sim.set_host_power(0, 0.0, false);
        sim.set_host_power(2, 0.0, true);

        let (work, wake_extra) = sim
            .return_home(HostId(0), SimTime::from_secs(600), 0)
            .expect("no wake faults scheduled");
        assert!(work > 0.0);
        assert_eq!(wake_extra, 0.0);
        assert!(sim.view.hosts[0].powered, "home woke");
        for vi in 0..3 {
            assert_eq!(sim.view.vms[vi].location, HostId(0));
            assert!(!sim.view.vms[vi].partial);
            assert_eq!(sim.view.vms[vi].demand, sim.view.vms[vi].allocation);
        }
        assert_eq!(sim.counts.returns_home, 1);
        assert!(sim.traffic.total(TrafficClass::Reintegration).as_bytes() > 0);
    }

    #[test]
    fn try_wake_honours_wake_failure_windows() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::WakeFailure,
            host: Some(0),
            start: SimTime::ZERO,
            duration: SimDuration::from_hours(2),
            severity: 1.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        sim.set_host_power(0, 0.0, false);
        // Inside the window the recovery budget (< 40 s) cannot outlast
        // the two-hour fault: the wake is abandoned, the host sleeps on.
        assert!(sim.try_wake(0, 0.0, SimTime::from_secs(600), 0).is_err());
        assert!(!sim.view.hosts[0].powered);
        assert_eq!(sim.fault_counts.wake_failures, 1);
        assert_eq!(sim.fault_counts.wake_exhausted, 1);
        assert!(sim.fault_counts.wake_retries > 0);
        // Past the window the wake is clean.
        assert_eq!(sim.try_wake(0, 0.0, SimTime::from_secs(3 * 3600), 0), Ok(0.0));
        assert!(sim.view.hosts[0].powered);
    }

    #[test]
    fn wake_delay_surfaces_as_extra_resume_latency() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::WakeDelay,
            host: Some(0),
            start: SimTime::ZERO,
            duration: SimDuration::from_hours(2),
            severity: 45.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        sim.set_host_power(0, 0.0, false);
        assert_eq!(sim.try_wake(0, 0.0, SimTime::from_secs(600), 0), Ok(45.0));
        assert!(sim.view.hosts[0].powered, "a delayed wake still succeeds");
        assert_eq!(sim.fault_counts.wake_delays, 1);
        assert_eq!(sim.fault_counts.wake_failures, 0);
    }

    #[test]
    fn return_home_fails_closed_under_wake_failure() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::WakeFailure,
            host: Some(0),
            start: SimTime::ZERO,
            duration: SimDuration::from_hours(24),
            severity: 1.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        let cons = HostId(2);
        for vi in 0..3 {
            consolidate(&mut sim, vi, cons, ByteSize::mib(165));
        }
        sim.set_host_power(0, 0.0, false);
        sim.set_host_power(2, 0.0, true);
        assert!(sim.return_home(HostId(0), SimTime::from_secs(600), 0).is_err());
        assert!(!sim.view.hosts[0].powered, "home still asleep");
        for vi in 0..3 {
            assert_eq!(sim.view.vms[vi].location, cons, "no VM moved");
            assert!(sim.view.vms[vi].partial);
        }
        assert_eq!(sim.counts.returns_home, 0);
    }

    #[test]
    fn memserver_crash_rehomes_orphaned_partials() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::MemServerCrash,
            host: Some(0),
            start: SimTime::from_secs(600),
            duration: SimDuration::from_hours(1),
            severity: 1.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        let cons = HostId(2);
        for vi in 0..3 {
            consolidate(&mut sim, vi, cons, ByteSize::mib(165));
        }
        sim.apply_faults(SimTime::from_secs(600));
        assert!(sim.ms_down.contains(&HostId(0)));
        assert_eq!(sim.fault_counts.memserver_crashes, 1);
        assert_eq!(sim.fault_counts.rehomed_vms, 3);
        for vi in 0..3 {
            assert!(!sim.view.vms[vi].partial, "orphan promoted to full");
            assert_eq!(sim.view.vms[vi].demand, sim.view.vms[vi].allocation);
        }
        // The crash window ends: the next boundary announces the restart.
        sim.apply_faults(SimTime::from_secs(600 + 3700));
        assert!(!sim.ms_down.contains(&HostId(0)));
    }

    #[test]
    fn link_degradation_stretches_latencies_for_the_interval() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::LinkDegraded,
            host: None,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(900),
            severity: 4.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        sim.apply_faults(SimTime::ZERO);
        assert_eq!(sim.link_factor, 4.0);
        assert_eq!(sim.stretch_secs(10.0), 40.0);
        assert_eq!(sim.stretch(SimDuration::from_secs(10)), SimDuration::from_secs(40));
        sim.apply_faults(SimTime::from_secs(900));
        assert_eq!(sim.link_factor, 1.0);
        assert_eq!(sim.fault_counts.link_degradations, 1);
    }

    #[test]
    fn demand_accounting() {
        let sim = tiny_sim();
        assert_eq!(sim.demand_on(HostId(0)), ByteSize::gib(12));
        assert_eq!(sim.demand_on(HostId(2)), ByteSize::ZERO);
        assert_eq!(sim.active_on(HostId(0)), 0, "VMs start idle");
    }

    #[test]
    fn indices_start_consistent() {
        tiny_sim().verify_indices().expect("fresh indices match recount");
    }

    /// Property: after any sequence of random mutations through the
    /// index helpers — placements, promotions, demand changes, state
    /// flips, crash re-homing, returns — every incremental index equals
    /// a from-scratch recount.
    #[test]
    fn indices_equal_recount_after_random_mutations() {
        for seed in 0..8u64 {
            let cfg = ClusterConfig::builder()
                .home_hosts(4)
                .consolidation_hosts(2)
                .vms_per_host(5)
                .seed(seed + 11)
                .build()
                .expect("valid configuration");
            let mut sim = ClusterSim::new(cfg);
            let mut rng = SimRng::new(0xD1CE ^ seed);
            let hosts = sim.hosts.len();
            let vms = sim.view.vms.len();
            for op in 0..400 {
                let vi = rng.index(vms);
                match rng.below(8) {
                    0 | 1 => {
                        let dest = HostId(rng.index(hosts) as u32);
                        sim.move_vm_to(vi, dest);
                    }
                    2 => {
                        let mib = rng.range_f64(16.0, sim.view.vms[vi].allocation.as_mib_f64());
                        sim.set_vm_demand(vi, ByteSize::from_mib_f64(mib));
                    }
                    3 => sim.set_vm_partial(vi, !sim.view.vms[vi].partial),
                    4 => {
                        let state = if sim.view.vms[vi].state.is_active() {
                            VmState::Idle
                        } else {
                            VmState::Active
                        };
                        sim.set_vm_state(vi, state);
                    }
                    5 => sim.fallback_promote(vi),
                    6 => {
                        let home = HostId(rng.index(sim.cfg.home_hosts as usize) as u32);
                        sim.recover_orphans(home);
                    }
                    _ => {
                        let home = HostId(rng.index(sim.cfg.home_hosts as usize) as u32);
                        let _ = sim.return_home(home, SimTime::from_secs(600), 0);
                    }
                }
                sim.verify_indices().unwrap_or_else(|e| {
                    panic!("seed {seed}, op {op}: index drifted from recount: {e}")
                });
            }
        }
    }

    /// Property: at every interval of a rotated, spiked and faulted day,
    /// the session edges are exactly the VMs a sweep of every VM against
    /// the sampled trace would change, in the same ascending order and
    /// towards the same state, and the edge-maintained active counts
    /// equal a recount of the trace.
    #[test]
    fn session_edges_match_a_full_trace_sweep() {
        for seed in [1u64, 2] {
            let schedule = oasis_faults::FaultSchedule::random(
                oasis_faults::FaultProfile::heavy(),
                8,
                SimDuration::from_hours(24),
                seed ^ 0xFA17,
            );
            let mut cfg = ClusterConfig::builder()
                .home_hosts(6)
                .consolidation_hosts(2)
                .vms_per_host(10)
                .seed(seed)
                .wol_loss_rate(0.2)
                .faults(schedule)
                .spike(crate::config::ActivitySpike {
                    start_interval: 276,
                    duration_intervals: 24,
                    participation: 0.5,
                })
                .build()
                .expect("valid configuration");
            cfg.trace_rotation = 37;
            let users = sample_days(&cfg, &mut main_stream(seed));
            assert!(users.iter().any(|u| u.is_active(0) && u.is_active(287)), "spike wraps");
            let mut sim = ClusterSim::new(cfg);
            let mut next_plan = SimTime::ZERO;
            let mut edges_seen = 0;
            for interval in 0..INTERVALS_PER_DAY {
                let sweep: Vec<(usize, bool)> = (0..users.len())
                    .map(|vi| (vi, users[vi].is_active(interval)))
                    .filter(|&(vi, active)| active != sim.view.vms[vi].state.is_active())
                    .collect();
                let mut probe = sim.session.clone();
                let edges: Vec<(usize, bool)> =
                    probe.advance(interval).map(|e| probe.edge(e)).collect();
                assert_eq!(edges, sweep, "seed {seed}, interval {interval}");
                edges_seen += edges.len();
                sim.step_interval(interval, &mut next_plan);
                let active = users.iter().filter(|u| u.is_active(interval)).count();
                assert_eq!(sim.session.active() as usize, active, "interval {interval}");
                for home in 0..6 {
                    let homed = &users[home * 10..home * 10 + 10];
                    let active = homed.iter().filter(|u| u.is_active(interval)).count();
                    assert_eq!(sim.session.home_active(home) as usize, active);
                }
            }
            assert!(edges_seen > 0, "the day has session edges");
        }
    }

    /// Property: the indices stay consistent across every interval of a
    /// full simulated day under a heavy fault schedule (wake failures,
    /// memory-server crashes, stalls, link degradation all exercise the
    /// recovery mutation paths), and at every planning round the planner
    /// plans the same actions from its own from-scratch index as from
    /// the one the simulator maintains.
    #[test]
    fn indices_equal_recount_through_a_faulted_day() {
        for seed in [1u64, 2, 3] {
            let schedule = oasis_faults::FaultSchedule::random(
                oasis_faults::FaultProfile::heavy(),
                8,
                SimDuration::from_hours(24),
                seed ^ 0xFA17,
            );
            let cfg = ClusterConfig::builder()
                .home_hosts(6)
                .consolidation_hosts(2)
                .vms_per_host(10)
                .seed(seed)
                .wol_loss_rate(0.2)
                .faults(schedule)
                .build()
                .expect("valid configuration");
            let mut sim = ClusterSim::new(cfg);
            let mut next_plan = SimTime::ZERO;
            for interval in 0..INTERVALS_PER_DAY {
                let now = SimTime::from_secs(interval as u64 * INTERVAL_SECS as u64);
                if now >= next_plan {
                    sim.refresh_vacatable(now);
                    let handoff = ResidencyHandoff {
                        residency: &sim.residency,
                        exchange_ready: &sim.exchange_ready,
                    };
                    let rebuilt = sim.manager.clone().plan(&sim.view);
                    let borrowed = sim.manager.clone().plan_with(&sim.view, Some(&handoff));
                    assert_eq!(rebuilt, borrowed, "seed {seed}, interval {interval}: plans differ");
                }
                sim.step_interval(interval, &mut next_plan);
                sim.verify_indices().unwrap_or_else(|e| {
                    panic!("seed {seed}, interval {interval}: index drifted: {e}")
                });
            }
        }
    }
}
