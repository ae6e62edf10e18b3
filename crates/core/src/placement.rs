//! The greedy vacate planner (§3.1 "where to migrate").
//!
//! "First, we sort the compute hosts by their total VM memory demand …
//! in ascending order and form a queue of hosts to vacate. We find a plan
//! that vacates the maximum number of compute hosts from the queue. The
//! destination for each migrating VM is selected at random from the
//! consolidation hosts list," subject to memory capacity.
//!
//! Consolidation hosts sleep by default; the planner prefers already
//! powered destinations and wakes a sleeping one only when the powered
//! set is full. A final net-energy check ("the cluster manager
//! consolidates VMs only when it determines that doing so can save
//! energy", §3.1) discards vacate plans whose savings would not cover the
//! consolidation hosts they power on.

use oasis_mem::{Bitmap, ByteSize};
use oasis_migration::{MigrationOrder, MigrationType};
use oasis_sim::SimRng;
use oasis_vm::{HostId, VmId, VmState};

use crate::policy::{ActivationDecision, PlannedAction, PolicyKind};
use crate::view::{ClusterView, HostRole, ResidencyIndex, VmView};

/// How the planner picks a destination among viable consolidation hosts.
///
/// §3.1 uses random selection and explicitly leaves "more sophisticated
/// placement algorithms that optimize specific goals, such as reducing
/// memory fragmentation" out of scope; the alternatives here let the
/// `ablation_placement` bench quantify what that choice costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// The paper's policy: uniformly random among hosts with capacity.
    #[default]
    Random,
    /// Tightest fit: the viable host with the least free capacity.
    BestFit,
    /// Loosest fit: the viable host with the most free capacity.
    WorstFit,
    /// Lowest host id first (deterministic packing).
    FirstFit,
}

/// Energy parameters of the net-saving check.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Watts saved by putting one home host to sleep (idle power minus
    /// sleeping host + memory server: 102.2 − 55.1 with the prototype).
    pub home_sleep_saving_watts: f64,
    /// Watts cost of powering one consolidation host (its idle draw).
    pub consolidation_power_watts: f64,
    /// Capacity the planner leaves unplanned on each consolidation host
    /// so partial VMs that activate can promote in place instead of
    /// waking their home (§3.2's Default path is expensive; headroom
    /// keeps it rare).
    pub promotion_headroom: ByteSize,
    /// Destination-selection strategy (the paper uses [`PlacementStrategy::Random`]).
    pub strategy: PlacementStrategy,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            home_sleep_saving_watts: 102.2 - (12.9 + 42.2),
            consolidation_power_watts: 102.2,
            promotion_headroom: ByteSize::gib(8),
            strategy: PlacementStrategy::default(),
        }
    }
}

/// One-pass per-host aggregates over a snapshot.
///
/// The planner used to answer every `demand_on`/`vms_on`/`host` query
/// with a fresh scan of the VM vector — `O(hosts × VMs)` per round, and
/// worse inside sort comparators. This index is built once per round in
/// a single pass; the per-host demand sums accumulate in the same VM
/// order the scans used (integer adds, so the totals are bit-equal) and
/// the resident sets iterate in VM-vector order.
enum HostIndex<'a> {
    /// Borrowed from a caller-maintained [`ResidencyIndex`]; nothing is
    /// rebuilt or allocated per round. Demand is read from the view.
    External(&'a dyn ResidencyIndex),
    /// Built from a pass over the VM vector — the path for arbitrary
    /// hand-assembled views.
    Built {
        /// Total resident demand per host position.
        demand: Vec<ByteSize>,
        /// Residents per host position, as bitsets over `view.vms`.
        residents: Vec<Bitmap>,
    },
}

impl<'a> HostIndex<'a> {
    fn new(view: &ClusterView, external: Option<&'a dyn ResidencyIndex>) -> Self {
        if let Some(ext) = external {
            return HostIndex::External(ext);
        }
        let mut demand = vec![ByteSize::ZERO; view.hosts.len()];
        let mut residents = vec![Bitmap::new(view.vms.len()); view.hosts.len()];
        for (vi, vm) in view.vms.iter().enumerate() {
            if let Some(p) = view.pos(vm.location) {
                demand[p] += vm.demand;
                residents[p].set(vi);
            }
        }
        HostIndex::Built { demand, residents }
    }

    /// Total resident demand of the host at position `p`.
    fn demand_at(&self, view: &ClusterView, p: usize) -> ByteSize {
        match self {
            HostIndex::External(_) => view.demand_on(view.hosts[p].id),
            HostIndex::Built { demand, .. } => demand[p],
        }
    }

    /// The residents of the host at position `p`.
    fn residents_at(&self, p: usize) -> &Bitmap {
        match self {
            HostIndex::External(ext) => ext.residents(p),
            HostIndex::Built { residents, .. } => &residents[p],
        }
    }
}

/// One consolidation host's planned capacity state.
#[derive(Clone, Copy, Debug)]
struct LedgerEntry {
    id: HostId,
    /// Position of the host in `view.hosts`.
    view_pos: u32,
    /// Free bytes after planned placements.
    free: ByteSize,
    /// Powered state (including planned wakes).
    powered: bool,
    /// Whether the placement filter may pick this host: powered, and
    /// not excluded by the drain pass (the host being drained, a host
    /// already drained, or a wake of a suppressed vacate plan).
    usable: bool,
    /// Woken by this plan.
    woken: bool,
}

/// Tracks planned capacity changes during one planning round.
///
/// One entry per consolidation host, sorted by ascending [`HostId`] —
/// the order a `BTreeMap<HostId, _>` would iterate in — so candidate
/// lists, and therefore every `rng.choose` index, follow host ids.
/// Candidates, picks, reservations and releases all address entries by
/// position, so no per-VM step searches the ledger.
#[derive(Clone, Debug, Default)]
struct CapacityLedger {
    entries: Vec<LedgerEntry>,
    /// Entry position of each host position in `view.hosts`, or
    /// `u32::MAX` for a compute host.
    entry_of: Vec<u32>,
    /// Hosts this plan wakes.
    woken: u32,
}

impl CapacityLedger {
    /// Refills the ledger from `view`, reusing its buffers.
    fn reset(&mut self, view: &ClusterView, index: &HostIndex, headroom: ByteSize) {
        self.entries.clear();
        for (p, h) in view.hosts.iter().enumerate() {
            if h.role != HostRole::Consolidation {
                continue;
            }
            let unreserved = h.capacity.saturating_sub(index.demand_at(view, p));
            self.entries.push(LedgerEntry {
                id: h.id,
                view_pos: p as u32,
                free: unreserved.saturating_sub(headroom),
                powered: h.powered,
                usable: h.powered,
                woken: false,
            });
        }
        // Ids are unique, so the unstable sort orders exactly as a
        // stable one would (and is a no-op on the simulator's id-ordered
        // hosts).
        self.entries.sort_unstable_by_key(|e| e.id);
        self.entry_of.clear();
        self.entry_of.resize(view.hosts.len(), u32::MAX);
        for (i, e) in self.entries.iter().enumerate() {
            self.entry_of[e.view_pos as usize] = i as u32;
        }
        self.woken = 0;
    }

    /// Writes the positions of the usable entries that can fit `need`
    /// into the front of `out` (which holds one slot per entry), in
    /// ascending id order, and returns how many there are. Every slot
    /// is written and the count advances by the predicate, so the loop
    /// has no data-dependent branch.
    fn candidates(&self, need: ByteSize, out: &mut [u32]) -> usize {
        let mut n = 0;
        for (i, e) in self.entries.iter().enumerate() {
            out[n] = i as u32;
            n += usize::from(e.usable & (e.free >= need));
        }
        n
    }

    /// Picks among `candidates` (entry positions) according to the
    /// strategy.
    fn choose(
        &self,
        candidates: &[u32],
        strategy: PlacementStrategy,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let key = |&&p: &&u32| {
            let e = &self.entries[p as usize];
            (e.free, e.id)
        };
        let pick = match strategy {
            PlacementStrategy::Random => rng.choose(candidates),
            // Positions ascend with ids: the first is the lowest id.
            PlacementStrategy::FirstFit => candidates.first(),
            PlacementStrategy::BestFit => candidates.iter().min_by_key(key),
            PlacementStrategy::WorstFit => candidates.iter().max_by_key(key),
        };
        pick.map(|&p| p as usize)
    }

    /// Wakes the sleeping host with the most free space that fits `need`.
    ///
    /// Ties break toward the highest id, matching `max_by_key` over the
    /// old map's ascending iteration (the last maximal element wins).
    fn wake_for(&mut self, need: ByteSize) -> Option<usize> {
        let (pos, _) = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.powered && e.free >= need)
            .max_by_key(|(_, e)| e.free)?;
        let e = &mut self.entries[pos];
        e.powered = true;
        e.usable = true;
        e.woken = true;
        self.woken += 1;
        Some(pos)
    }

    fn reserve(&mut self, pos: usize, need: ByteSize) {
        let free = &mut self.entries[pos].free;
        *free = free.saturating_sub(need);
    }

    fn release(&mut self, pos: usize, amount: ByteSize) {
        self.entries[pos].free += amount;
    }

    /// Copies the free column into `out`.
    fn save_free(&self, out: &mut Vec<ByteSize>) {
        out.clear();
        out.extend(self.entries.iter().map(|e| e.free));
    }

    /// Puts back a free column saved by [`Self::save_free`]. This undoes
    /// a failed host scan's reservations exactly: every reservation went
    /// to a host with `free ≥ need`, so none of them saturated.
    fn restore_free(&mut self, saved: &[ByteSize]) {
        for (e, &free) in self.entries.iter_mut().zip(saved) {
            e.free = free;
        }
    }
}

/// Aggregate inputs and outcomes of one planning round, recorded for
/// the decision audit trail.
///
/// Collected with pure counting — no extra RNG draws, no reordering —
/// so a run with stats enabled plans byte-identically to one without.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Candidate-set size the chooser examined for each *returned*
    /// action, aligned index-for-index with the action vector.
    pub action_candidates: Vec<u32>,
    /// FulltoPartial exchanges planned.
    pub exchanges: u32,
    /// Home hosts the vacate pass emptied.
    pub vacated: u32,
    /// Consolidation hosts the plan wakes.
    pub woken: u32,
    /// Net-energy verdict for the vacate pass.
    pub approved: bool,
    /// Consolidation hosts the drain pass emptied.
    pub drained: u32,
    /// Total candidate-set sizes examined, including placements later
    /// discarded with their host's failed vacate/drain attempt.
    pub candidates_examined: u32,
    /// Aggregate resident VM demand across the view, whole MiB.
    pub demand_mib: u64,
}

/// Everything one planning round writes: its result and its working
/// buffers. A caller that keeps one across rounds (as
/// [`ClusterManager`](crate::ClusterManager) does) makes a round
/// allocate nothing once the buffers have grown to the rack's size.
/// Nothing carries from one round to the next: every buffer is refilled
/// before it is read.
#[derive(Clone, Debug, Default)]
pub struct PlanBuffers {
    /// The round's actions, in execution order.
    pub actions: Vec<PlannedAction>,
    /// The round's stats; `action_candidates` is aligned with `actions`.
    pub stats: PlanStats,
    ledger: CapacityLedger,
    /// One slot per ledger entry; a filter writes its candidates to the
    /// front.
    candidates: Vec<u32>,
    /// The host queue being scanned: `(demand, id, position)`, where the
    /// position is a host position for the vacate pass and a ledger
    /// position for the drain pass.
    queue: Vec<(ByteSize, HostId, u32)>,
    /// The ledger's free column as it stood before the current scan.
    saved_free: Vec<ByteSize>,
}

/// Plans one consolidation interval into `buf`: `buf.actions` receives
/// the actions to execute and `buf.stats` the round's [`PlanStats`] for
/// the audit trail. A non-`AlwaysOn` round runs inside a
/// `plan_consolidation` profiler scope, so its cost shows up in the call
/// tree. The `planned_actions_total` counter is the manager's job (it
/// caches the handle across rounds).
pub fn plan_consolidation(
    telemetry: &oasis_telemetry::Telemetry,
    view: &ClusterView,
    policy: PolicyKind,
    config: &PlannerConfig,
    rng: &mut SimRng,
    external: Option<&dyn ResidencyIndex>,
    buf: &mut PlanBuffers,
) {
    // With a maintained `host_demand` aggregate the cluster-wide demand
    // is the sum of the per-host integer sums — bit-equal to the VM
    // scan (integer adds commute) at O(hosts) instead of O(VMs).
    let total_demand = if view.host_demand.len() == view.hosts.len() {
        view.host_demand.iter().copied().sum::<ByteSize>()
    } else {
        view.vms.iter().map(|v| v.demand).sum::<ByteSize>()
    };
    let PlanBuffers { actions, stats, ledger, candidates, queue, saved_free } = buf;
    actions.clear();
    let mut action_candidates = std::mem::take(&mut stats.action_candidates);
    action_candidates.clear();
    *stats =
        PlanStats { action_candidates, demand_mib: total_demand.as_mib(), ..PlanStats::default() };
    if policy == PolicyKind::AlwaysOn {
        return;
    }

    let scope = telemetry.profile("plan_consolidation");
    let index = HostIndex::new(view, external);
    ledger.reset(view, &index, config.promotion_headroom);
    candidates.clear();
    candidates.resize(ledger.entries.len(), 0);

    // Exchange pass (§3.2 FulltoPartial): a full VM gone idle on a
    // consolidation host is swapped for a partial replica of itself,
    // freeing `allocation − working set` on the spot.
    if policy.exchanges_full_for_partial() {
        let pass = telemetry.profile("exchange_pass");
        // A maintained candidate set (a superset of what the full sweep
        // would select, walked ascending — each entry is re-checked below)
        // replaces the every-round O(VMs) scan with a walk of only the
        // VMs that can match; the selected set, and everything derived
        // from it, is identical either way.
        let mut sweep = |vm: &VmView| {
            let on_consolidation =
                view.pos(vm.location).filter(|&p| view.hosts[p].role == HostRole::Consolidation);
            let has_remote_home = vm.home != vm.location;
            let exchangeable = !vm.partial && vm.state == VmState::Idle && has_remote_home;
            if let (Some(p), true) = (on_consolidation, exchangeable) {
                actions.push(PlannedAction::Exchange {
                    vm: vm.id,
                    home: vm.home,
                    consolidation: vm.location,
                });
                stats.action_candidates.push(1);
                stats.exchanges += 1;
                stats.candidates_examined += 1;
                let entry = ledger.entry_of[p] as usize;
                ledger.release(entry, vm.allocation.saturating_sub(vm.partial_demand));
            }
        };
        match external.and_then(|e| e.full_idle_consolidated()) {
            Some(set) => {
                for vi in set.iter_ones() {
                    sweep(&view.vms[vi]);
                }
            }
            None => {
                for vm in &view.vms {
                    sweep(vm);
                }
            }
        }
        pass.end();
    }
    let exchanged = actions.len();

    // Vacate pass: queue of powered compute hosts by ascending demand.
    // Each host scan pushes its placements straight onto the action
    // list; a scan that fails truncates them away and restores the
    // ledger's free column (its wakes stay, as they always have).
    let pass = telemetry.profile("vacate_pass");
    queue.clear();
    for (p, h) in view.hosts.iter().enumerate() {
        if h.role == HostRole::Compute
            && h.powered
            && h.vacatable
            && index.residents_at(p).count_ones() > 0
        {
            queue.push((index.demand_at(view, p), h.id, p as u32));
        }
    }
    // `(demand, id)` keys are unique, so the unstable sort is exact.
    queue.sort_unstable_by_key(|&(demand, id, _)| (demand, id));

    let mut vacated = 0u32;
    for &(_, host, hp) in queue.iter() {
        let _host_scan = telemetry.profile("vacate_host_scan");
        let residents = index.residents_at(hp as usize);
        if policy == PolicyKind::OnlyPartial
            && residents.iter_ones().any(|vi| view.vms[vi].state.is_active())
        {
            continue; // Cannot vacate a host with active VMs.
        }
        let start = actions.len();
        ledger.save_free(saved_free);
        let mut ok = true;
        for vi in residents.iter_ones() {
            let vm = &view.vms[vi];
            let (kind, need) = match (policy, vm.state) {
                (PolicyKind::FullOnly, _) | (_, VmState::Active) => {
                    (MigrationType::Full, vm.allocation)
                }
                (_, VmState::Idle) => (MigrationType::Partial, vm.partial_demand),
            };
            let n = ledger.candidates(need, candidates);
            let mut examined = n as u32;
            stats.candidates_examined += examined;
            let destination = match ledger.choose(&candidates[..n], config.strategy, rng) {
                Some(d) => d,
                // Waking an additional consolidation host is justified by
                // idle working sets, not by active VMs: a consolidated
                // active VM will shortly bounce (exchange or return), so
                // the cluster only provisions powered consolidation
                // capacity "to host all idle (and a few active) VMs"
                // (§5.3) — actives ride along in whatever powered
                // capacity exists.
                None if kind == MigrationType::Partial || !policy.uses_partial() => {
                    match ledger.wake_for(need) {
                        Some(d) => {
                            examined += 1;
                            stats.candidates_examined += 1;
                            d
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                None => {
                    ok = false;
                    break;
                }
            };
            ledger.reserve(destination, need);
            let destination = ledger.entries[destination].id;
            actions.push(PlannedAction::Migrate {
                source: host,
                order: MigrationOrder { vm: vm.id, kind, destination },
            });
            stats.action_candidates.push(examined);
        }
        if ok {
            vacated += 1;
        } else {
            actions.truncate(start);
            stats.action_candidates.truncate(start);
            ledger.restore_free(saved_free);
        }
    }
    pass.end();

    // Net-energy check: do the vacated homes pay for the newly woken
    // consolidation hosts? An unapproved plan's placements go; its
    // reservations stay in the ledger.
    let saving = f64::from(vacated) * config.home_sleep_saving_watts;
    let cost = f64::from(ledger.woken) * config.consolidation_power_watts;
    let vacates_approved = saving > cost;
    stats.approved = vacates_approved;
    stats.woken = ledger.woken;
    stats.vacated = vacated;
    if !vacates_approved {
        actions.truncate(exchanged);
        stats.action_candidates.truncate(exchanged);
        // The suppressed plan's tentatively woken hosts are not
        // actually powering on: the drain pass must not use them.
        for e in ledger.entries.iter_mut().filter(|e| e.woken) {
            e.usable = false;
        }
    }

    // Drain pass: consolidation hosts left underused (e.g. after the
    // daytime peak) are emptied into their powered peers so they can
    // sleep — this is what packs all 900 VMs into three hosts at night
    // (§5.2). Draining never wakes a host, so it is a pure win for the
    // powered-host count.
    let pass = telemetry.profile("drain_pass");
    queue.clear();
    for (ep, e) in ledger.entries.iter().enumerate() {
        let p = e.view_pos as usize;
        if view.hosts[p].powered && index.residents_at(p).count_ones() > 0 {
            queue.push((index.demand_at(view, p), e.id, ep as u32));
        }
    }
    queue.sort_unstable_by_key(|&(demand, id, _)| (demand, id));
    let mut drained = 0u32;
    for &(_, host, ep) in queue.iter() {
        let _host_scan = telemetry.profile("drain_host_scan");
        let ep = ep as usize;
        let start = actions.len();
        ledger.save_free(saved_free);
        // A host never drains into itself; once drained it stays out.
        let was_usable = std::mem::replace(&mut ledger.entries[ep].usable, false);
        let mut ok = true;
        for vi in index.residents_at(ledger.entries[ep].view_pos as usize).iter_ones() {
            let vm = &view.vms[vi];
            let (kind, need) = if vm.partial {
                (MigrationType::Partial, vm.demand)
            } else {
                (MigrationType::Full, vm.allocation)
            };
            let n = ledger.candidates(need, candidates);
            stats.candidates_examined += n as u32;
            match ledger.choose(&candidates[..n], config.strategy, rng) {
                Some(destination) => {
                    ledger.reserve(destination, need);
                    let destination = ledger.entries[destination].id;
                    actions.push(PlannedAction::Migrate {
                        source: host,
                        order: MigrationOrder { vm: vm.id, kind, destination },
                    });
                    stats.action_candidates.push(n as u32);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            drained += 1;
        } else {
            actions.truncate(start);
            stats.action_candidates.truncate(start);
            ledger.restore_free(saved_free);
            ledger.entries[ep].usable = was_usable;
        }
    }
    stats.drained = drained;
    pass.end();
    scope.end();
    debug_assert_eq!(stats.action_candidates.len(), actions.len());
}

/// Handles a partial VM that became active (§3.2 state-change policies).
/// Returns the decision and the number of placement candidates the
/// policy examined, for the decision audit trail.
pub fn on_partial_activated(
    view: &ClusterView,
    vm_id: VmId,
    policy: PolicyKind,
    rng: &mut SimRng,
) -> (Option<ActivationDecision>, u32) {
    let Some(vm) = view.vm(vm_id) else {
        return (None, 0);
    };
    if !vm.partial {
        return (None, 0);
    }
    let need = vm.allocation.saturating_sub(vm.demand);
    if view.free_on(vm.location) >= need && policy != PolicyKind::OnlyPartial {
        // Default (and refinements): promote in place; the consolidation
        // host becomes the VM's new home.
        return (Some(ActivationDecision::PromoteInPlace { vm: vm_id }), 1);
    }
    if policy.relocates_on_saturation() {
        // NewHome: any other powered host with room for the full VM.
        let candidates: Vec<HostId> = view
            .hosts
            .iter()
            .filter(|h| h.powered && h.id != vm.location)
            .filter(|h| view.free_on(h.id) >= vm.allocation)
            .map(|h| h.id)
            .collect();
        if let Some(&destination) = rng.choose(&candidates) {
            return (
                Some(ActivationDecision::MoveTo { vm: vm_id, destination }),
                candidates.len() as u32,
            );
        }
    }
    // Default strategy: wake the home, return all of its VMs.
    (Some(ActivationDecision::ReturnHome { home: vm.home }), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::testutil::small_cluster;
    use oasis_vm::VmState;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    /// [`plan_consolidation`] with telemetry off and no maintained index.
    fn run_planner(
        view: &ClusterView,
        policy: PolicyKind,
        config: &PlannerConfig,
        rng: &mut SimRng,
    ) -> Vec<PlannedAction> {
        let mut buf = PlanBuffers::default();
        let telemetry = oasis_telemetry::Telemetry::disabled();
        plan_consolidation(&telemetry, view, policy, config, rng, None, &mut buf);
        buf.actions
    }

    /// Planner config without promotion headroom, for tests that size
    /// capacities exactly.
    fn exact_config() -> PlannerConfig {
        PlannerConfig { promotion_headroom: ByteSize::ZERO, ..PlannerConfig::default() }
    }

    #[test]
    fn always_on_plans_nothing() {
        let view = small_cluster(4, 2, 10);
        let plan = run_planner(&view, PolicyKind::AlwaysOn, &PlannerConfig::default(), &mut rng());
        assert!(plan.is_empty());
    }

    #[test]
    fn all_idle_cluster_vacates_every_home() {
        let view = small_cluster(6, 2, 10);
        let plan = run_planner(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        let migrations = plan.iter().filter(|a| matches!(a, PlannedAction::Migrate { .. })).count();
        assert_eq!(migrations, 60, "all 60 idle VMs consolidate");
        // All partial: 60 × 165 MiB ≈ 9.7 GiB fits one consolidation host.
        for a in &plan {
            if let PlannedAction::Migrate { order, .. } = a {
                assert_eq!(order.kind, MigrationType::Partial);
            }
        }
    }

    #[test]
    fn active_vms_migrate_full_under_default() {
        let mut view = small_cluster(2, 2, 4);
        view.hosts[2].powered = true; // A consolidation host is already up.
        view.vms[0].state = VmState::Active;
        let plan = run_planner(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        let fulls = plan
            .iter()
            .filter(|a| {
                matches!(a, PlannedAction::Migrate { order, .. } if order.kind == MigrationType::Full)
            })
            .count();
        assert_eq!(fulls, 1);
        assert_eq!(plan.len(), 8);
    }

    #[test]
    fn only_partial_skips_hosts_with_active_vms() {
        let mut view = small_cluster(2, 2, 4);
        view.hosts[2].powered = true; // A consolidation host is already up.
        view.vms[0].state = VmState::Active; // Host 0 has an active VM.
        let plan =
            run_planner(&view, PolicyKind::OnlyPartial, &PlannerConfig::default(), &mut rng());
        // Only host 1's four VMs move.
        assert_eq!(plan.len(), 4);
        for a in &plan {
            match a {
                PlannedAction::Migrate { source, order } => {
                    assert_eq!(*source, HostId(1));
                    assert_eq!(order.kind, MigrationType::Partial);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn full_only_uses_full_migrations_and_hits_capacity() {
        // 4 homes × 10 VMs × 4 GiB = 160 GiB of full VMs; one 192 GiB
        // consolidation host fits 48.
        let view = small_cluster(4, 1, 10);
        let plan = run_planner(&view, PolicyKind::FullOnly, &exact_config(), &mut rng());
        for a in &plan {
            if let PlannedAction::Migrate { order, .. } = a {
                assert_eq!(order.kind, MigrationType::Full);
            }
        }
        // Whole-host vacates only: 4 hosts of 40 GiB each → all 4 fit
        // (160 ≤ 192), so 40 migrations.
        assert_eq!(plan.len(), 40);
    }

    #[test]
    fn full_only_cannot_vacate_beyond_capacity() {
        // 6 homes × 10 VMs = 240 GiB of full VMs > 192 GiB capacity:
        // only 4 hosts (160 GiB) can be vacated.
        let view = small_cluster(6, 1, 10);
        let plan = run_planner(&view, PolicyKind::FullOnly, &exact_config(), &mut rng());
        assert_eq!(plan.len(), 40, "4 of 6 hosts vacated");
    }

    #[test]
    fn net_energy_check_blocks_wasteful_plans() {
        // One home host of idle VMs: vacating saves 47.1 W but waking a
        // consolidation host costs 102.2 W → plan suppressed.
        let view = small_cluster(1, 2, 10);
        let plan = run_planner(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        assert!(plan.is_empty(), "single-host vacate must not wake a host");
    }

    #[test]
    fn powered_consolidation_host_is_free_to_use() {
        // Same single home host, but a consolidation host already powered:
        // no wake needed, so the plan proceeds.
        let mut view = small_cluster(1, 2, 10);
        view.hosts[1].powered = true;
        let plan = run_planner(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        assert_eq!(plan.len(), 10);
    }

    #[test]
    fn exchange_pass_swaps_idle_full_vms() {
        let mut view = small_cluster(2, 1, 2);
        // VM 0 sits as a *full idle* VM on the consolidation host (id 2).
        view.hosts[2].powered = true;
        view.vms[0].location = HostId(2);
        view.vms[0].partial = false;
        view.vms[0].state = VmState::Idle;
        let plan =
            run_planner(&view, PolicyKind::FullToPartial, &PlannerConfig::default(), &mut rng());
        assert!(plan.iter().any(|a| matches!(
            a,
            PlannedAction::Exchange { vm, home, consolidation }
                if *vm == view.vms[0].id && *home == HostId(0) && *consolidation == HostId(2)
        )));
        // Default policy never exchanges.
        let plan = run_planner(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        assert!(!plan.iter().any(|a| matches!(a, PlannedAction::Exchange { .. })));
    }

    #[test]
    fn exchange_skips_vms_homed_on_the_consolidation_host() {
        let mut view = small_cluster(1, 1, 1);
        view.hosts[1].powered = true;
        // The VM was promoted in place earlier: home == location == cons.
        view.vms[0].home = HostId(1);
        view.vms[0].location = HostId(1);
        view.vms[0].state = VmState::Idle;
        let plan =
            run_planner(&view, PolicyKind::FullToPartial, &PlannerConfig::default(), &mut rng());
        assert!(!plan.iter().any(|a| matches!(a, PlannedAction::Exchange { .. })));
    }

    #[test]
    fn activation_promotes_in_place_with_capacity() {
        let mut view = small_cluster(1, 1, 1);
        view.hosts[1].powered = true;
        view.vms[0].location = HostId(1);
        view.vms[0].partial = true;
        view.vms[0].state = VmState::Active;
        view.vms[0].demand = ByteSize::mib(165);
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::Default, &mut rng()).0;
        assert_eq!(d, Some(ActivationDecision::PromoteInPlace { vm: view.vms[0].id }));
    }

    #[test]
    fn activation_returns_home_when_saturated() {
        let mut view = small_cluster(1, 1, 2);
        view.hosts[1].powered = true;
        // Shrink the consolidation host so the promotion cannot fit.
        view.hosts[1].capacity = ByteSize::gib(1);
        for vm in &mut view.vms {
            vm.location = HostId(1);
            vm.partial = true;
            vm.demand = ByteSize::mib(165);
        }
        view.vms[0].state = VmState::Active;
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::Default, &mut rng()).0;
        match d {
            Some(ActivationDecision::ReturnHome { home }) => assert_eq!(home, HostId(0)),
            other => panic!("expected ReturnHome, got {other:?}"),
        }
    }

    #[test]
    fn newhome_relocates_when_saturated() {
        let mut view = small_cluster(2, 1, 2);
        view.hosts[2].powered = true;
        view.hosts[2].capacity = ByteSize::gib(1);
        for vm in &mut view.vms {
            vm.location = HostId(2);
            vm.partial = true;
            vm.demand = ByteSize::mib(165);
        }
        view.vms[0].state = VmState::Active;
        // Home hosts 0 and 1 are powered with 192 GiB free.
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::NewHome, &mut rng()).0;
        match d {
            Some(ActivationDecision::MoveTo { destination, .. }) => {
                assert!(destination == HostId(0) || destination == HostId(1));
            }
            other => panic!("expected MoveTo, got {other:?}"),
        }
    }

    #[test]
    fn only_partial_never_promotes() {
        let mut view = small_cluster(1, 1, 1);
        view.hosts[1].powered = true;
        view.vms[0].location = HostId(1);
        view.vms[0].partial = true;
        view.vms[0].demand = ByteSize::mib(165);
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::OnlyPartial, &mut rng()).0;
        assert!(matches!(d, Some(ActivationDecision::ReturnHome { .. })));
    }

    #[test]
    fn activation_of_full_vm_is_none() {
        let view = small_cluster(1, 1, 1);
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::Default, &mut rng()).0;
        assert_eq!(d, None);
        assert_eq!(
            on_partial_activated(&view, oasis_vm::VmId(9_999), PolicyKind::Default, &mut rng()).0,
            None
        );
    }

    #[test]
    fn placement_strategies_pick_as_specified() {
        // Three powered consolidation hosts with distinct free space.
        let mut view = small_cluster(1, 3, 1);
        for c in 1..=3 {
            view.hosts[c].powered = true;
        }
        view.hosts[1].capacity = ByteSize::gib(50);
        view.hosts[2].capacity = ByteSize::gib(150);
        view.hosts[3].capacity = ByteSize::gib(100);
        let need = ByteSize::gib(4);
        let index = HostIndex::new(&view, None);
        let mut ledger = CapacityLedger::default();
        ledger.reset(&view, &index, ByteSize::ZERO);
        let mut slots = vec![0; ledger.entries.len()];
        let n = ledger.candidates(need, &mut slots);
        let candidates = &slots[..n];
        assert_eq!(candidates, [0, 1, 2], "every host fits, in id order");
        let mut rng = SimRng::new(1);
        let id = |pick: Option<usize>| pick.map(|p| ledger.entries[p].id);
        assert_eq!(
            id(ledger.choose(candidates, PlacementStrategy::BestFit, &mut rng)),
            Some(HostId(1)),
            "least free space"
        );
        assert_eq!(
            id(ledger.choose(candidates, PlacementStrategy::WorstFit, &mut rng)),
            Some(HostId(2)),
            "most free space"
        );
        assert_eq!(
            id(ledger.choose(candidates, PlacementStrategy::FirstFit, &mut rng)),
            Some(HostId(1)),
            "lowest id"
        );
        let picked =
            ledger.choose(candidates, PlacementStrategy::Random, &mut rng).expect("non-empty");
        assert!(candidates.contains(&(picked as u32)));
        assert_eq!(ledger.choose(&[], PlacementStrategy::Random, &mut rng), None);
    }

    #[test]
    fn bestfit_packs_tighter_than_worstfit() {
        // Two powered consolidation hosts; vacate one home of idle VMs:
        // BestFit lands everything on a single host, WorstFit alternates.
        let mut view = small_cluster(1, 2, 10);
        view.hosts[1].powered = true;
        view.hosts[2].powered = true;
        for strategy in [PlacementStrategy::BestFit, PlacementStrategy::WorstFit] {
            let cfg = PlannerConfig { strategy, ..exact_config() };
            let plan = run_planner(&view, PolicyKind::Default, &cfg, &mut rng());
            let dests: std::collections::BTreeSet<HostId> = plan
                .iter()
                .filter_map(|a| match a {
                    PlannedAction::Migrate { order, .. } => Some(order.destination),
                    _ => None,
                })
                .collect();
            match strategy {
                PlacementStrategy::BestFit => {
                    assert_eq!(dests.len(), 1, "BestFit concentrates")
                }
                _ => assert_eq!(dests.len(), 2, "WorstFit spreads"),
            }
        }
    }

    #[test]
    fn vacate_prefers_low_demand_hosts() {
        // Capacity for only one host's worth of full VMs: the lighter
        // host must win the queue.
        let mut view = small_cluster(2, 1, 2);
        for vm in &mut view.vms {
            vm.state = VmState::Active; // Force full migrations.
        }
        // Host 1 has only one VM (remove one).
        view.vms.retain(|v| v.id != oasis_vm::VmId(1_001));
        view.hosts[2].capacity = ByteSize::gib(6); // Fits one 4 GiB VM.
        view.hosts[2].powered = true;
        let plan = run_planner(&view, PolicyKind::Default, &exact_config(), &mut rng());
        assert_eq!(plan.len(), 1);
        match &plan[0] {
            PlannedAction::Migrate { source, .. } => assert_eq!(*source, HostId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
