//! The cluster manager façade (§4.1).
//!
//! The manager plans each interval's consolidations and reacts to
//! partial-VM activations; the cluster simulator executes what it
//! returns and puts emptied hosts to sleep.

use oasis_sim::{SimDuration, SimRng};
use oasis_telemetry::metrics::Counter;
use oasis_telemetry::Telemetry;
use oasis_vm::VmId;

use oasis_telemetry::{DecisionClass, Event};

use crate::placement::{on_partial_activated, plan_consolidation, PlanBuffers, PlannerConfig};
use crate::policy::{ActivationDecision, PlannedAction, PolicyKind};
use crate::view::{ClusterView, ResidencyIndex};

/// Manager configuration.
#[derive(Clone, Copy, Debug)]
pub struct ManagerConfig {
    /// Consolidation policy.
    pub policy: PolicyKind,
    /// Planning-interval length ("The size of an interval is a
    /// configurable parameter", §3.1).
    pub interval: SimDuration,
    /// Energy parameters for the net-saving check.
    pub planner: PlannerConfig,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            policy: PolicyKind::FullToPartial,
            interval: SimDuration::from_mins(5),
            planner: PlannerConfig::default(),
        }
    }
}

/// Aggregate manager statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Planning rounds executed.
    pub rounds: u64,
    /// Actions emitted in total.
    pub actions: u64,
    /// Partial-VM activations handled.
    pub activations: u64,
}

/// The Oasis cluster manager.
#[derive(Clone, Debug)]
pub struct ClusterManager {
    config: ManagerConfig,
    rng: SimRng,
    stats: ManagerStats,
    telemetry: Telemetry,
    /// Decision ids of the most recent planning round, aligned index-for-
    /// index with the actions that round returned.
    last_plan_decision_ids: Vec<u64>,
    /// Decision id of the most recent activation handling.
    last_decision_id: u64,
    /// Cached `planned_actions_total{policy=…}` handle. The registry
    /// hands out `Arc`-backed instruments precisely so hot paths fetch
    /// once; re-fetching per round costs label allocation plus a locked
    /// map walk. Lazily filled so the counter still registers on the
    /// first round, exactly as the uncached fetch did.
    planned_actions: Option<Counter>,
    /// Cached `activations_total{outcome=…}` handles, indexed like the
    /// outcome match in [`Self::handle_activation`]. Lazy per outcome so
    /// the registered label sets stay identical to the uncached path.
    activation_counters: [Option<Counter>; 4],
    /// The planning round's working buffers, kept across rounds so a
    /// round allocates nothing once they have grown; boxed, and `None`
    /// after [`Self::release_buffers`], so a manager between days holds
    /// only a pointer.
    buffers: Option<Box<PlanBuffers>>,
}

impl ClusterManager {
    /// Creates a manager with the given configuration and seed.
    pub fn new(config: ManagerConfig, seed: u64) -> Self {
        ClusterManager {
            config,
            rng: SimRng::new(seed ^ 0x0A51_50A5),
            stats: ManagerStats::default(),
            telemetry: Telemetry::disabled(),
            last_plan_decision_ids: Vec::new(),
            last_decision_id: 0,
            planned_actions: None,
            activation_counters: [None, None, None, None],
            buffers: None,
        }
    }

    /// Routes the manager's events, counters and profile scopes through
    /// `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        // The cached handles point into the previous registry.
        self.planned_actions = None;
        self.activation_counters = [None, None, None, None];
    }

    /// The cached `planned_actions_total` handle, fetched on first use.
    fn planned_actions_counter(&mut self) -> &Counter {
        if self.planned_actions.is_none() {
            self.planned_actions = Some(
                self.telemetry
                    .metrics()
                    .counter("planned_actions_total", &[("policy", self.config.policy.name())]),
            );
        }
        self.planned_actions.as_ref().expect("just filled")
    }

    /// The active policy.
    pub fn policy(&self) -> PolicyKind {
        self.config.policy
    }

    /// The planning interval.
    pub fn interval(&self) -> SimDuration {
        self.config.interval
    }

    /// Statistics so far.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Runs one planning round over a snapshot (§3.1 "when to migrate").
    ///
    /// Every returned action gets a decision id (see
    /// [`Self::last_plan_decision_ids`]) and a `decision_made` audit
    /// record; the round itself is summarized in one `plan_audit` event
    /// carrying the planner's inputs.
    pub fn plan(&mut self, view: &ClusterView) -> Vec<PlannedAction> {
        self.plan_with(view, None)
    }

    /// [`Self::plan`] with an optional caller-maintained residency
    /// index; `Some` lets the placement search borrow the caller's
    /// aggregates instead of rebuilding its own from the VM vector. The
    /// index must satisfy the [`ResidencyIndex`] contract for `view`.
    ///
    /// The returned vector is the manager's own action buffer; handing
    /// it back with [`Self::recycle_actions`] once executed lets the next
    /// round reuse its allocation.
    pub fn plan_with(
        &mut self,
        view: &ClusterView,
        index: Option<&dyn ResidencyIndex>,
    ) -> Vec<PlannedAction> {
        let round = self.stats.rounds as u32;
        let mut buffers = self.buffers.take().unwrap_or_default();
        plan_consolidation(
            &self.telemetry,
            view,
            self.config.policy,
            &self.config.planner,
            &mut self.rng,
            index,
            &mut buffers,
        );
        let actions = std::mem::take(&mut buffers.actions);
        self.planned_actions_counter().add(actions.len() as u64);
        self.stats.rounds += 1;
        self.stats.actions += actions.len() as u64;
        let audit = self.telemetry.profile("audit");
        let plan_stats = &buffers.stats;
        self.last_plan_decision_ids.clear();
        for (i, action) in actions.iter().enumerate() {
            let decision = self.telemetry.next_decision_id();
            self.last_plan_decision_ids.push(decision);
            let candidates = plan_stats.action_candidates.get(i).copied().unwrap_or(0);
            let (class, vm, target) = match action {
                PlannedAction::Migrate { order, .. } => {
                    (DecisionClass::Consolidate, order.vm.0, order.destination.0)
                }
                PlannedAction::Exchange { vm, consolidation, .. } => {
                    (DecisionClass::Exchange, vm.0, consolidation.0)
                }
            };
            self.telemetry.emit(Event::DecisionMade { decision, class, vm, target, candidates });
        }
        self.telemetry.emit(Event::PlanAudit {
            interval: round,
            policy: self.config.policy.name(),
            decision_base: self.last_plan_decision_ids.first().copied().unwrap_or(0),
            actions: actions.len() as u32,
            exchanges: plan_stats.exchanges,
            vacated: plan_stats.vacated,
            woken: plan_stats.woken,
            approved: plan_stats.approved,
            drained: plan_stats.drained,
            candidates: plan_stats.candidates_examined,
            demand_mib: plan_stats.demand_mib,
        });
        audit.end();
        self.buffers = Some(buffers);
        actions
    }

    /// Takes back the vector [`Self::plan_with`] returned, so the next
    /// round plans into the same allocation.
    pub fn recycle_actions(&mut self, mut actions: Vec<PlannedAction>) {
        actions.clear();
        self.buffers.get_or_insert_with(Box::default).actions = actions;
    }

    /// Frees the planning buffers. A rack calls this when its day (or
    /// its share of an epoch) ends, so an idle rack holds no planner
    /// heap; the next round grows them afresh.
    pub fn release_buffers(&mut self) {
        self.buffers = None;
    }

    /// Decision ids allocated for the last planning round, aligned with
    /// the actions [`Self::plan`] returned.
    pub fn last_plan_decision_ids(&self) -> &[u64] {
        &self.last_plan_decision_ids
    }

    /// Decision id allocated for the last activation handling.
    pub fn last_decision_id(&self) -> u64 {
        self.last_decision_id
    }

    /// Reacts to a partial VM that became active (§3.2).
    pub fn handle_activation(
        &mut self,
        view: &ClusterView,
        vm: VmId,
    ) -> Option<ActivationDecision> {
        self.stats.activations += 1;
        let (decision, candidates) =
            on_partial_activated(view, vm, self.config.policy, &mut self.rng);
        let (oi, outcome) = match &decision {
            Some(ActivationDecision::PromoteInPlace { .. }) => (0, "promote_in_place"),
            Some(ActivationDecision::MoveTo { .. }) => (1, "move_to"),
            Some(ActivationDecision::ReturnHome { .. }) => (2, "return_home"),
            None => (3, "none"),
        };
        if self.activation_counters[oi].is_none() {
            self.activation_counters[oi] = Some(
                self.telemetry.metrics().counter("activations_total", &[("outcome", outcome)]),
            );
        }
        self.activation_counters[oi].as_ref().expect("just filled").inc();
        if let Some(d) = &decision {
            let id = self.telemetry.next_decision_id();
            self.last_decision_id = id;
            let (class, who, target) = match d {
                ActivationDecision::PromoteInPlace { vm } => {
                    let loc = view.vm(*vm).map_or(0, |v| v.location.0);
                    (DecisionClass::PromoteInPlace, vm.0, loc)
                }
                ActivationDecision::MoveTo { vm, destination } => {
                    (DecisionClass::Relocate, vm.0, destination.0)
                }
                ActivationDecision::ReturnHome { home } => {
                    (DecisionClass::ReturnHome, vm.0, home.0)
                }
            };
            self.telemetry.emit(Event::DecisionMade {
                decision: id,
                class,
                vm: who,
                target,
                candidates,
            });
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::testutil::small_cluster;
    use oasis_mem::ByteSize;
    use oasis_vm::HostId;

    fn manager(policy: PolicyKind) -> ClusterManager {
        ClusterManager::new(ManagerConfig { policy, ..ManagerConfig::default() }, 7)
    }

    #[test]
    fn plan_counts_stats() {
        let mut m = manager(PolicyKind::Default);
        let view = small_cluster(6, 2, 10);
        let actions = m.plan(&view);
        assert!(!actions.is_empty());
        assert_eq!(m.stats().rounds, 1);
        assert_eq!(m.stats().actions, actions.len() as u64);
    }

    #[test]
    fn activation_routed_to_policy() {
        let mut m = manager(PolicyKind::Default);
        let mut view = small_cluster(1, 1, 1);
        view.hosts[1].powered = true;
        view.vms[0].location = HostId(1);
        view.vms[0].partial = true;
        view.vms[0].demand = ByteSize::mib(165);
        let d = m.handle_activation(&view, view.vms[0].id);
        assert!(d.is_some());
        assert_eq!(m.stats().activations, 1);
    }
}
