//! Cluster snapshots for planning.
//!
//! The manager plans over an immutable view assembled from the periodic
//! host-agent reports (§4.1). Keeping the planner pure — snapshot in,
//! plan out — makes every policy unit-testable without a simulator.

use oasis_mem::{Bitmap, ByteSize};
use oasis_vm::{HostId, VmId, VmState};

/// Role of a host (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum HostRole {
    /// Compute host: VMs are created and run at full performance here.
    Compute,
    /// Consolidation host: receives consolidated VMs.
    Consolidation,
}

/// One host in the snapshot.
#[derive(Clone, Debug)]
pub struct HostView {
    /// Host identifier.
    pub id: HostId,
    /// Role in the cluster.
    pub role: HostRole,
    /// `true` when powered (or already waking); `false` in S3.
    pub powered: bool,
    /// `false` while the host is under a vacate cooldown (it was just
    /// woken to take VMs back and should not be re-emptied immediately).
    /// Only meaningful for compute hosts.
    pub vacatable: bool,
    /// Effective memory capacity (physical × over-commit factor).
    pub capacity: ByteSize,
}

/// One VM in the snapshot.
#[derive(Clone, Debug)]
pub struct VmView {
    /// VM identifier.
    pub id: VmId,
    /// The VM's home (owner) host.
    pub home: HostId,
    /// Where the VM currently runs.
    pub location: HostId,
    /// Activity state.
    pub state: VmState,
    /// Full memory allocation.
    pub allocation: ByteSize,
    /// Memory currently demanded at `location`.
    pub demand: ByteSize,
    /// Expected demand if consolidated as a partial VM (its idle working
    /// set — measured if known, sampled otherwise).
    pub partial_demand: ByteSize,
    /// `true` if currently running as a partial VM.
    pub partial: bool,
}

/// An immutable cluster snapshot.
#[derive(Clone, Debug, Default)]
pub struct ClusterView {
    /// All hosts.
    pub hosts: Vec<HostView>,
    /// All VMs.
    pub vms: Vec<VmView>,
    /// Per-host resident demand, positionally parallel to `hosts`.
    ///
    /// Optional fast path: when its length matches `hosts`, [`demand_on`]
    /// answers from this aggregate instead of scanning the VM vector.
    /// The simulator maintains it at the same mutation funnels as the
    /// host/VM views (see [`rebuild_host_demand`] for the from-scratch
    /// definition it must match); leaving it empty — the default for
    /// hand-built views — keeps the original scan.
    ///
    /// [`demand_on`]: ClusterView::demand_on
    /// [`rebuild_host_demand`]: ClusterView::rebuild_host_demand
    pub host_demand: Vec<ByteSize>,
}

impl ClusterView {
    /// Position of `id` in `hosts`: O(1) for the `hosts[id]` layout the
    /// simulator builds, falling back to a scan for arbitrary views. Ids
    /// are unique in a well-formed view, so both paths name the same host.
    pub(crate) fn pos(&self, id: HostId) -> Option<usize> {
        let p = id.0 as usize;
        if self.hosts.get(p).is_some_and(|h| h.id == id) {
            return Some(p);
        }
        self.hosts.iter().position(|h| h.id == id)
    }

    /// The host with the given id.
    pub fn host(&self, id: HostId) -> Option<&HostView> {
        self.pos(id).map(|p| &self.hosts[p])
    }

    /// Recomputes `host_demand` from the VM vector.
    ///
    /// The sums accumulate in VM-vector order with integer adds, so the
    /// aggregate is bit-equal to what the `demand_on` scan returns.
    pub fn rebuild_host_demand(&mut self) {
        let mut demand = vec![ByteSize::ZERO; self.hosts.len()];
        for i in 0..self.vms.len() {
            let vm = &self.vms[i];
            if let Some(p) = self.pos(vm.location) {
                demand[p] += vm.demand;
            }
        }
        self.host_demand = demand;
    }

    /// The VM with the given id (O(1) for the `vms[id]` layout the
    /// simulator builds, falling back to a scan for arbitrary views).
    pub fn vm(&self, id: VmId) -> Option<&VmView> {
        if let Some(v) = self.vms.get(id.0 as usize) {
            if v.id == id {
                return Some(v);
            }
        }
        self.vms.iter().find(|v| v.id == id)
    }

    /// VMs currently located on `host`.
    pub fn vms_on(&self, host: HostId) -> impl Iterator<Item = &VmView> + '_ {
        self.vms.iter().filter(move |v| v.location == host)
    }

    /// VMs whose home is `host`, wherever they run.
    pub fn vms_homed_at(&self, host: HostId) -> impl Iterator<Item = &VmView> + '_ {
        self.vms.iter().filter(move |v| v.home == host)
    }

    /// Total memory demanded on `host` right now.
    pub fn demand_on(&self, host: HostId) -> ByteSize {
        if self.host_demand.len() == self.hosts.len() {
            if let Some(p) = self.pos(host) {
                return self.host_demand[p];
            }
        }
        self.vms_on(host).map(|v| v.demand).sum()
    }

    /// Free capacity on `host` right now.
    pub fn free_on(&self, host: HostId) -> ByteSize {
        match self.host(host) {
            Some(h) => h.capacity.saturating_sub(self.demand_on(host)),
            None => ByteSize::ZERO,
        }
    }

    /// Compute hosts, in id order.
    pub fn compute_hosts(&self) -> impl Iterator<Item = &HostView> + '_ {
        self.hosts.iter().filter(|h| h.role == HostRole::Compute)
    }

    /// Consolidation hosts, in id order.
    pub fn consolidation_hosts(&self) -> impl Iterator<Item = &HostView> + '_ {
        self.hosts.iter().filter(|h| h.role == HostRole::Consolidation)
    }
}

/// Externally maintained residency aggregates the planner can borrow
/// instead of rebuilding its per-host index from the VM vector every
/// round.
///
/// An implementation must agree exactly with a from-scratch pass over
/// the view's VM vector: `residents(p)` is the set of indices of VMs
/// whose `location` is the host at position `p`, as a bitset over the VM
/// vector (its ascending iteration is VM-vector order). Per-host demand
/// comes from the view itself ([`ClusterView::demand_on`]). The
/// simulator's residency index (locked by its `verify_indices` recount
/// tests) is the canonical implementation.
pub trait ResidencyIndex {
    /// The residents of the host at position `pos`, by index into the
    /// view's VM vector.
    fn residents(&self, pos: usize) -> &Bitmap;
    /// Every full (non-partial) idle VM currently located on a
    /// consolidation host, by VM-vector index, when tracked. The
    /// exchange pass walks this set instead of the whole VM vector — the
    /// set must therefore be a superset of the VMs the full scan would
    /// select (the pass re-checks each candidate). `None` keeps the full
    /// scan.
    fn full_idle_consolidated(&self) -> Option<&Bitmap> {
        None
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Builds a small snapshot: `homes` compute hosts of `vms_per_host`
    /// idle VMs each (4 GiB allocation, 165 MiB working sets), plus
    /// `cons` sleeping consolidation hosts.
    pub fn small_cluster(homes: u32, cons: u32, vms_per_host: u32) -> ClusterView {
        let capacity = ByteSize::gib(192);
        let mut hosts = Vec::new();
        let mut vms = Vec::new();
        for h in 0..homes {
            hosts.push(HostView {
                id: HostId(h),
                role: HostRole::Compute,
                powered: true,
                vacatable: true,
                capacity,
            });
            for i in 0..vms_per_host {
                vms.push(VmView {
                    id: VmId(h * 1_000 + i),
                    home: HostId(h),
                    location: HostId(h),
                    state: VmState::Idle,
                    allocation: ByteSize::gib(4),
                    demand: ByteSize::gib(4),
                    partial_demand: ByteSize::mib(165),
                    partial: false,
                });
            }
        }
        for c in 0..cons {
            hosts.push(HostView {
                id: HostId(homes + c),
                role: HostRole::Consolidation,
                powered: false,
                vacatable: true,
                capacity,
            });
        }
        ClusterView { hosts, vms, host_demand: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::small_cluster;
    use super::*;

    #[test]
    fn lookups() {
        let view = small_cluster(2, 1, 3);
        assert_eq!(view.hosts.len(), 3);
        assert_eq!(view.vms.len(), 6);
        assert!(view.host(HostId(0)).is_some());
        assert!(view.host(HostId(9)).is_none());
        assert!(view.vm(VmId(1_001)).is_some());
        assert!(view.vm(VmId(5)).is_none());
    }

    #[test]
    fn demand_and_free() {
        let view = small_cluster(1, 1, 3);
        assert_eq!(view.demand_on(HostId(0)), ByteSize::gib(12));
        assert_eq!(view.free_on(HostId(0)), ByteSize::gib(180));
        assert_eq!(view.demand_on(HostId(1)), ByteSize::ZERO);
        assert_eq!(view.free_on(HostId(7)), ByteSize::ZERO, "unknown host");
    }

    #[test]
    fn host_demand_aggregate_matches_scan() {
        let mut view = small_cluster(2, 1, 3);
        view.vms[0].location = HostId(2); // One VM consolidated.
        view.vms[1].demand = ByteSize::mib(165);
        let scanned: Vec<ByteSize> = view.hosts.iter().map(|h| view.demand_on(h.id)).collect();
        view.rebuild_host_demand();
        assert_eq!(view.host_demand.len(), view.hosts.len());
        for (h, want) in view.hosts.iter().zip(&scanned) {
            assert_eq!(view.demand_on(h.id), *want, "aggregate diverges on {:?}", h.id);
        }
        assert_eq!(view.demand_on(HostId(9)), ByteSize::ZERO, "unknown host");
    }

    #[test]
    fn role_filters_and_power() {
        let view = small_cluster(2, 2, 1);
        assert_eq!(view.compute_hosts().count(), 2);
        assert_eq!(view.consolidation_hosts().count(), 2);
        assert!(view.compute_hosts().all(|h| h.powered));
        assert!(
            view.consolidation_hosts().all(|h| !h.powered),
            "consolidation hosts sleep by default"
        );
    }

    #[test]
    fn homed_at_tracks_home_not_location() {
        let mut view = small_cluster(2, 1, 2);
        // Move one VM's location away from home.
        view.vms[0].location = HostId(2);
        assert_eq!(view.vms_homed_at(HostId(0)).count(), 2);
        assert_eq!(view.vms_on(HostId(0)).count(), 1);
        assert_eq!(view.vms_on(HostId(2)).count(), 1);
    }
}
