//! Consolidation policies (§3.2) and the planner's action vocabulary.

use core::fmt;
use core::str::FromStr;

use oasis_migration::MigrationOrder;
use oasis_vm::{HostId, VmId};

/// The policy family evaluated in §5.3, plus two baselines.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PolicyKind {
    /// Baseline: never consolidate; every host stays powered.
    AlwaysOn,
    /// Baseline for prior work [5, 15, 22, 28]: consolidation through full
    /// VM migration only.
    FullOnly,
    /// Exclusive use of partial migration (Jettison applied to servers): a
    /// home host is vacated only when *all* of its VMs are idle.
    OnlyPartial,
    /// The basic hybrid (§3.2 policy 1): idle VMs move partially, active
    /// VMs move in full; capacity exhaustion wakes the home and returns
    /// all its VMs.
    Default,
    /// §3.2 policy 2: additionally, a full VM that turns idle on a
    /// consolidation host is exchanged for a partial VM (via a temporary
    /// wake of its home), freeing consolidation memory.
    FullToPartial,
    /// §3.2 policy 3: like FullToPartial, but a partial VM that activates
    /// into a saturated host first tries any other powered host.
    NewHome,
}

impl PolicyKind {
    /// All policies in report order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::AlwaysOn,
        PolicyKind::FullOnly,
        PolicyKind::OnlyPartial,
        PolicyKind::Default,
        PolicyKind::FullToPartial,
        PolicyKind::NewHome,
    ];

    /// The four policies Figure 8 compares.
    pub const FIGURE8: [PolicyKind; 4] = [
        PolicyKind::OnlyPartial,
        PolicyKind::Default,
        PolicyKind::FullToPartial,
        PolicyKind::NewHome,
    ];

    /// `true` if the policy uses partial migration at all.
    pub fn uses_partial(self) -> bool {
        !matches!(self, PolicyKind::AlwaysOn | PolicyKind::FullOnly)
    }

    /// `true` if idle full VMs on consolidation hosts are exchanged for
    /// partial VMs.
    pub fn exchanges_full_for_partial(self) -> bool {
        matches!(self, PolicyKind::FullToPartial | PolicyKind::NewHome)
    }

    /// `true` if saturated activations try other powered hosts first.
    pub fn relocates_on_saturation(self) -> bool {
        matches!(self, PolicyKind::NewHome)
    }

    /// The policy's name as the paper writes it (its display form).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::AlwaysOn => "AlwaysOn",
            PolicyKind::FullOnly => "FullOnly",
            PolicyKind::OnlyPartial => "OnlyPartial",
            PolicyKind::Default => "Default",
            PolicyKind::FullToPartial => "FulltoPartial",
            PolicyKind::NewHome => "NewHome",
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "alwayson" | "always-on" => Ok(PolicyKind::AlwaysOn),
            "fullonly" | "full-only" => Ok(PolicyKind::FullOnly),
            "onlypartial" | "only-partial" => Ok(PolicyKind::OnlyPartial),
            "default" => Ok(PolicyKind::Default),
            "fulltopartial" | "full-to-partial" => Ok(PolicyKind::FullToPartial),
            "newhome" | "new-home" => Ok(PolicyKind::NewHome),
            other => Err(format!("unknown policy {other:?}")),
        }
    }
}

/// One step of a consolidation plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedAction {
    /// Migrate a VM from its current host.
    Migrate {
        /// Host currently running the VM.
        source: HostId,
        /// The `<vmid, type, destination>` tuple (§4.1).
        order: MigrationOrder,
    },
    /// FulltoPartial exchange (§3.2): fully migrate the idle VM back to
    /// its (temporarily woken) home, then partial-migrate it back to the
    /// same consolidation host.
    Exchange {
        /// VM to exchange.
        vm: VmId,
        /// Its home host, woken temporarily.
        home: HostId,
        /// The consolidation host keeping the (now partial) VM.
        consolidation: HostId,
    },
}

/// Decision for a partial VM that became active (§3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActivationDecision {
    /// The consolidation host has room: fetch the rest of the footprint;
    /// this host becomes the VM's new home.
    PromoteInPlace {
        /// The activating VM.
        vm: VmId,
    },
    /// NewHome only: move the VM in full to another powered host.
    MoveTo {
        /// The activating VM.
        vm: VmId,
        /// The chosen powered host.
        destination: HostId,
    },
    /// Wake the VM's home host and return *all* of its VMs (§3.2: once a
    /// host is awake, leaving its partial VMs consolidated is wasteful).
    ReturnHome {
        /// The home host to wake.
        home: HostId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix() {
        use PolicyKind::*;
        assert!(!AlwaysOn.uses_partial());
        assert!(!FullOnly.uses_partial());
        assert!(OnlyPartial.uses_partial());
        assert!(!Default.exchanges_full_for_partial());
        assert!(FullToPartial.exchanges_full_for_partial());
        assert!(NewHome.exchanges_full_for_partial());
        assert!(NewHome.relocates_on_saturation());
        assert!(!FullToPartial.relocates_on_saturation());
    }

    #[test]
    fn parse_round_trip() {
        for kind in PolicyKind::ALL {
            let parsed: PolicyKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<PolicyKind>().is_err());
        assert_eq!("full-to-partial".parse::<PolicyKind>(), Ok(PolicyKind::FullToPartial));
    }

    #[test]
    fn figure8_subset() {
        assert_eq!(PolicyKind::FIGURE8.len(), 4);
        assert!(PolicyKind::FIGURE8.iter().all(|p| p.uses_partial()));
    }
}
