//! The dom0 host agent (§4.2).
//!
//! The agent is the host-side arm of the cluster manager: it creates and
//! destroys VMs, executes migrations, drives the host's ACPI interface,
//! and periodically reports host and per-VM statistics (collected through
//! Xen's xenstat interface in the prototype).

use oasis_mem::ByteSize;
use oasis_power::{AcpiController, HostEnergyProfile, MemoryServerProfile, PowerState};
use oasis_sim::SimTime;
use oasis_vm::vm::Residency;
use oasis_vm::{VmId, VmState};

use crate::hypervisor::{HvError, Hypervisor};
use crate::memserver::MemoryServer;

/// Role of a host in the cluster (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum HostRole {
    /// Runs VMs at full performance; VMs are created here.
    Home,
    /// Receives consolidated VMs; sleeps when unused.
    Consolidation,
}

/// Per-VM statistics reported to the cluster manager.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmStat {
    /// VM identifier.
    pub id: VmId,
    /// Activity state.
    pub state: VmState,
    /// Memory allocation.
    pub allocation: ByteSize,
    /// Memory demanded on this host (full allocation or working set).
    pub demand: ByteSize,
    /// Whether the VM runs as a partial VM.
    pub partial: bool,
}

/// Host statistics reported each interval (§4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostStats {
    /// Reporting host.
    pub host_id: u32,
    /// Host memory capacity.
    pub capacity: ByteSize,
    /// Sum of hosted VM memory demands.
    pub demand: ByteSize,
    /// Hosted VM count.
    pub vms: usize,
    /// Hosted active-VM count.
    pub active_vms: usize,
    /// Power state at report time.
    pub power: PowerState,
    /// Per-VM breakdown.
    pub per_vm: Vec<VmStat>,
}

/// The host agent: hypervisor + ACPI + (for home hosts) a memory server.
#[derive(Clone, Debug)]
pub struct HostAgent {
    /// Host identifier.
    pub host_id: u32,
    /// Cluster role.
    pub role: HostRole,
    /// The hypervisor under management.
    pub hypervisor: Hypervisor,
    /// ACPI power-state controller.
    pub acpi: AcpiController,
    /// The low-power memory server (home hosts only).
    pub memserver: Option<MemoryServer>,
}

impl HostAgent {
    /// Creates a home host's agent: powered, with a memory server.
    pub fn new_home(
        host_id: u32,
        capacity: ByteSize,
        host_profile: &HostEnergyProfile,
        ms_profile: MemoryServerProfile,
    ) -> Self {
        HostAgent {
            host_id,
            role: HostRole::Home,
            hypervisor: Hypervisor::new(capacity),
            acpi: AcpiController::new(host_profile),
            memserver: Some(MemoryServer::new(ms_profile)),
        }
    }

    /// Creates a consolidation host's agent: asleep by default (§3.1),
    /// without a powered memory server.
    pub fn new_consolidation(
        host_id: u32,
        capacity: ByteSize,
        host_profile: &HostEnergyProfile,
    ) -> Self {
        HostAgent {
            host_id,
            role: HostRole::Consolidation,
            hypervisor: Hypervisor::new(capacity),
            acpi: AcpiController::new_sleeping(host_profile),
            memserver: None,
        }
    }

    /// Number of hosted VMs in the active state.
    pub fn active_vm_count(&self) -> usize {
        self.hypervisor
            .vm_ids()
            .filter(|&id| self.hypervisor.vm(id).map(|h| h.vm.state.is_active()).unwrap_or(false))
            .count()
    }

    /// `true` when the host may be suspended: powered, and no VMs remain.
    ///
    /// "Hosts with active VMs running on them should never sleep" (§3.1);
    /// Oasis only sleeps hosts once *all* their VMs have been migrated out.
    pub fn can_sleep(&self) -> bool {
        self.acpi.state() == PowerState::Powered && self.hypervisor.vm_count() == 0
    }

    /// Collects the periodic statistics report (§4.1).
    pub fn report(&self, _now: SimTime) -> HostStats {
        let per_vm: Vec<VmStat> = self
            .hypervisor
            .vm_ids()
            .filter_map(|id| self.hypervisor.vm(id).ok())
            .map(|h| VmStat {
                id: h.vm.id,
                state: h.vm.state,
                allocation: h.vm.allocation,
                demand: h.vm.memory_demand(),
                partial: h.vm.residency == Residency::Partial,
            })
            .collect();
        HostStats {
            host_id: self.host_id,
            capacity: self.hypervisor.capacity(),
            demand: self.hypervisor.memory_demand(),
            vms: per_vm.len(),
            active_vms: per_vm.iter().filter(|v| v.state.is_active()).count(),
            power: self.acpi.state(),
            per_vm,
        }
    }

    /// Marks a hosted VM active/idle.
    pub fn set_vm_state(&mut self, id: VmId, state: VmState) -> Result<(), HvError> {
        self.hypervisor.vm_mut(id)?.vm.state = state;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest::GuestMemoryImage;
    use oasis_mem::compress::PageMix;
    use oasis_vm::workload::WorkloadClass;
    use oasis_vm::Vm;

    fn home() -> HostAgent {
        HostAgent::new_home(
            1,
            ByteSize::gib(1),
            &HostEnergyProfile::table1(),
            MemoryServerProfile::prototype(),
        )
    }

    fn add_vm(agent: &mut HostAgent, id: u32, state: VmState) {
        let mut vm = Vm::new(VmId(id), WorkloadClass::Desktop, ByteSize::mib(64), 1);
        vm.state = state;
        let image = GuestMemoryImage::new(u64::from(id), PageMix::desktop(), 64 * 256);
        agent.hypervisor.create_full(vm, image).unwrap();
    }

    #[test]
    fn home_host_is_powered_with_memserver() {
        let a = home();
        assert_eq!(a.acpi.state(), PowerState::Powered);
        assert!(a.memserver.is_some());
        assert_eq!(a.role, HostRole::Home);
    }

    #[test]
    fn consolidation_host_sleeps_by_default() {
        let a = HostAgent::new_consolidation(2, ByteSize::gib(1), &HostEnergyProfile::table1());
        assert_eq!(a.acpi.state(), PowerState::Sleeping);
        assert!(a.memserver.is_none());
    }

    #[test]
    fn can_sleep_only_when_empty() {
        let mut a = home();
        assert!(a.can_sleep());
        add_vm(&mut a, 1, VmState::Idle);
        assert!(!a.can_sleep(), "host with any VM must stay awake");
        a.hypervisor.destroy(VmId(1)).unwrap();
        assert!(a.can_sleep());
    }

    #[test]
    fn report_contents() {
        let mut a = home();
        add_vm(&mut a, 1, VmState::Active);
        add_vm(&mut a, 2, VmState::Idle);
        let r = a.report(SimTime::ZERO);
        assert_eq!(r.vms, 2);
        assert_eq!(r.active_vms, 1);
        assert_eq!(r.demand, ByteSize::mib(128));
        assert_eq!(r.per_vm.len(), 2);
        assert!(!r.per_vm[0].partial);
        assert_eq!(r.power, PowerState::Powered);
    }

    #[test]
    fn set_vm_state_updates_reports() {
        let mut a = home();
        add_vm(&mut a, 1, VmState::Active);
        assert_eq!(a.active_vm_count(), 1);
        a.set_vm_state(VmId(1), VmState::Idle).unwrap();
        assert_eq!(a.active_vm_count(), 0);
        assert!(a.set_vm_state(VmId(9), VmState::Idle).is_err());
    }
}
