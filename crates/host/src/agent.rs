//! The dom0 host agent (§4.2).
//!
//! The agent is the host-side arm of the cluster manager: it hosts the
//! VMs, marks them active or idle, and drives the host's ACPI interface.

use oasis_mem::ByteSize;
use oasis_power::{AcpiController, HostEnergyProfile, MemoryServerProfile};
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
    use oasis_power::PowerState;
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
    fn set_vm_state_updates_hosted_vm() {
        let mut a = home();
        add_vm(&mut a, 1, VmState::Active);
        a.set_vm_state(VmId(1), VmState::Idle).unwrap();
        assert_eq!(a.hypervisor.vm(VmId(1)).unwrap().vm.state, VmState::Idle);
        assert!(a.set_vm_state(VmId(9), VmState::Idle).is_err());
    }
}
