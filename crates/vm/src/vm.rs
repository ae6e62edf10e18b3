//! VM identity, state and memory footprint.
//!
//! §3.1: "We consider a VM to be in one of two states: active or idle."
//! An active VM needs its full memory allocation resident (assumption 3);
//! an idle VM needs only its working set (assumption 4). [`Vm`] carries
//! the bookkeeping both the functional and the statistical simulation
//! levels use: allocation, residency mode and working-set size.

use core::fmt;

use oasis_mem::ByteSize;

use crate::workload::WorkloadClass;

/// Unique VM identifier (the four-digit `vmid` of §4.1, widened).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

/// Unique host identifier within the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Debug for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{:04}", self.0)
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{:04}", self.0)
    }
}

/// Activity state of a VM (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum VmState {
    /// Processing real work; needs all assigned resources.
    Active,
    /// Only background activity; accesses a small resource fraction.
    Idle,
}

impl VmState {
    /// `true` for [`VmState::Active`].
    pub fn is_active(self) -> bool {
        matches!(self, VmState::Active)
    }
}

/// How much of the VM's memory lives on its current host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Residency {
    /// Full footprint resident (a "full VM").
    Full,
    /// Only the idle working set resident; missing pages fault in from the
    /// memory server (a "partial VM").
    Partial,
}

/// A virtual machine's control-plane view.
#[derive(Clone, Debug)]
pub struct Vm {
    /// Identifier.
    pub id: VmId,
    /// Workload class (drives the idle access model).
    pub class: WorkloadClass,
    /// Memory allocation (4 GiB for every VM in the evaluation).
    pub allocation: ByteSize,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Current activity state.
    pub state: VmState,
    /// Residency mode on the current host.
    pub residency: Residency,
    /// Working set currently resident when partial.
    pub resident_wss: ByteSize,
}

impl Vm {
    /// Creates an active, fully resident VM.
    pub fn new(id: VmId, class: WorkloadClass, allocation: ByteSize, vcpus: u32) -> Self {
        Vm {
            id,
            class,
            allocation,
            vcpus,
            state: VmState::Active,
            residency: Residency::Full,
            resident_wss: allocation,
        }
    }

    /// Switches to partial residency with the given initial working set.
    ///
    /// The working set is clamped to the allocation.
    pub fn make_partial(&mut self, wss: ByteSize) {
        self.residency = Residency::Partial;
        self.resident_wss = wss.min(self.allocation);
    }

    /// Switches to full residency.
    pub fn make_full(&mut self) {
        self.residency = Residency::Full;
        self.resident_wss = self.allocation;
    }

    /// Grows the resident working set (on-demand fetches), clamped to the
    /// allocation. Returns the actual growth.
    pub fn grow_wss(&mut self, delta: ByteSize) -> ByteSize {
        if self.residency == Residency::Full {
            return ByteSize::ZERO;
        }
        let before = self.resident_wss;
        self.resident_wss = (self.resident_wss + delta).min(self.allocation);
        self.resident_wss - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> Vm {
        Vm::new(VmId(42), WorkloadClass::Desktop, ByteSize::gib(4), 1)
    }

    #[test]
    fn new_vm_is_full_and_active() {
        let v = vm();
        assert!(v.state.is_active());
        assert_eq!(v.residency, Residency::Full);
        assert_eq!(v.resident_wss, ByteSize::gib(4));
    }

    #[test]
    fn partial_demands_only_wss() {
        let mut v = vm();
        v.make_partial(ByteSize::mib(160));
        assert_eq!(v.residency, Residency::Partial);
        assert_eq!(v.resident_wss, ByteSize::mib(160));
        v.make_full();
        assert_eq!(v.residency, Residency::Full);
        assert_eq!(v.resident_wss, ByteSize::gib(4));
    }

    #[test]
    fn partial_wss_clamped_to_allocation() {
        let mut v = vm();
        v.make_partial(ByteSize::gib(8));
        assert_eq!(v.resident_wss, ByteSize::gib(4));
    }

    #[test]
    fn wss_growth_clamps() {
        let mut v = vm();
        v.make_partial(ByteSize::mib(100));
        assert_eq!(v.grow_wss(ByteSize::mib(50)), ByteSize::mib(50));
        assert_eq!(v.resident_wss, ByteSize::mib(150));
        // Growth beyond the allocation clamps.
        let grown = v.grow_wss(ByteSize::gib(8));
        assert_eq!(v.resident_wss, ByteSize::gib(4));
        assert_eq!(grown, ByteSize::gib(4) - ByteSize::mib(150));
        // Full VMs do not grow.
        v.make_full();
        assert_eq!(v.grow_wss(ByteSize::mib(1)), ByteSize::ZERO);
    }

    #[test]
    fn vmid_formats_like_the_paper() {
        assert_eq!(VmId(7).to_string(), "vm0007");
        assert_eq!(format!("{:?}", VmId(1234)), "vm1234");
    }
}
