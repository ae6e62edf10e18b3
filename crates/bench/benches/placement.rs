//! Benches for the cluster manager's planning round.

use oasis_bench::timing::bench;
use oasis_core::manager::ManagerConfig;
use oasis_core::{ClusterManager, ClusterView, HostRole, HostView, PolicyKind, VmView};
use oasis_mem::ByteSize;
use oasis_vm::{HostId, VmId, VmState};
use std::hint::black_box;

/// Builds a §5.1-scale snapshot: 30 homes × 30 VMs + 4 consolidation
/// hosts, with a third of the VMs active.
fn paper_scale_view() -> ClusterView {
    let capacity = ByteSize::gib(192);
    let mut hosts = Vec::new();
    let mut vms = Vec::new();
    for h in 0..30u32 {
        hosts.push(HostView {
            id: HostId(h),
            role: HostRole::Compute,
            powered: true,
            vacatable: true,
            capacity,
        });
        for i in 0..30u32 {
            let id = h * 30 + i;
            vms.push(VmView {
                id: VmId(id),
                home: HostId(h),
                location: HostId(h),
                state: if id % 3 == 0 { VmState::Active } else { VmState::Idle },
                allocation: ByteSize::gib(4),
                demand: ByteSize::gib(4),
                partial_demand: ByteSize::mib(165),
                partial: false,
            });
        }
    }
    for c in 0..4u32 {
        hosts.push(HostView {
            id: HostId(30 + c),
            role: HostRole::Consolidation,
            powered: false,
            vacatable: true,
            capacity,
        });
    }
    let mut view = ClusterView { hosts, vms, host_demand: Vec::new() };
    view.rebuild_host_demand();
    view
}

fn main() {
    let view = paper_scale_view();
    for policy in [PolicyKind::Default, PolicyKind::FullToPartial, PolicyKind::NewHome] {
        let mut manager =
            ClusterManager::new(ManagerConfig { policy, ..ManagerConfig::default() }, 1);
        bench(&format!("manager.plan/{policy}"), || {
            black_box(manager.plan(&view));
        });
    }
}
