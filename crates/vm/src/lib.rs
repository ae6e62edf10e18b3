//! Virtual-machine model and workload classes.
//!
//! * [`vm`] — VM identity, the active/idle state machine of §3.1, and the
//!   memory footprint bookkeeping both simulation levels share.
//! * [`workload`] — idle memory-access models per VM class, calibrated to
//!   Figure 1 (desktop 188.2 MiB, web 37.6 MiB, database 30.6 MiB touched
//!   per idle hour) and Figure 2 (page-request inter-arrivals of 3.9 min
//!   for one database VM and 5.8 s for ten co-located VMs).
//! * [`apps`] — the desktop application catalog of Table 2 and the
//!   start-up footprints behind Figure 6.
//! * [`heartbeat`] — cluster-membership liveness (§1's Hadoop /
//!   Elasticsearch / ZooKeeper motivation): proves Oasis blackouts never
//!   expel a consolidated member.

#![warn(missing_docs)]

pub mod apps;
pub mod heartbeat;
pub mod vm;
pub mod workload;

pub use vm::{HostId, Vm, VmId, VmState};
pub use workload::{IdleAccessModel, WorkloadClass};
