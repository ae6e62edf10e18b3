//! Oasis: energy proportionality with hybrid server consolidation.
//!
//! This is the facade crate of the Oasis workspace, a from-scratch
//! reproduction of the EuroSys 2016 paper *"Oasis: Energy Proportionality
//! with Hybrid Server Consolidation"* (Zhi, Bila, de Lara). It re-exports
//! every subsystem so applications can depend on a single crate:
//!
//! * [`sim`] — deterministic discrete-event engine, RNG and statistics.
//! * [`telemetry`] — structured event tracing, metrics registry and span
//!   timing across the whole stack.
//! * [`power`] — power states, ACPI S3 transitions, energy units.
//! * [`mem`] — guest memory: page tables, dirty tracking, compression,
//!   working-set models.
//! * [`net`] — link transfer times, Wake-on-LAN, traffic accounting.
//! * [`faults`] — deterministic fault-injection schedules and the shared
//!   retry/backoff machinery behind every recovery path.
//! * [`trace`] — VDI user-activity traces and the synthetic activity model.
//! * [`vm`] — the VM state machine, workload classes and the application
//!   catalog.
//! * [`host`] — the host substrate: hypervisor model, host agent, memtap
//!   and the low-power memory server.
//! * [`migration`] — pre-copy, post-copy and partial migration plus
//!   reintegration.
//! * [`core`] — the paper's contribution: the cluster manager with its
//!   consolidation policies and greedy placement.
//! * [`cluster`] — the trace-driven whole-cluster simulator and the
//!   experiment harness behind every figure and table.
//!
//! # Quickstart
//!
//! ```
//! use oasis::cluster::{ClusterConfig, ClusterSim};
//! use oasis::core::PolicyKind;
//!
//! // A small weekday cluster: 4 home hosts of 30 VMs each, 2 consolidation
//! // hosts, managed with the paper's best policy.
//! let config = ClusterConfig::builder()
//!     .home_hosts(4)
//!     .consolidation_hosts(2)
//!     .vms_per_host(30)
//!     .policy(PolicyKind::FullToPartial)
//!     .seed(7)
//!     .build()
//!     .expect("valid configuration");
//! let report = ClusterSim::new(config).run_day();
//! assert!(report.energy_savings > 0.0);
//! ```

#![warn(missing_docs)]

pub use oasis_cluster as cluster;
pub use oasis_core as core;
pub use oasis_faults as faults;
pub use oasis_host as host;
pub use oasis_mem as mem;
pub use oasis_migration as migration;
pub use oasis_net as net;
pub use oasis_power as power;
pub use oasis_sim as sim;
pub use oasis_telemetry as telemetry;
pub use oasis_trace as trace;
pub use oasis_vm as vm;
