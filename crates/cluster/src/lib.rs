//! Trace-driven whole-cluster simulation (§5).
//!
//! This crate assembles every substrate into the evaluation environment
//! of §5.1: a 42-host rack (home + consolidation hosts behind a 10 GigE
//! top-of-rack switch), 900 desktop VMs of 4 GiB each, user activity from
//! sampled trace days, the Table 1 energy profiles, and the §5.1 migration
//! latencies (full 10 s, partial 7.2 s, reintegration 3.7 s, suspend
//! 3.1 s, resume 2.3 s).
//!
//! * [`config`] — cluster configuration with a validating builder.
//! * [`sim`] — the interval-driven simulator executing the manager's
//!   plans against the modeled cluster.
//! * [`results`] — the per-run report every figure is printed from.
//! * [`experiments`] — canned configurations for each table and figure.
//! * [`scenarios`] — the named stress-scenario registry (heterogeneous
//!   fleets, adversarial days) and its golden-digest report.
//! * [`shard`] — the datacenter tier: rack-sharded parallel simulation
//!   with deterministic epoch-barrier planning across racks.

#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod results;
pub mod scenarios;
mod session;
pub mod shard;
pub mod sim;

pub use config::{
    ActivitySpike, ClusterConfig, ClusterConfigBuilder, HostGeneration, ScenarioSpec,
};
pub use results::{DecisionCounts, SimReport, VmPlacement};
pub use scenarios::{GenerationEnergy, ScenarioReport};
pub use shard::{
    planner_scorecard, rack_config, run_datacenter_day, run_datacenter_day_with, DatacenterConfig,
    DatacenterReport, PlannerScope, ScorecardRow,
};
pub use sim::ClusterSim;
