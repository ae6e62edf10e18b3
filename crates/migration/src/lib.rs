//! VM migration mechanisms.
//!
//! Oasis combines two migration techniques (§2–3): **full** (pre-copy
//! live) migration for active VMs and **partial** migration for idle VMs,
//! plus **reintegration** of partial VMs back into their full images. For
//! background comparison the crate also models **post-copy** live
//! migration.
//!
//! * [`plan`] — the `<vmid, migration type, destination>` command tuples
//!   the cluster manager sends to host agents (§4.1).
//! * [`precopy`] — iterative pre-copy live migration (§2), used for full
//!   migrations because it degrades active workloads the least (§3.1).
//! * [`postcopy`] — post-copy live migration (§2), modeled for
//!   comparison benchmarks.
//! * [`partial`] — partial VM migration: suspend, compressed/differential
//!   memory upload to the memory server, descriptor push (§4.2–4.3).
//! * [`reintegration`] — dirty-state push back to the full image,
//!   including the overwrite-obviation optimization (§4.4.3).
//! * [`recovery`] — cancel-and-retry driver for stalled migrations,
//!   pacing re-attempts with a shared backoff policy.
//! * [`lab`] — a functional two-host laboratory replicating the §4.4
//!   micro-benchmark setup end to end.

#![warn(missing_docs)]

pub mod lab;
pub mod partial;
pub mod plan;
pub mod postcopy;
pub mod precopy;
pub mod recovery;
pub mod reintegration;

pub use plan::{MigrationOrder, MigrationType};
pub use precopy::{PrecopyConfig, PrecopyOutcome};
pub use recovery::{with_retries, AttemptOutcome};
