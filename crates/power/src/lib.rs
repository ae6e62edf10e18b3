//! Power states, ACPI S3 transitions and energy units.
//!
//! This crate models the energy side of Oasis:
//!
//! * [`profile`] — the measured energy profiles of the paper's Table 1
//!   (host idle/load/sleep power, S3 transition times and powers, memory
//!   server and SAS drive power) plus the alternative memory-server power
//!   budgets swept in Table 3.
//! * [`state`] — the host power-state machine (§3.1: *powered*,
//!   *low-power/sleep*, *in-transit*).
//! * [`acpi`] — a timed ACPI controller that sequences suspend-to-RAM and
//!   resume with the measured 3.1 s / 2.3 s latencies.
//! * [`meter`] — the joule/kilowatt-hour conversion and the savings
//!   fraction behind the percentages of §5.

#![warn(missing_docs)]

pub mod acpi;
pub mod meter;
pub mod profile;
pub mod state;

pub use acpi::AcpiController;
pub use profile::{HostEnergyProfile, MemoryServerProfile};
pub use state::PowerState;
