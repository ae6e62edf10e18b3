//! Network substrate: links, Wake-on-LAN and per-class traffic
//! accounting.
//!
//! The Oasis cluster moves bytes over three kinds of channels (§4):
//! the rack Ethernet (GigE in the prototype, 10 GigE in the simulated
//! rack), the private SAS channel between a host and its memory server,
//! and control traffic (Wake-on-LAN packets, migration RPCs). This crate
//! models them:
//!
//! * [`link`] — link specifications: bandwidth, latency and idle-link
//!   transfer times.
//! * [`wol`] — Wake-on-LAN magic packets (§4.1 wakes sleeping hosts with
//!   one before issuing migration or creation calls).
//! * [`traffic`] — byte accounting by traffic class, feeding the Figure 10
//!   transfer-breakdown experiment.

#![warn(missing_docs)]

pub mod link;
pub mod traffic;
pub mod wol;

pub use link::LinkSpec;
pub use traffic::{TrafficAccountant, TrafficClass};
pub use wol::{wake_with_retries, MagicPacket};
