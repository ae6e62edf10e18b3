//! Guest memory substrate for the Oasis reproduction.
//!
//! The paper's mechanism lives at the memory-management layer of Xen:
//! partial VMs run with page-table entries marked absent, fault on access,
//! and fetch pages from a memory server that stores an LZO-compressed image
//! (§4.2–4.3). This crate implements that layer as a functional model:
//!
//! * [`size`] — byte-size arithmetic and MiB/GiB formatting.
//! * [`addr`] — page numbers, machine frames and the 4 KiB page geometry.
//! * [`bitmap`] — compact bitsets backing page-table metadata.
//! * [`page_table`] — per-VM pseudo-physical page tables: one present bit
//!   per page, and absent-entry faulting.
//! * [`dirty`] — epoch-based dirty logging (shadow page table tracking,
//!   §4.2) for differential upload and reintegration.
//! * [`chunk`] — the 2 MiB chunk frame allocator the hypervisor uses to
//!   limit heap fragmentation (§4.2).
//! * [`compress`] — a from-scratch LZ77 real-time compressor standing in
//!   for LZO (§4.3), plus synthetic page-content generation with realistic
//!   compressibility classes.
//! * [`wss`] — idle working-set distribution (Jettison's
//!   165.63 ± 91.38 MiB) and working-set growth tracking.

#![warn(missing_docs)]

pub mod addr;
pub mod bitmap;
pub mod chunk;
pub mod compress;
pub mod dirty;
pub mod page_table;
pub mod size;
pub mod wss;

pub use addr::{PageNum, PAGE_SIZE};
pub use bitmap::Bitmap;
pub use compress::{compress, decompress};
pub use page_table::PageTable;
pub use size::ByteSize;
pub use wss::IdleWssDistribution;
