//! The 2 MiB chunk frame allocator.
//!
//! Xen's page-fault handling was extended to allocate frames for partial
//! VMs on demand "at the granularity of a chunk consisting of 2 MiB in
//! order to reduce fragmentation of the host's heap" (§4.2). This module
//! models that allocator over a host's physical frame space: each owner
//! (VM) fills its current chunk before a new one is carved out, and all of
//! an owner's chunks are released together when its VM leaves the host.

use std::collections::BTreeMap;

use crate::addr::{MachineFrame, PAGE_SIZE};
use crate::size::ByteSize;

/// Allocation granularity of the host heap: one 2 MiB chunk (§4.2).
pub const CHUNK_SIZE: ByteSize = ByteSize::mib(2);

/// Frames per 2 MiB chunk.
pub const FRAMES_PER_CHUNK: u64 = CHUNK_SIZE.as_bytes() / PAGE_SIZE;

/// Error returned when the host has no free chunks left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory;

impl core::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "host heap exhausted: no free 2 MiB chunks")
    }
}

impl std::error::Error for OutOfMemory {}

/// Identifier of an allocation owner (one per hosted VM).
pub type OwnerId = u32;

#[derive(Clone, Debug)]
struct OwnerState {
    /// Chunk indices owned, in allocation order.
    chunks: Vec<u64>,
    /// Frames used within the most recent chunk.
    used_in_last: u64,
}

/// The free chunks, lowest index first, without a materialised list:
/// every chunk from `next_fresh` up is free, and `returned` holds the
/// freed chunks below it.
#[derive(Clone, Debug)]
struct FreeChunks {
    total: u64,
    /// Lowest chunk index never handed out.
    next_fresh: u64,
    /// Freed chunks, sorted descending so the lowest pops first.
    returned: Vec<u64>,
}

impl FreeChunks {
    fn len(&self) -> u64 {
        self.total - self.next_fresh + self.returned.len() as u64
    }

    /// Takes the lowest free chunk. A returned chunk is always below
    /// `next_fresh`, so it goes first.
    fn pop(&mut self) -> Option<u64> {
        if let Some(chunk) = self.returned.pop() {
            return Some(chunk);
        }
        (self.next_fresh < self.total).then(|| {
            self.next_fresh += 1;
            self.next_fresh - 1
        })
    }

    fn give_back(&mut self, chunks: Vec<u64>) {
        self.returned.extend(chunks);
        self.returned.sort_unstable_by(|a, b| b.cmp(a));
    }
}

/// A host's chunked physical-frame allocator.
#[derive(Clone, Debug)]
pub struct ChunkAllocator {
    free: FreeChunks,
    owners: BTreeMap<OwnerId, OwnerState>,
}

impl ChunkAllocator {
    /// Creates an allocator over `capacity` bytes of host memory.
    ///
    /// Capacity is rounded down to a whole number of 2 MiB chunks. Chunks
    /// are handed out lowest index first (deterministic and
    /// cache-friendly), and the allocator holds no per-chunk state until
    /// owners start returning chunks.
    pub fn new(capacity: ByteSize) -> Self {
        let total = capacity.as_bytes() / (FRAMES_PER_CHUNK * PAGE_SIZE);
        let free = FreeChunks { total, next_fresh: 0, returned: Vec::new() };
        ChunkAllocator { free, owners: BTreeMap::new() }
    }

    /// Chunks not yet handed to any owner.
    pub fn free_chunks(&self) -> u64 {
        self.free.len()
    }

    /// Allocates one frame for `owner`, carving a new chunk if needed.
    pub fn alloc_frame(&mut self, owner: OwnerId) -> Result<MachineFrame, OutOfMemory> {
        let state = self
            .owners
            .entry(owner)
            .or_insert(OwnerState { chunks: Vec::new(), used_in_last: FRAMES_PER_CHUNK });
        if state.used_in_last == FRAMES_PER_CHUNK {
            let chunk = self.free.pop().ok_or(OutOfMemory)?;
            state.chunks.push(chunk);
            state.used_in_last = 0;
        }
        let chunk = *state.chunks.last().expect("chunk pushed above");
        let frame = chunk * FRAMES_PER_CHUNK + state.used_in_last;
        state.used_in_last += 1;
        Ok(MachineFrame(frame))
    }

    /// Releases every chunk owned by `owner` (VM departed the host).
    ///
    /// Returns the number of chunks released.
    pub fn free_owner(&mut self, owner: OwnerId) -> u64 {
        if let Some(state) = self.owners.remove(&owner) {
            let n = state.chunks.len() as u64;
            self.free.give_back(state.chunks);
            n
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_sim::SimRng;

    #[test]
    fn chunk_geometry() {
        assert_eq!(FRAMES_PER_CHUNK, 512);
        let a = ChunkAllocator::new(ByteSize::mib(10));
        assert_eq!(a.free_chunks(), 5);
        assert_eq!(ChunkAllocator::new(ByteSize::mib(3)).free_chunks(), 1, "rounded down");
    }

    #[test]
    fn frames_fill_chunks_sequentially() {
        let mut a = ChunkAllocator::new(ByteSize::mib(4));
        let f0 = a.alloc_frame(1).unwrap();
        let f1 = a.alloc_frame(1).unwrap();
        assert_eq!(f0, MachineFrame(0));
        assert_eq!(f1, MachineFrame(1));
        assert_eq!(a.free_chunks(), 1);
        assert_eq!(a.alloc_frame(1), Ok(MachineFrame(2)), "the chunk fills before another");
        assert_eq!(a.free_chunks(), 1);
    }

    #[test]
    fn second_owner_gets_its_own_chunk() {
        let mut a = ChunkAllocator::new(ByteSize::mib(4));
        a.alloc_frame(1).unwrap();
        let f = a.alloc_frame(2).unwrap();
        assert_eq!(f, MachineFrame(FRAMES_PER_CHUNK));
        assert_eq!(a.free_chunks(), 0);
    }

    #[test]
    fn chunk_overflow_carves_next_chunk() {
        let mut a = ChunkAllocator::new(ByteSize::mib(4));
        for i in 0..FRAMES_PER_CHUNK {
            assert_eq!(a.alloc_frame(1), Ok(MachineFrame(i)));
        }
        assert_eq!(a.free_chunks(), 1);
        let f = a.alloc_frame(1).unwrap();
        assert_eq!(f, MachineFrame(FRAMES_PER_CHUNK));
        assert_eq!(a.free_chunks(), 0);
        assert_eq!(a.alloc_frame(1), Ok(MachineFrame(FRAMES_PER_CHUNK + 1)));
    }

    #[test]
    fn exhaustion_errors() {
        let mut a = ChunkAllocator::new(ByteSize::mib(2));
        for _ in 0..FRAMES_PER_CHUNK {
            a.alloc_frame(1).unwrap();
        }
        assert_eq!(a.alloc_frame(2), Err(OutOfMemory));
        assert_eq!(a.alloc_frame(1), Err(OutOfMemory));
    }

    #[test]
    fn free_owner_recycles_chunks() {
        let mut a = ChunkAllocator::new(ByteSize::mib(4));
        a.alloc_frame(1).unwrap();
        a.alloc_frame(2).unwrap();
        assert_eq!(a.free_chunks(), 0);
        assert_eq!(a.free_owner(1), 1);
        assert_eq!(a.free_chunks(), 1);
        assert_eq!(a.free_owner(1), 0, "a freed owner holds nothing");
        // Owner 3 reuses the lowest free chunk (owner 1's old chunk 0).
        let f = a.alloc_frame(3).unwrap();
        assert_eq!(f, MachineFrame(0));
        assert_eq!(a.free_owner(99), 0, "unknown owner frees nothing");
    }

    /// Internal fragmentation, observed through frames: a partly used
    /// chunk stays reserved for its owner.
    #[test]
    fn fragmentation_accounting() {
        let mut a = ChunkAllocator::new(ByteSize::mib(8));
        assert_eq!(a.alloc_frame(1), Ok(MachineFrame(0)));
        assert_eq!(a.alloc_frame(2), Ok(MachineFrame(FRAMES_PER_CHUNK)));
        // Owner 1's chunk still has 511 frames, and no one else gets them.
        for i in 1..FRAMES_PER_CHUNK {
            assert_eq!(a.alloc_frame(1), Ok(MachineFrame(i)));
        }
        assert_eq!(a.free_chunks(), 2);
        assert_eq!(a.alloc_frame(1), Ok(MachineFrame(2 * FRAMES_PER_CHUNK)));
        assert_eq!(a.free_owner(1), 2);
        assert_eq!(a.free_chunks(), 3);
        // Chunks come back lowest first: 0, then 2, then the fresh 3.
        assert_eq!(a.alloc_frame(4), Ok(MachineFrame(0)));
        assert_eq!(a.alloc_frame(5), Ok(MachineFrame(2 * FRAMES_PER_CHUNK)));
        assert_eq!(a.alloc_frame(6), Ok(MachineFrame(3 * FRAMES_PER_CHUNK)));
        assert_eq!(a.alloc_frame(7), Err(OutOfMemory));
    }

    /// The allocator with a materialised free list, kept sorted
    /// descending: the reference the fresh-counter allocator must match.
    struct FreeListModel {
        free: Vec<u64>,
        owners: BTreeMap<OwnerId, (Vec<u64>, u64)>,
    }

    impl FreeListModel {
        fn new(chunks: u64) -> Self {
            FreeListModel { free: (0..chunks).rev().collect(), owners: BTreeMap::new() }
        }

        fn alloc_frame(&mut self, owner: OwnerId) -> Result<MachineFrame, OutOfMemory> {
            let (chunks, used) = self.owners.entry(owner).or_insert((Vec::new(), FRAMES_PER_CHUNK));
            if *used == FRAMES_PER_CHUNK {
                chunks.push(self.free.pop().ok_or(OutOfMemory)?);
                *used = 0;
            }
            *used += 1;
            Ok(MachineFrame(chunks.last().unwrap() * FRAMES_PER_CHUNK + *used - 1))
        }

        fn free_owner(&mut self, owner: OwnerId) -> u64 {
            self.owners.remove(&owner).map_or(0, |(chunks, _)| {
                let n = chunks.len() as u64;
                self.free.extend(chunks);
                self.free.sort_unstable_by(|a, b| b.cmp(a));
                n
            })
        }
    }

    #[test]
    fn allocator_matches_the_free_list_model() {
        let mut rng = SimRng::new(0xC4_0C4);
        for case in 0..200 {
            let chunks = rng.below(12);
            let mut a = ChunkAllocator::new(ByteSize::mib(2 * chunks));
            let mut model = FreeListModel::new(chunks);
            for step in 0..400 {
                let owner = rng.below(7) as OwnerId;
                if rng.chance(0.15) {
                    assert_eq!(
                        a.free_owner(owner),
                        model.free_owner(owner),
                        "case {case} step {step}"
                    );
                } else {
                    // Bursts fill chunks, so owners cross chunk boundaries.
                    for _ in 0..1 + rng.below(300) {
                        let got = a.alloc_frame(owner);
                        assert_eq!(got, model.alloc_frame(owner), "case {case} step {step}");
                        if got.is_err() {
                            break;
                        }
                    }
                }
                assert_eq!(a.free_chunks(), model.free.len() as u64, "case {case} step {step}");
            }
        }
    }
}
