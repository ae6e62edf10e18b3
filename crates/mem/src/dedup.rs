//! Content-based page sharing (deduplication).
//!
//! Assumption 1 of the paper rests on "sophisticated memory sharing
//! techniques, such as ballooning and de-duplication, \[enabling\] memory
//! over-commitment by … a factor of 1.5". This module implements the
//! sharing half: a copy-on-write share pool in the style of VMware ESX
//! page sharing / KSM. Identical pages are stored once with a reference
//! count; a write to a shared page breaks the sharing (copy-on-write).
//!
//! The pool works on content *fingerprints* so callers can feed either
//! real page bytes (functional level) or synthesized fingerprints
//! (statistical level).

use std::collections::BTreeMap;

use crate::addr::PAGE_SIZE;

/// A 64-bit content fingerprint of one page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fingerprints real page bytes (FNV-1a over the content).
    ///
    /// A production deduplicator would follow the hash with a byte
    /// comparison to rule out collisions; at 64 bits the collision rate
    /// is negligible for the pool sizes simulated here, and the pool
    /// semantics are identical either way.
    pub fn of(bytes: &[u8]) -> Fingerprint {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Fingerprint(h)
    }

    /// The fingerprint of an all-zero page (precomputed hot path).
    pub fn zero_page() -> Fingerprint {
        Fingerprint::of(&[0u8; PAGE_SIZE as usize])
    }
}

/// Handle to one logical page registered in the pool.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct PageHandle(u64);

#[derive(Clone, Debug)]
struct ShareEntry {
    refs: u64,
}

/// A copy-on-write page-sharing pool.
///
/// # Examples
///
/// ```
/// use oasis_mem::dedup::{Fingerprint, SharePool};
///
/// let mut pool = SharePool::new();
/// let zero = Fingerprint::zero_page();
/// let a = pool.insert(zero);
/// let b = pool.insert(zero);
/// assert_eq!(pool.physical_pages(), 1, "two logical pages, one frame");
/// pool.write(b); // Copy-on-write breaks the sharing.
/// assert_eq!(pool.physical_pages(), 2);
/// pool.remove(a);
/// pool.remove(b);
/// assert_eq!(pool.physical_pages(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharePool {
    /// Shared frames by content.
    shared: BTreeMap<Fingerprint, ShareEntry>,
    /// Where each logical page points: shared content or a private frame.
    pages: BTreeMap<u64, Option<Fingerprint>>,
    next_handle: u64,
    /// Pages currently private (written / unsharable).
    private_pages: u64,
    /// Lifetime counters.
    cow_breaks: u64,
}

impl SharePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a logical page with the given content.
    pub fn insert(&mut self, content: Fingerprint) -> PageHandle {
        let handle = PageHandle(self.next_handle);
        self.next_handle += 1;
        self.shared.entry(content).and_modify(|e| e.refs += 1).or_insert(ShareEntry { refs: 1 });
        self.pages.insert(handle.0, Some(content));
        handle
    }

    /// Registers a logical page that can never be shared (e.g. pinned
    /// device memory).
    pub fn insert_private(&mut self) -> PageHandle {
        let handle = PageHandle(self.next_handle);
        self.next_handle += 1;
        self.pages.insert(handle.0, None);
        self.private_pages += 1;
        handle
    }

    /// Records a write to a page: if shared, the sharing breaks
    /// (copy-on-write) and the page becomes private.
    ///
    /// Returns `true` if a copy had to be made.
    pub fn write(&mut self, page: PageHandle) -> bool {
        match self.pages.get_mut(&page.0) {
            Some(slot @ Some(_)) => {
                let content = slot.take().expect("checked shared");
                self.private_pages += 1;
                let entry = self.shared.get_mut(&content).expect("refs track pages");
                entry.refs -= 1;
                let was_shared = entry.refs > 0;
                if entry.refs == 0 {
                    self.shared.remove(&content);
                }
                self.cow_breaks += 1;
                // A copy is physical work only if others still share it;
                // a sole owner just repurposes the frame.
                was_shared
            }
            _ => false,
        }
    }

    /// Re-registers a page's content after a write settled (a KSM-style
    /// scanner merging identical pages back).
    pub fn rescan(&mut self, page: PageHandle, content: Fingerprint) -> bool {
        match self.pages.get_mut(&page.0) {
            Some(slot @ None) => {
                *slot = Some(content);
                self.private_pages -= 1;
                self.shared
                    .entry(content)
                    .and_modify(|e| e.refs += 1)
                    .or_insert(ShareEntry { refs: 1 });
                true
            }
            _ => false,
        }
    }

    /// Unregisters a logical page.
    pub fn remove(&mut self, page: PageHandle) -> bool {
        match self.pages.remove(&page.0) {
            Some(Some(content)) => {
                let entry = self.shared.get_mut(&content).expect("refs track pages");
                entry.refs -= 1;
                if entry.refs == 0 {
                    self.shared.remove(&content);
                }
                true
            }
            Some(None) => {
                self.private_pages -= 1;
                true
            }
            None => false,
        }
    }

    /// Number of registered logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of physical frames actually needed.
    pub fn physical_pages(&self) -> u64 {
        self.shared.len() as u64 + self.private_pages
    }

    /// Over-commit factor achieved: logical / physical (1.0 when empty).
    pub fn overcommit_factor(&self) -> f64 {
        if self.physical_pages() == 0 {
            return 1.0;
        }
        self.logical_pages() as f64 / self.physical_pages() as f64
    }

    /// Copy-on-write breaks observed.
    pub fn cow_breaks(&self) -> u64 {
        self.cow_breaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_pages_share_one_frame() {
        let mut pool = SharePool::new();
        let zero = Fingerprint::zero_page();
        let handles: Vec<PageHandle> = (0..100).map(|_| pool.insert(zero)).collect();
        assert_eq!(pool.logical_pages(), 100);
        assert_eq!(pool.physical_pages(), 1);
        assert!((pool.overcommit_factor() - 100.0).abs() < 1e-9);
        for h in handles {
            pool.remove(h);
        }
        assert_eq!(pool.physical_pages(), 0);
        assert_eq!(pool.overcommit_factor(), 1.0);
    }

    #[test]
    fn distinct_pages_do_not_share() {
        let mut pool = SharePool::new();
        for i in 0..50u64 {
            pool.insert(Fingerprint(i));
        }
        assert_eq!(pool.physical_pages(), 50);
        assert!((pool.overcommit_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cow_break_on_write() {
        let mut pool = SharePool::new();
        let fp = Fingerprint(7);
        let a = pool.insert(fp);
        let b = pool.insert(fp);
        assert_eq!(pool.physical_pages(), 1);
        assert!(pool.write(a), "breaking a shared page copies");
        assert_eq!(pool.physical_pages(), 2);
        assert_eq!(pool.cow_breaks(), 1);
        // Writing the now-private page again copies nothing.
        assert!(!pool.write(a));
        // The sole remaining sharer writing also copies nothing.
        assert!(!pool.write(b));
        assert_eq!(pool.physical_pages(), 2);
    }

    #[test]
    fn rescan_remerges_pages() {
        let mut pool = SharePool::new();
        let fp = Fingerprint(9);
        let a = pool.insert(fp);
        let _b = pool.insert(fp);
        pool.write(a);
        assert_eq!(pool.physical_pages(), 2);
        assert!(pool.rescan(a, fp));
        assert_eq!(pool.physical_pages(), 1);
        assert!(!pool.rescan(a, fp), "already shared");
    }

    #[test]
    fn private_pages_never_share() {
        let mut pool = SharePool::new();
        let p = pool.insert_private();
        pool.insert_private();
        assert_eq!(pool.physical_pages(), 2);
        assert!(!pool.write(p), "private pages copy nothing");
        assert!(pool.remove(p));
        assert!(!pool.remove(p), "double remove");
        assert_eq!(pool.physical_pages(), 1);
    }

    #[test]
    fn fingerprints_of_real_pages() {
        let zero = vec![0u8; PAGE_SIZE as usize];
        assert_eq!(Fingerprint::of(&zero), Fingerprint::zero_page());
        let mut other = zero.clone();
        other[100] = 1;
        assert_ne!(Fingerprint::of(&other), Fingerprint::zero_page());
    }

    #[test]
    fn desktop_vm_mix_reaches_paper_overcommit() {
        // A freshly booted 4 GiB desktop: ~55 % untouched zero pages and
        // some duplicated library pages give well over the paper's 1.5x.
        use crate::compress::{PageClass, PageMix};
        use oasis_sim::SimRng;
        let mut pool = SharePool::new();
        let mut rng = SimRng::new(1);
        let mix = PageMix::desktop();
        for i in 0..10_000u64 {
            // 55 % untouched (zero), rest touched with some repeats.
            if rng.chance(0.55) {
                pool.insert(Fingerprint::zero_page());
            } else {
                let class = mix.sample(&mut rng);
                // Library pages repeat across processes: small id space.
                let id = match class {
                    PageClass::Code | PageClass::Text => rng.below(2_000),
                    _ => i | 1 << 40,
                };
                pool.insert(Fingerprint(id << 8 | class as u64));
            }
        }
        let factor = pool.overcommit_factor();
        assert!(factor > 1.5, "overcommit factor {factor}");
        assert!(factor < 5.0, "overcommit factor {factor}");
    }
}
