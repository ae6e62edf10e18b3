//! Per-VM pseudo-physical page tables.
//!
//! When the host agent creates a partial VM it builds page tables whose
//! entries are marked absent, so any access faults and memtap fetches the
//! page from the memory server (§4.2). This module models that structure
//! as one present bit per page, and nothing else: the hypervisor keeps
//! the unique-touch set in a [`WorkingSetTracker`] and the write log in a
//! [`DirtyLog`], and its chunk allocator hands out the backing frames.
//!
//! [`WorkingSetTracker`]: crate::wss::WorkingSetTracker
//! [`DirtyLog`]: crate::dirty::DirtyLog

use crate::addr::PageNum;
use crate::bitmap::Bitmap;

/// Outcome of a guest access through the page table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The page is resident; access completed.
    Hit,
    /// The page is absent; the vCPU blocks until the page is installed.
    Fault,
}

/// Error type for page-table operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageTableError {
    /// The page number exceeds the VM's allocation.
    OutOfRange(PageNum),
    /// Installing a page that is already present.
    AlreadyPresent(PageNum),
}

impl core::fmt::Display for PageTableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PageTableError::OutOfRange(p) => write!(f, "{p:?} beyond VM allocation"),
            PageTableError::AlreadyPresent(p) => write!(f, "{p:?} already present"),
        }
    }
}

impl std::error::Error for PageTableError {}

/// A VM's pseudo-physical page table: one present bit per page.
#[derive(Clone, Debug)]
pub struct PageTable {
    present: Bitmap,
}

impl PageTable {
    /// Creates a table for a fully resident VM (all entries present).
    pub fn new_resident(num_pages: u64) -> Self {
        let mut present = Bitmap::new(num_pages as usize);
        present.set_all();
        PageTable { present }
    }

    /// Creates a table for a partial VM (all entries absent, §4.2).
    pub fn new_absent(num_pages: u64) -> Self {
        PageTable { present: Bitmap::new(num_pages as usize) }
    }

    /// Number of resident pages.
    pub fn present_count(&self) -> u64 {
        self.present.count_ones() as u64
    }

    /// Number of pages the table covers.
    pub fn num_pages(&self) -> u64 {
        self.present.len() as u64
    }

    /// Present bits of pages `64 * w .. 64 * w + 64`, page `64 * w + i` at
    /// bit `i`; see [`Bitmap::word`].
    #[inline]
    pub fn present_word(&self, w: usize) -> u64 {
        self.present.word(w)
    }

    fn check_range(&self, page: PageNum) -> Result<usize, PageTableError> {
        let i = page.0 as usize;
        if i >= self.present.len() {
            Err(PageTableError::OutOfRange(page))
        } else {
            Ok(i)
        }
    }

    /// Performs a guest access; returns [`Access::Fault`] for absent pages.
    ///
    /// Reads and writes resolve alike: the table holds no accessed or
    /// dirty bits, so the access kind changes nothing here.
    pub fn touch(&mut self, page: PageNum, _write: bool) -> Result<Access, PageTableError> {
        let i = self.check_range(page)?;
        Ok(if self.present.get(i) { Access::Hit } else { Access::Fault })
    }

    /// Marks a fetched page present, completing a fault.
    pub fn install(&mut self, page: PageNum) -> Result<(), PageTableError> {
        let i = self.check_range(page)?;
        if !self.present.set(i) {
            return Err(PageTableError::AlreadyPresent(page));
        }
        Ok(())
    }

    /// Iterates over resident page numbers in ascending order.
    pub fn present_pages(&self) -> impl Iterator<Item = PageNum> + '_ {
        self.present.iter_ones().map(|i| PageNum(i as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_table_hits() {
        let mut pt = PageTable::new_resident(100);
        assert_eq!(pt.present_count(), 100);
        assert_eq!(pt.touch(PageNum(5), false), Ok(Access::Hit));
        assert_eq!(pt.touch(PageNum(5), true), Ok(Access::Hit));
    }

    #[test]
    fn absent_table_faults_until_installed() {
        let mut pt = PageTable::new_absent(100);
        assert_eq!(pt.present_count(), 0);
        assert_eq!(pt.touch(PageNum(7), false), Ok(Access::Fault));
        pt.install(PageNum(7)).unwrap();
        assert_eq!(pt.touch(PageNum(7), false), Ok(Access::Hit));
        assert_eq!(pt.present_count(), 1);
    }

    #[test]
    fn double_install_rejected() {
        let mut pt = PageTable::new_absent(10);
        pt.install(PageNum(1)).unwrap();
        assert_eq!(pt.install(PageNum(1)), Err(PageTableError::AlreadyPresent(PageNum(1))));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut pt = PageTable::new_absent(10);
        assert_eq!(pt.touch(PageNum(10), false), Err(PageTableError::OutOfRange(PageNum(10))));
        assert!(pt.install(PageNum(11)).is_err());
    }

    #[test]
    fn present_words_follow_installs() {
        let mut pt = PageTable::new_absent(70);
        assert_eq!(pt.num_pages(), 70);
        pt.install(PageNum(3)).unwrap();
        pt.install(PageNum(65)).unwrap();
        assert_eq!((pt.present_word(0), pt.present_word(1)), (1 << 3, 1 << 1));
        assert_eq!(PageTable::new_resident(70).present_word(1), (1 << 6) - 1);
    }

    #[test]
    fn present_pages_iteration() {
        let mut pt = PageTable::new_absent(10);
        pt.install(PageNum(9)).unwrap();
        pt.install(PageNum(1)).unwrap();
        let pages: Vec<PageNum> = pt.present_pages().collect();
        assert_eq!(pages, vec![PageNum(1), PageNum(9)]);
    }
}
