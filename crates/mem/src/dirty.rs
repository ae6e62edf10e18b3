//! Dirty-page logging.
//!
//! Differential upload and reintegration (§4.2–4.3) need the exact set of
//! pages dirtied since an epoch boundary — [`DirtyLog`], one bit per
//! guest page. It is the hypervisor's only write record: the page table
//! keeps no dirty bits. An epoch closes either into a page list
//! ([`DirtyLog::take_epoch`]) or, without one, straight into a
//! longer-lived bitmap ([`DirtyLog::drain_into`]), which is how the
//! micro-lab accumulates its differential-upload set.

use crate::addr::PageNum;
use crate::bitmap::Bitmap;

/// Epoch-based dirty-page log (a shadow page table's write tracking).
#[derive(Clone, Debug)]
pub struct DirtyLog {
    bits: Bitmap,
}

impl DirtyLog {
    /// Creates a log covering `num_pages` pages, all clean.
    pub fn new(num_pages: u64) -> Self {
        DirtyLog { bits: Bitmap::new(num_pages as usize) }
    }

    /// Records a write to `page`; out-of-range pages are ignored.
    pub fn record(&mut self, page: PageNum) {
        let i = page.0 as usize;
        if i < self.bits.len() {
            self.bits.set(i);
        }
    }

    /// Records writes to the pages `mask` selects in word `w` (page
    /// `64 * w + i` at bit `i`): [`record`](DirtyLog::record) on each.
    ///
    /// # Panics
    ///
    /// Panics if the mask selects a page beyond the log; see
    /// [`Bitmap::or_word`].
    #[inline]
    pub fn record_word(&mut self, w: usize, mask: u64) {
        self.bits.or_word(w, mask);
    }

    /// Number of distinct pages dirtied this epoch.
    pub fn dirty_count(&self) -> u64 {
        self.bits.count_ones() as u64
    }

    /// Closes the epoch: returns the dirtied pages and starts a new epoch.
    pub fn take_epoch(&mut self) -> Vec<PageNum> {
        self.bits.drain_ones().into_iter().map(|i| PageNum(i as u64)).collect()
    }

    /// Closes the epoch into `set`: ORs the dirtied pages into it and
    /// starts a new epoch.
    ///
    /// # Panics
    ///
    /// Panics if `set` does not have one bit per page of this log.
    pub fn drain_into(&mut self, set: &mut Bitmap) {
        set.union_with(&self.bits);
        self.bits.clear_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_log_epochs() {
        let mut log = DirtyLog::new(100);
        log.record(PageNum(1));
        log.record(PageNum(1));
        log.record(PageNum(50));
        assert_eq!(log.dirty_count(), 2);
        let epoch0 = log.take_epoch();
        assert_eq!(epoch0, vec![PageNum(1), PageNum(50)]);
        assert_eq!(log.dirty_count(), 0);
        log.record(PageNum(99));
        assert_eq!(log.take_epoch(), vec![PageNum(99)]);
    }

    #[test]
    fn drain_into_accumulates_epochs() {
        let mut log = DirtyLog::new(100);
        let mut set = Bitmap::new(100);
        log.record(PageNum(7));
        log.record(PageNum(40));
        log.drain_into(&mut set);
        assert_eq!(log.dirty_count(), 0);
        log.record(PageNum(40));
        log.record(PageNum(2));
        log.drain_into(&mut set);
        assert_eq!(set.iter_ones().collect::<Vec<_>>(), vec![2, 7, 40]);
        assert_eq!(set.count_ones(), 3);
        assert!(log.take_epoch().is_empty());
    }

    #[test]
    fn record_word_marks_each_selected_page() {
        let mut log = DirtyLog::new(130);
        log.record(PageNum(129));
        log.record_word(2, 0b11);
        log.record_word(0, 1 << 63);
        assert_eq!(log.dirty_count(), 3);
        assert_eq!(log.take_epoch(), vec![PageNum(63), PageNum(128), PageNum(129)]);
    }

    #[test]
    fn dirty_log_ignores_out_of_range() {
        let mut log = DirtyLog::new(10);
        log.record(PageNum(10));
        log.record(PageNum(1_000_000));
        assert_eq!(log.dirty_count(), 0);
        assert!(log.take_epoch().is_empty());
    }
}
