//! A compact fixed-size bitset.
//!
//! Page tables, working-set trackers and dirty logs each keep one bit per
//! page; a 4 GiB VM has over a million pages, so metadata must be dense.
//! This bitmap packs 64 bits per word and supports fast population counts
//! and iteration over set bits — the operations dirty-page scans and
//! working-set accounting rely on.

/// A fixed-size bitset over indices `0..len`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` zero bits.
    pub fn new(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len, ones: 0 }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (O(1); maintained incrementally).
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets bit `i`; returns `true` if the bit changed.
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & m == 0 {
            self.words[w] |= m;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Clears bit `i`; returns `true` if the bit changed.
    pub fn clear(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & m != 0 {
            self.words[w] &= !m;
            self.ones -= 1;
            true
        } else {
            false
        }
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Sets every bit.
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        // Mask off the bits beyond `len` in the last word.
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        self.ones = self.len;
    }

    /// Sets bits `start..start + n`; returns how many changed.
    ///
    /// Equivalent to `n` calls of [`set`](Bitmap::set), but applies whole
    /// 64-bit masks per word.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `len`.
    pub fn set_range(&mut self, start: usize, n: usize) -> usize {
        assert!(start + n <= self.len, "range {start}..{} out of range {}", start + n, self.len);
        let mut changed = 0;
        let (mut i, end) = (start, start + n);
        while i < end {
            let (w, bit) = (i / 64, i % 64);
            let span = (64 - bit).min(end - i);
            let mask = if span == 64 { !0u64 } else { ((1u64 << span) - 1) << bit };
            changed += (mask & !self.words[w]).count_ones() as usize;
            self.words[w] |= mask;
            i += span;
        }
        self.ones += changed;
        changed
    }

    /// Word `w`: bits `64 * w .. 64 * w + 64`, bit `i` of the word being
    /// index `64 * w + i`.
    ///
    /// # Panics
    ///
    /// Panics if the word holds no bit below `len`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Sets the bits of `mask` in word `w`; returns how many changed.
    ///
    /// Equivalent to [`set`](Bitmap::set) on each index the mask selects.
    ///
    /// # Panics
    ///
    /// Panics if the mask selects an index at or beyond `len`.
    #[inline]
    pub fn or_word(&mut self, w: usize, mask: u64) -> usize {
        let top = 64 * w + (64 - mask.leading_zeros() as usize);
        assert!(top <= self.len, "word {w} mask {mask:#x} out of range {}", self.len);
        let changed = (mask & !self.words[w]).count_ones() as usize;
        self.words[w] |= mask;
        self.ones += changed;
        changed
    }

    /// Iterates over the indices of set bits, in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones { words: &self.words, base: 0, word: self.words.first().copied().unwrap_or(0) }
    }

    /// Takes the set bits: returns their indices and clears the bitmap.
    pub fn drain_ones(&mut self) -> Vec<usize> {
        let ones: Vec<usize> = self.iter_ones().collect();
        self.clear_all();
        ones
    }

    /// Bitwise OR with another bitmap of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let mut ones = 0;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
            ones += a.count_ones() as usize;
        }
        self.ones = ones;
    }
}

/// Iterator over the set bits of a [`Bitmap`], ascending; see
/// [`Bitmap::iter_ones`].
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    /// The words after the current one.
    words: &'a [u64],
    /// Bit index of the current word's bit 0.
    base: usize,
    /// The current word's set bits not yet yielded.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (_, rest) = self.words.split_first()?;
            let &next = rest.first()?;
            self.words = rest;
            self.base += 64;
            self.word = next;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        assert!(b.set(0));
        assert!(!b.set(0), "setting twice reports no change");
        assert!(b.set(64));
        assert!(b.set(129));
        assert_eq!(b.count_ones(), 3);
        assert!(b.get(129));
        assert!(b.clear(64));
        assert!(!b.clear(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = Bitmap::new(10);
        b.get(10);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = Bitmap::new(200);
        for i in [3usize, 64, 65, 127, 128, 199] {
            b.set(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 127, 128, 199]);
        assert_eq!(Bitmap::new(0).iter_ones().next(), None);
    }

    #[test]
    fn drain_ones_clears() {
        let mut b = Bitmap::new(100);
        b.set(5);
        b.set(50);
        assert_eq!(b.drain_ones(), vec![5, 50]);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(5));
    }

    #[test]
    fn set_all_respects_length() {
        let mut b = Bitmap::new(70);
        b.set_all();
        assert_eq!(b.count_ones(), 70);
        assert_eq!(b.iter_ones().count(), 70);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn set_all_on_word_boundary() {
        let mut b = Bitmap::new(128);
        b.set_all();
        assert_eq!(b.count_ones(), 128);
    }

    #[test]
    fn union() {
        let mut a = Bitmap::new(100);
        let mut b = Bitmap::new(100);
        a.set(1);
        b.set(2);
        b.set(1);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn set_range_matches_per_bit() {
        let mut batched = Bitmap::new(300);
        let mut serial = Bitmap::new(300);
        serial.set(100);
        batched.set(100);
        let changed = batched.set_range(70, 150);
        let mut slow_changed = 0;
        for i in 70..220 {
            if serial.set(i) {
                slow_changed += 1;
            }
        }
        assert_eq!(batched, serial);
        assert_eq!(changed, slow_changed);
        assert_eq!(batched.count_ones(), serial.count_ones());
        assert_eq!(batched.set_range(0, 0), 0, "empty range is a no-op");
    }

    #[test]
    fn or_word_matches_per_bit_sets() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut words = Bitmap::new(200);
        let mut serial = Bitmap::new(200);
        for _ in 0..300 {
            let w = (next() % 4) as usize;
            let valid = if w == 3 { (1u64 << 8) - 1 } else { !0 };
            let mask = next() & next() & valid;
            let changed = words.or_word(w, mask);
            let slow = (0..64).filter(|&b| mask >> b & 1 == 1 && serial.set(64 * w + b)).count();
            assert_eq!(changed, slow);
            assert_eq!(words, serial);
            let bits = (0..64).filter(|&b| 64 * w + b < 200 && serial.get(64 * w + b));
            assert_eq!(words.word(w), bits.fold(0, |m, b| m | 1 << b));
        }
        assert_eq!(words.or_word(3, 0), 0, "empty mask is a no-op");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn or_word_past_end_panics() {
        Bitmap::new(100).or_word(1, 1 << 36);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_range_past_end_panics() {
        Bitmap::new(100).set_range(90, 11);
    }

    #[test]
    fn randomized_set_range_matches_bit_at_a_time() {
        // A pseudo-random bit soup; every range set must agree with the
        // per-bit reference.
        let mut b = Bitmap::new(517);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            b.set((next() % 517) as usize);
        }
        for _ in 0..100 {
            let start = (next() % 517) as usize;
            let n = (next() % (517 - start as u64 + 1)) as usize;
            let mut serial = b.clone();
            let changed = b.set_range(start, n);
            let slow = (start..start + n).filter(|&i| serial.set(i)).count();
            assert_eq!(b, serial, "set_range({start}, {n})");
            assert_eq!(changed, slow);
        }
    }
}
