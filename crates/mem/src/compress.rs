//! Real-time page compression.
//!
//! The prototype compresses every page with LZO before writing it to the
//! memory-server image and decompresses in memtap when servicing a fault
//! (§4.3). LZO itself is a C library; this module implements an equivalent
//! byte-oriented LZSS codec from scratch: greedy LZ77 parsing over a 4 KiB
//! window with a 3-byte hash chain, 12-bit offsets and 4-bit match lengths.
//! Like LZO it favours speed over ratio and never expands data by more than
//! the one-byte header (incompressible input is stored raw).
//!
//! The module also provides [`PageClass`], a synthetic page-content
//! generator with realistic compressibility classes, used by the functional
//! micro-benchmarks to populate VM memory images.

use oasis_sim::SimRng;

use crate::addr::PAGE_SIZE;

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 3;
/// Longest match encodable without the extension byte (3 + 14).
const SHORT_MATCH: usize = MIN_MATCH + 14;
/// Longest match overall: length nibble 15 escapes to an extra byte.
const MAX_MATCH: usize = SHORT_MATCH + 1 + 255;
/// Sliding-window size (12-bit offsets).
const WINDOW: usize = 4_096;
/// Number of hash-table slots.
const HASH_SLOTS: usize = 1 << 13;

/// Errors returned by [`decompress`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input is empty or has an unknown header byte.
    BadHeader,
    /// A match refers to data before the start of the output.
    BadOffset,
    /// The stream ended in the middle of a token.
    Truncated,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "unknown compression header"),
            CodecError::BadOffset => write!(f, "match offset out of range"),
            CodecError::Truncated => write!(f, "compressed stream truncated"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Empty slot of the hash-head table.
const NO_HEAD: u32 = u32::MAX;

/// The three bytes at `i`, little-endian in the low 24 bits.
#[inline]
fn load3(data: &[u8], i: usize) -> u32 {
    u32::from(data[i]) | u32::from(data[i + 1]) << 8 | u32::from(data[i + 2]) << 16
}

/// Hash-table slot of a 3-byte prefix.
#[inline]
fn hash3(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - 13)) as usize
}

/// Length of the common prefix of `data[cand..]` and `data[i..]`, capped
/// at `max_len` (`cand < i` and `i + max_len <= data.len()`): eight bytes
/// per compare, then byte by byte.
#[inline]
fn match_len(data: &[u8], cand: usize, i: usize, max_len: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8-byte slice"));
    let mut l = 0;
    while l + 8 <= max_len {
        let diff = word(cand + l) ^ word(i + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && data[cand + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Compresses `input`, returning a self-describing buffer.
///
/// The first byte is `1` for a compressed stream or `0` for raw storage
/// (chosen when compression would not shrink the data). The stream grows
/// monotonically, so compression stops as soon as it outgrows the input.
///
/// # Panics
///
/// Panics if `input` is 4 GiB or longer: the hash heads hold `u32`
/// positions.
///
/// # Examples
///
/// ```
/// use oasis_mem::compress::{compress, decompress};
///
/// let page = vec![0u8; 4096];
/// let packed = compress(&page);
/// assert!(packed.len() < 64);
/// assert_eq!(decompress(&packed).unwrap(), page);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    assert!(n < NO_HEAD as usize, "compress input of {n} bytes exceeds the u32 position range");
    // The stream is abandoned once it exceeds `n` bytes, and one token
    // (control byte plus an extended match) adds at most four.
    let mut out = vec![0u8; n + 5];
    out[0] = 1;
    let mut o = 1;
    let mut heads = [NO_HEAD; HASH_SLOTS];

    let mut i = 0;
    let mut control_pos = 0;
    let mut control_bit = 8;
    while i < n {
        if control_bit == 8 {
            control_pos = o;
            o += 1;
            control_bit = 0;
        }
        let mut best_len = 0;
        let mut best_off = 0;
        if i + MIN_MATCH <= n {
            let h = hash3(load3(input, i));
            let cand = heads[h];
            heads[h] = i as u32;
            if cand != NO_HEAD && i - cand as usize <= WINDOW {
                let cand = cand as usize;
                let l = match_len(input, cand, i, MAX_MATCH.min(n - i));
                if l >= MIN_MATCH {
                    best_len = l;
                    best_off = i - cand;
                }
            }
        }
        if best_len >= MIN_MATCH {
            out[control_pos] |= 1 << control_bit;
            let off = best_off - 1; // Offsets are stored biased by one.
            out[o] = (off & 0xFF) as u8;
            if best_len <= SHORT_MATCH {
                out[o + 1] = (((off >> 8) as u8) << 4) | (best_len - MIN_MATCH) as u8;
                o += 2;
            } else {
                // Length nibble 15 escapes to an extension byte holding
                // `len - (SHORT_MATCH + 1)`.
                out[o + 1] = (((off >> 8) as u8) << 4) | 0x0F;
                out[o + 2] = (best_len - SHORT_MATCH - 1) as u8;
                o += 3;
            }
            // Insert hash entries inside the match so later data can refer
            // back into it; skip the last two positions (need 3 bytes).
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            for j in i + 1..end {
                heads[hash3(load3(input, j))] = j as u32;
            }
            i += best_len;
        } else {
            out[o] = input[i];
            o += 1;
            i += 1;
        }
        control_bit += 1;
        if o > n {
            break;
        }
    }

    if o > n {
        // Incompressible: store raw with a one-byte header.
        out[0] = 0;
        out[1..=n].copy_from_slice(input);
        o = n + 1;
    }
    out.truncate(o);
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let (&header, body) = packed.split_first().ok_or(CodecError::BadHeader)?;
    match header {
        0 => Ok(body.to_vec()),
        1 => decompress_stream(body),
        _ => Err(CodecError::BadHeader),
    }
}

fn decompress_stream(body: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(PAGE_SIZE as usize);
    let mut i = 0;
    while i < body.len() {
        let control = body[i];
        i += 1;
        for bit in 0..8 {
            if i >= body.len() {
                break;
            }
            if control & (1 << bit) == 0 {
                out.push(body[i]);
                i += 1;
            } else {
                if i + 1 >= body.len() {
                    return Err(CodecError::Truncated);
                }
                let b0 = body[i] as usize;
                let b1 = body[i + 1] as usize;
                i += 2;
                let off = (b0 | ((b1 >> 4) << 8)) + 1;
                let len = if b1 & 0x0F == 0x0F {
                    if i >= body.len() {
                        return Err(CodecError::Truncated);
                    }
                    let ext = body[i] as usize;
                    i += 1;
                    SHORT_MATCH + 1 + ext
                } else {
                    (b1 & 0x0F) + MIN_MATCH
                };
                if off > out.len() {
                    return Err(CodecError::BadOffset);
                }
                let start = out.len() - off;
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
        }
    }
    Ok(out)
}

/// Content class of a synthetic guest page, ordered from most to least
/// compressible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageClass {
    /// An untouched, zero-filled page.
    Zero,
    /// Text-like content: natural-language redundancy, compresses well.
    Text,
    /// Code/heap-like content: structured but varied.
    Code,
    /// High-entropy content (encrypted or already-compressed data).
    Random,
}

impl PageClass {
    /// All classes, most compressible first.
    ///
    /// The order matches the enum declaration so [`index`](PageClass::index)
    /// is a cast, not a scan.
    pub const ALL: [PageClass; 4] =
        [PageClass::Zero, PageClass::Text, PageClass::Code, PageClass::Random];

    /// This class's position in [`ALL`](PageClass::ALL).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Deterministically synthesizes one page of this class.
    ///
    /// The same `(class, seed)` pair always produces identical bytes, so a
    /// memory image can be regenerated anywhere without storing 4 GiB.
    pub fn synthesize(self, seed: u64) -> Vec<u8> {
        let n = PAGE_SIZE as usize;
        let mut rng = SimRng::new(seed ^ 0xC0FF_EE00);
        match self {
            PageClass::Zero => vec![0u8; n],
            PageClass::Text => {
                // Words drawn from a small dictionary with spaces: heavy
                // 3+ byte repetition, like log files or documents.
                const WORDS: [&str; 12] = [
                    "the", "page", "server", "memory", "idle", "virtual", "machine", "energy",
                    "sleep", "host", "cluster", "cache",
                ];
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let w = WORDS[rng.index(WORDS.len())];
                    out.extend_from_slice(w.as_bytes());
                    out.push(b' ');
                }
                out.truncate(n);
                out
            }
            PageClass::Code => {
                // 8-byte records with constant-ish headers and varying
                // payload bytes: pointer-rich heap/code pages.
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let base = rng.next_u64();
                    out.extend_from_slice(&[0x48, 0x8B, 0x05]);
                    out.extend_from_slice(&(base as u32).to_le_bytes());
                    out.push((base >> 56) as u8 & 0x0F);
                }
                out.truncate(n);
                out
            }
            PageClass::Random => {
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    out.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                out.truncate(n);
                out
            }
        }
    }

    /// Typical compression ratio (compressed/original) of this class under
    /// this codec, used by the statistical simulation level.
    pub fn typical_ratio(self) -> f64 {
        match self {
            PageClass::Zero => 0.02,
            PageClass::Text => 0.35,
            PageClass::Code => 0.75,
            PageClass::Random => 1.0,
        }
    }
}

/// Mix of page classes in a desktop VM's touched memory.
///
/// Used to derive an aggregate compression ratio for the statistical level;
/// weights follow published page-content surveys of desktop workloads
/// (large zero pools, text-heavy file cache, code, some incompressible
/// media).
#[derive(Clone, Copy, Debug)]
pub struct PageMix {
    /// Fraction of zero pages.
    pub zero: f64,
    /// Fraction of text-like pages.
    pub text: f64,
    /// Fraction of code-like pages.
    pub code: f64,
    /// Fraction of high-entropy pages.
    pub random: f64,
}

impl PageMix {
    /// A desktop VM's touched-page mix.
    pub fn desktop() -> Self {
        PageMix { zero: 0.15, text: 0.35, code: 0.35, random: 0.15 }
    }

    /// A server VM's touched-page mix (more code/heap, less media).
    pub fn server() -> Self {
        PageMix { zero: 0.20, text: 0.30, code: 0.45, random: 0.05 }
    }

    /// Aggregate compressed/original ratio for this mix.
    pub fn aggregate_ratio(&self) -> f64 {
        self.zero * PageClass::Zero.typical_ratio()
            + self.text * PageClass::Text.typical_ratio()
            + self.code * PageClass::Code.typical_ratio()
            + self.random * PageClass::Random.typical_ratio()
    }

    /// This mix's class-selection rule with its thresholds precomputed,
    /// for callers that classify many draws against one mix.
    pub fn classifier(&self) -> PageClassifier {
        let total = self.zero + self.text + self.code + self.random;
        let t0 = self.zero;
        let t1 = (self.zero + self.text).max(t0);
        let t2 = (self.zero + self.text + self.code).max(t1);
        PageClassifier { total, thresholds: [t0, t1, t2] }
    }

    /// The class the uniform draw `u` selects.
    pub fn class_for(&self, u: f64) -> PageClass {
        self.classifier().class_for(u)
    }

    /// Samples a page class according to the mix weights.
    pub fn sample(&self, rng: &mut SimRng) -> PageClass {
        self.class_for(rng.next_f64())
    }
}

/// A [`PageMix`]'s class-selection rule over one uniform draw, without
/// branches: the class index is 3 less the number of thresholds the draw,
/// scaled by the total weight, falls below.
///
/// The rule picks the first class whose cumulative weight exceeds the
/// scaled draw. Each threshold is the running maximum of those cumulative
/// weights, which keeps that first class and makes the thresholds ascend,
/// so counting them finds it for every mix, negative weights included. A
/// NaN draw falls below none and lands on `Random`.
#[derive(Clone, Copy, Debug)]
pub struct PageClassifier {
    total: f64,
    thresholds: [f64; 3],
}

impl PageClassifier {
    /// The class the uniform draw `u` selects.
    #[inline]
    pub fn class_for(&self, u: f64) -> PageClass {
        let x = u * self.total;
        let [t0, t1, t2] = self.thresholds;
        PageClass::ALL[3 - usize::from(x < t0) - usize::from(x < t1) - usize::from(x < t2)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The codec as it was before the `u32` head table and the 8-byte
    /// match extension: the byte-identity reference for [`compress`].
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        fn hash3(data: &[u8], i: usize) -> usize {
            let v = u32::from(data[i]) | u32::from(data[i + 1]) << 8 | u32::from(data[i + 2]) << 16;
            (v.wrapping_mul(0x9E37_79B1) >> (32 - 13)) as usize % HASH_SLOTS
        }
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        out.push(1u8);
        let mut heads = [usize::MAX; HASH_SLOTS];
        let mut i = 0;
        let mut control_pos = usize::MAX;
        let mut control_bit = 8;
        let mut push_flag = |out: &mut Vec<u8>, flag: bool| {
            if control_bit == 8 {
                control_pos = out.len();
                out.push(0);
                control_bit = 0;
            }
            if flag {
                out[control_pos] |= 1 << control_bit;
            }
            control_bit += 1;
        };
        while i < input.len() {
            let mut best_len = 0;
            let mut best_off = 0;
            if i + MIN_MATCH <= input.len() {
                let h = hash3(input, i);
                let cand = heads[h];
                heads[h] = i;
                if cand != usize::MAX && i - cand <= WINDOW && cand < i {
                    let max_len = MAX_MATCH.min(input.len() - i);
                    let mut l = 0;
                    while l < max_len && input[cand + l] == input[i + l] {
                        l += 1;
                    }
                    if l >= MIN_MATCH {
                        best_len = l;
                        best_off = i - cand;
                    }
                }
            }
            if best_len >= MIN_MATCH {
                push_flag(&mut out, true);
                let off = best_off - 1;
                out.push((off & 0xFF) as u8);
                if best_len <= SHORT_MATCH {
                    out.push((((off >> 8) as u8) << 4) | (best_len - MIN_MATCH) as u8);
                } else {
                    out.push((((off >> 8) as u8) << 4) | 0x0F);
                    out.push((best_len - SHORT_MATCH - 1) as u8);
                }
                let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
                let mut j = i + 1;
                while j < end {
                    heads[hash3(input, j)] = j;
                    j += 1;
                }
                i += best_len;
            } else {
                push_flag(&mut out, false);
                out.push(input[i]);
                i += 1;
            }
        }
        if out.len() > input.len() {
            let mut stored = Vec::with_capacity(input.len() + 1);
            stored.push(0u8);
            stored.extend_from_slice(input);
            return stored;
        }
        out
    }

    fn assert_same_bytes(input: &[u8], what: &str) {
        let packed = compress(input);
        assert_eq!(packed, reference_compress(input), "{what}: {} input bytes", input.len());
        assert_eq!(decompress(&packed).unwrap(), input, "{what}: round trip");
    }

    #[test]
    fn compress_matches_reference_on_every_class() {
        for class in PageClass::ALL {
            for seed in 0..32 {
                assert_same_bytes(&class.synthesize(seed), &format!("{class:?} seed {seed}"));
            }
        }
    }

    #[test]
    fn compress_matches_reference_on_random_and_run_heavy_inputs() {
        let mut rng = SimRng::new(0xC0DE);
        for case in 0..300 {
            let len = rng.index(9_000);
            // Alphabets from 1 to 256 symbols: one symbol is one long run,
            // a few symbols give dense short matches, 256 is noise.
            let alphabet = 1 + rng.index(256) as u64;
            let mut input: Vec<u8> = (0..len).map(|_| rng.below(alphabet) as u8).collect();
            assert_same_bytes(&input, &format!("case {case}, alphabet {alphabet}"));
            // Runs and copies of earlier spans, near and past the window
            // and past the longest encodable match.
            let mut at = 0;
            while at < len {
                let run = 1 + rng.index(600);
                let end = (at + run).min(len);
                if rng.chance(0.5) {
                    let byte = rng.next_u64() as u8;
                    input[at..end].fill(byte);
                } else if at > 0 {
                    let back = 1 + rng.index(at.min(WINDOW + 64));
                    for k in at..end {
                        input[k] = input[k - back];
                    }
                }
                at = end;
            }
            assert_same_bytes(&input, &format!("case {case}, run-heavy"));
        }
        for len in 0..40 {
            assert_same_bytes(&vec![7u8; len], &format!("short run of {len}"));
        }
    }

    #[test]
    fn class_index_round_trips_through_all() {
        for class in PageClass::ALL {
            assert_eq!(PageClass::ALL[class.index()], class);
        }
    }

    #[test]
    fn round_trip_empty() {
        let packed = compress(&[]);
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn round_trip_all_classes() {
        for class in PageClass::ALL {
            for seed in 0..8 {
                let page = class.synthesize(seed);
                assert_eq!(page.len(), PAGE_SIZE as usize);
                let packed = compress(&page);
                let back = decompress(&packed).unwrap();
                assert_eq!(back, page, "round trip failed for {class:?}");
            }
        }
    }

    #[test]
    fn zero_pages_compress_dramatically() {
        let page = PageClass::Zero.synthesize(1);
        let packed = compress(&page);
        assert!(packed.len() < 200, "zero page compressed to {}", packed.len());
    }

    #[test]
    fn text_pages_compress_well() {
        let page = PageClass::Text.synthesize(1);
        let packed = compress(&page);
        let ratio = packed.len() as f64 / page.len() as f64;
        assert!(ratio < 0.6, "text ratio {ratio}");
    }

    #[test]
    fn random_pages_fall_back_to_stored() {
        let page = PageClass::Random.synthesize(1);
        let packed = compress(&page);
        // Never expands by more than the header byte.
        assert_eq!(packed.len(), page.len() + 1);
        assert_eq!(packed[0], 0);
        assert_eq!(decompress(&packed).unwrap(), page);
    }

    #[test]
    fn synthesis_is_deterministic() {
        assert_eq!(PageClass::Code.synthesize(7), PageClass::Code.synthesize(7));
        assert_ne!(PageClass::Code.synthesize(7), PageClass::Code.synthesize(8));
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert_eq!(decompress(&[]), Err(CodecError::BadHeader));
        assert_eq!(decompress(&[9, 1, 2]), Err(CodecError::BadHeader));
        // Control byte demanding a match with no preceding output.
        assert_eq!(decompress(&[1, 0b0000_0001, 0, 0]), Err(CodecError::BadOffset));
        // Match token cut short.
        assert_eq!(decompress(&[1, 0b0000_0001, 0]), Err(CodecError::Truncated));
    }

    #[test]
    fn long_runs_use_max_matches() {
        let input: Vec<u8> = std::iter::repeat_n(b"abcabcabc".to_vec(), 400).flatten().collect();
        let packed = compress(&input);
        assert!(packed.len() < input.len() / 4);
        assert_eq!(decompress(&packed).unwrap(), input);
    }

    #[test]
    fn overlapping_match_copies() {
        // "aaaa..." forces matches that overlap their own output.
        let input = vec![b'a'; 1_000];
        let packed = compress(&input);
        assert_eq!(decompress(&packed).unwrap(), input);
        assert!(packed.len() < 100);
    }

    #[test]
    fn page_mix_ratio_ordering() {
        assert!(PageMix::desktop().aggregate_ratio() > 0.3);
        assert!(PageMix::desktop().aggregate_ratio() < 0.8);
        let mut ratios: Vec<f64> = PageClass::ALL.iter().map(|c| c.typical_ratio()).collect();
        let sorted = {
            let mut s = ratios.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        };
        assert_eq!(ratios, sorted, "ALL must be ordered most→least compressible");
        ratios.dedup();
        assert_eq!(ratios.len(), 4);
    }

    /// The class-selection rule as branches over the cumulative weights:
    /// the reference for [`PageClassifier`].
    fn reference_class_for(mix: &PageMix, u: f64) -> PageClass {
        let x = u * (mix.zero + mix.text + mix.code + mix.random);
        if x < mix.zero {
            PageClass::Zero
        } else if x < mix.zero + mix.text {
            PageClass::Text
        } else if x < mix.zero + mix.text + mix.code {
            PageClass::Code
        } else {
            PageClass::Random
        }
    }

    #[test]
    fn classifier_matches_the_branchy_rule() {
        // The two presets, zero weights inside and at the front, an
        // all-zero mix, negative weights and sums, and non-finite weights.
        let mixes = [
            PageMix::desktop(),
            PageMix::server(),
            PageMix { zero: 0.0, text: 0.6, code: 0.0, random: 0.4 },
            PageMix { zero: 0.0, text: 0.0, code: 0.0, random: 0.0 },
            PageMix { zero: 0.2, text: -0.9, code: 0.3, random: 0.1 },
            PageMix { zero: 0.3, text: -0.2, code: 0.5, random: 0.4 },
            PageMix { zero: -0.5, text: 0.0, code: -0.25, random: 0.0 },
            PageMix { zero: f64::NAN, text: 0.2, code: 0.5, random: 0.3 },
            PageMix { zero: 1e-300, text: 1e300, code: 0.0, random: 1.0 },
            PageMix { zero: f64::INFINITY, text: 0.2, code: 0.5, random: 0.3 },
        ];
        let mut draws = SimRng::new(0xC1A55);
        for mix in mixes {
            let classifier = mix.classifier();
            // Draws that land exactly on each cumulative weight, the ends
            // of the unit interval, NaN, then 10^6 uniform draws.
            let total = mix.zero + mix.text + mix.code + mix.random;
            let cumulative = [mix.zero, mix.zero + mix.text, mix.zero + mix.text + mix.code];
            let edges =
                cumulative.map(|c| c / total).into_iter().chain([0.0, 1.0 - 1e-16, f64::NAN]);
            for u in edges.chain((0..1_000_000).map(|_| draws.next_f64())) {
                assert_eq!(classifier.class_for(u), reference_class_for(&mix, u), "{mix:?} {u}");
            }
        }
    }

    #[test]
    fn page_mix_sampling_matches_weights() {
        let mix = PageMix::desktop();
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let zeros = (0..n).filter(|_| mix.sample(&mut rng) == PageClass::Zero).count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - mix.zero).abs() < 0.02, "zero fraction {frac}");
    }

    #[test]
    fn typical_ratios_are_representative() {
        // The hard-coded ratios used by the statistical level must stay
        // within 0.15 of what the real codec achieves on synthetic pages.
        for class in PageClass::ALL {
            let mut total_in = 0usize;
            let mut total_out = 0usize;
            for seed in 0..16 {
                let page = class.synthesize(seed);
                total_in += page.len();
                total_out += compress(&page).len();
            }
            let real = total_out as f64 / total_in as f64;
            let assumed = class.typical_ratio();
            assert!(
                (real - assumed).abs() < 0.15,
                "{class:?}: real {real:.3} vs assumed {assumed:.3}"
            );
        }
    }
}
