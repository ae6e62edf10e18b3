//! User-day traces and their on-disk format.
//!
//! A user-day is a bit per 5-minute interval: set if the user generated
//! keyboard or mouse input during the interval (§5.1). The text format is
//! one line per user-day — `WD 0110…` or `WE 0001…` — easy to diff, grep
//! and regenerate.

use core::fmt;

use crate::model::DayKind;

/// Number of 5-minute intervals in a day.
pub const INTERVALS_PER_DAY: usize = 288;

/// Minutes per trace interval.
pub const INTERVAL_MINUTES: u64 = 5;

/// Errors from parsing trace text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A line did not start with a recognised day-kind tag.
    BadKind(String),
    /// A line's bit string had the wrong length.
    BadLength {
        /// 1-based line number.
        line: usize,
        /// Observed bit-string length.
        len: usize,
    },
    /// A bit character other than '0' or '1'.
    BadBit {
        /// 1-based line number.
        line: usize,
        /// The offending character.
        ch: char,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadKind(k) => write!(f, "unknown day kind tag {k:?}"),
            TraceError::BadLength { line, len } => {
                write!(f, "line {line}: expected {INTERVALS_PER_DAY} bits, got {len}")
            }
            TraceError::BadBit { line, ch } => write!(f, "line {line}: invalid bit {ch:?}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Words of a packed user-day: one bit per interval.
const WORDS: usize = INTERVALS_PER_DAY.div_ceil(64);

/// Mask of the interval bits in the last word.
const LAST_MASK: u64 = !0 >> (WORDS * 64 - INTERVALS_PER_DAY);

/// One user's activity over one day, packed one bit per interval (bit
/// `i % 64` of word `i / 64` is interval `i`) into 40 bytes held inline,
/// so a day makes no heap allocation of its own. Bits at and beyond
/// [`INTERVALS_PER_DAY`] are always clear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserDay {
    /// Weekday or weekend.
    pub kind: DayKind,
    bits: [u64; WORDS],
}

/// `bits` shifted `k` intervals later, dropping what passes the day's
/// end.
fn shifted_later(bits: &[u64; WORDS], k: usize) -> [u64; WORDS] {
    let (words, off) = (k / 64, k % 64);
    let mut out = [0u64; WORDS];
    for (i, o) in out.iter_mut().enumerate().skip(words) {
        let src = i - words;
        *o = bits[src] << off;
        if off != 0 && src > 0 {
            *o |= bits[src - 1] >> (64 - off);
        }
    }
    out[WORDS - 1] &= LAST_MASK;
    out
}

/// `bits` shifted `k` intervals earlier, dropping what passes midnight.
fn shifted_earlier(bits: &[u64; WORDS], k: usize) -> [u64; WORDS] {
    let (words, off) = (k / 64, k % 64);
    let mut out = [0u64; WORDS];
    for (i, o) in out.iter_mut().enumerate().take(WORDS.saturating_sub(words)) {
        let src = i + words;
        *o = bits[src] >> off;
        if off != 0 && src + 1 < WORDS {
            *o |= bits[src + 1] << (64 - off);
        }
    }
    out
}

impl UserDay {
    /// Creates a user-day from one activity flag per interval; pads with
    /// idle intervals or truncates to [`INTERVALS_PER_DAY`].
    pub fn new(kind: DayKind, active: impl IntoIterator<Item = bool>) -> Self {
        let mut day = UserDay::all_idle(kind);
        for (i, on) in active.into_iter().take(INTERVALS_PER_DAY).enumerate() {
            day.bits[i / 64] |= u64::from(on) << (i % 64);
        }
        day
    }

    /// A fully idle day.
    pub fn all_idle(kind: DayKind) -> Self {
        UserDay { kind, bits: [0; WORDS] }
    }

    /// `true` if the user was active in interval `i`.
    pub fn is_active(&self, i: usize) -> bool {
        i < INTERVALS_PER_DAY && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Rotates the activity pattern `k` intervals later in the day,
    /// wrapping at midnight. A rack simulated in a timezone `h` hours
    /// east of the trace corpus rotates by `h * 12` intervals so its
    /// users wake (and its hosts quiesce) at the shifted local times.
    pub fn rotate(&mut self, k: usize) {
        let k = k % INTERVALS_PER_DAY;
        if k != 0 {
            let later = shifted_later(&self.bits, k);
            let wrapped = shifted_earlier(&self.bits, INTERVALS_PER_DAY - k);
            for (w, (a, b)) in self.bits.iter_mut().zip(later.iter().zip(&wrapped)) {
                *w = a | b;
            }
        }
    }

    /// Forces activity over `[start, start + len)` intervals, wrapping at
    /// midnight — the flash-crowd combinator. Every interval in the
    /// window becomes active regardless of the sampled pattern; bits
    /// outside the window are untouched, so a zero-length spike is the
    /// identity.
    pub fn spike(&mut self, start: usize, len: usize) {
        let len = len.min(INTERVALS_PER_DAY);
        for off in 0..len {
            let i = (start + off) % INTERVALS_PER_DAY;
            self.bits[i / 64] |= 1 << (i % 64);
        }
    }

    /// The session edges of the day, ascending: every interval whose
    /// activity differs from the interval before it, with the activity
    /// it switches to. The day starts idle, so an active interval 0 is
    /// an edge.
    pub fn edges(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        // Word `w - 1`'s flips: each bit XOR the bit before it, which
        // for bit 0 is the previous word's top bit (`carry`).
        let (mut w, mut flips, mut carry) = (0, 0u64, 0u64);
        core::iter::from_fn(move || loop {
            if flips != 0 {
                let bit = flips.trailing_zeros() as usize;
                flips &= flips - 1;
                return Some(((w - 1) * 64 + bit, self.bits[w - 1] >> bit & 1 == 1));
            }
            if w == WORDS {
                return None;
            }
            let word = self.bits[w];
            flips = word ^ (word << 1 | carry);
            if w == WORDS - 1 {
                flips &= LAST_MASK;
            }
            carry = word >> 63;
            w += 1;
        })
    }

    /// Number of active intervals.
    pub fn active_intervals(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of the day spent active.
    pub fn active_fraction(&self) -> f64 {
        self.active_intervals() as f64 / INTERVALS_PER_DAY as f64
    }

    /// Serializes to a trace line.
    pub fn to_line(&self) -> String {
        let tag = match self.kind {
            DayKind::Weekday => "WD",
            DayKind::Weekend => "WE",
        };
        let bits: String =
            (0..INTERVALS_PER_DAY).map(|i| if self.is_active(i) { '1' } else { '0' }).collect();
        format!("{tag} {bits}")
    }
}

/// A collection of user-days (the trace library).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// All user-days, in insertion order.
    pub days: Vec<UserDay>,
}

impl TraceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// User-days of the given kind.
    pub fn of_kind(&self, kind: DayKind) -> Vec<&UserDay> {
        self.days.iter().filter(|d| d.kind == kind).collect()
    }

    /// Number of user-days.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// `true` if the set holds no user-days.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// Serializes the whole set, one line per user-day.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.days.len() * (INTERVALS_PER_DAY + 4));
        for d in &self.days {
            out.push_str(&d.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses trace text produced by [`to_text`](TraceSet::to_text).
    ///
    /// Blank lines and lines starting with `#` are skipped.
    pub fn from_text(text: &str) -> Result<TraceSet, TraceError> {
        let mut days = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (tag, bits) = line.split_once(' ').unwrap_or((line, ""));
            let kind = match tag {
                "WD" => DayKind::Weekday,
                "WE" => DayKind::Weekend,
                other => return Err(TraceError::BadKind(other.to_string())),
            };
            let bits = bits.trim();
            if bits.len() != INTERVALS_PER_DAY {
                return Err(TraceError::BadLength { line: lineno + 1, len: bits.len() });
            }
            let mut day = UserDay::all_idle(kind);
            for (i, ch) in bits.chars().enumerate() {
                match ch {
                    '0' => {}
                    '1' => day.spike(i, 1),
                    other => return Err(TraceError::BadBit { line: lineno + 1, ch: other }),
                }
            }
            days.push(day);
        }
        Ok(TraceSet { days })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_day() -> UserDay {
        let mut active = vec![false; INTERVALS_PER_DAY];
        for slot in active.iter_mut().take(150).skip(100) {
            *slot = true;
        }
        UserDay::new(DayKind::Weekday, active)
    }

    #[test]
    fn user_day_accessors() {
        let d = sample_day();
        assert!(d.is_active(120));
        assert!(!d.is_active(0));
        assert!(!d.is_active(10_000), "out of range is idle");
        assert_eq!(d.active_intervals(), 50);
        assert!((d.active_fraction() - 50.0 / 288.0).abs() < 1e-12);
    }

    #[test]
    fn rotate_wraps_and_preserves_mass() {
        let mut d = sample_day();
        d.rotate(12);
        assert_eq!(d.active_intervals(), 50, "rotation moves bits, never drops them");
        assert!(d.is_active(132), "interval 120 shifted 12 later");
        assert!(d.is_active(112), "the window's start shifted from 100");
        assert!(!d.is_active(111), "interval 99 was idle and stays idle");
        assert!(!d.is_active(162), "the window's end shifted from 149");
        // A full-day rotation (or any multiple) is the identity.
        let mut full = sample_day();
        full.rotate(INTERVALS_PER_DAY);
        assert_eq!(full, sample_day());
        full.rotate(INTERVALS_PER_DAY * 3 + 12);
        let mut twelve = sample_day();
        twelve.rotate(12);
        assert_eq!(full, twelve);
    }

    #[test]
    fn spike_forces_the_window_and_nothing_else() {
        let mut d = sample_day();
        d.spike(200, 20);
        for i in 200..220 {
            assert!(d.is_active(i), "interval {i} inside the spike");
        }
        assert!(!d.is_active(199));
        assert!(!d.is_active(220));
        assert!(d.is_active(120), "pre-existing activity survives");
        assert_eq!(d.active_intervals(), 70);
        // The window wraps at midnight and a zero-length spike is the
        // identity.
        let mut wrap = sample_day();
        wrap.spike(280, 16);
        assert!(wrap.is_active(287));
        assert!(wrap.is_active(0));
        assert!(wrap.is_active(7));
        assert!(!wrap.is_active(8));
        let mut zero = sample_day();
        zero.spike(0, 0);
        assert_eq!(zero, sample_day());
        // A spike longer than the day saturates rather than looping
        // forever.
        let mut sat = UserDay::all_idle(DayKind::Weekday);
        sat.spike(10, 10_000);
        assert_eq!(sat.active_intervals(), INTERVALS_PER_DAY);
    }

    #[test]
    fn new_pads_and_truncates() {
        let short = UserDay::new(DayKind::Weekend, vec![true; 3]);
        assert_eq!(short.to_line().len(), 3 + INTERVALS_PER_DAY);
        assert_eq!(short.active_intervals(), 3);
        let long = UserDay::new(DayKind::Weekend, vec![true; 500]);
        assert_eq!(long.to_line().len(), 3 + INTERVALS_PER_DAY);
        assert_eq!(long.active_intervals(), INTERVALS_PER_DAY);
    }

    #[test]
    fn text_round_trip() {
        let mut set = TraceSet::new();
        set.days.push(sample_day());
        set.days.push(UserDay::all_idle(DayKind::Weekend));
        let text = set.to_text();
        let parsed = TraceSet::from_text(&text).unwrap();
        assert_eq!(parsed, set);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = format!("# header\n\nWD {}\n", "0".repeat(INTERVALS_PER_DAY));
        let set = TraceSet::from_text(&text).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.days[0].kind, DayKind::Weekday);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(matches!(TraceSet::from_text("XX 0101"), Err(TraceError::BadKind(_))));
        assert!(matches!(TraceSet::from_text("WD 010"), Err(TraceError::BadLength { .. })));
        let bad_bits = format!("WD {}2", "0".repeat(INTERVALS_PER_DAY - 1));
        assert!(matches!(TraceSet::from_text(&bad_bits), Err(TraceError::BadBit { .. })));
    }

    #[test]
    fn of_kind_filters() {
        let mut set = TraceSet::new();
        set.days.push(UserDay::all_idle(DayKind::Weekday));
        set.days.push(UserDay::all_idle(DayKind::Weekend));
        set.days.push(UserDay::all_idle(DayKind::Weekday));
        assert_eq!(set.of_kind(DayKind::Weekday).len(), 2);
        assert_eq!(set.of_kind(DayKind::Weekend).len(), 1);
    }
}
