//! Byte-size arithmetic with binary-unit formatting.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// A number of bytes.
///
/// # Examples
///
/// ```
/// use oasis_mem::ByteSize;
///
/// let vm_ram = ByteSize::gib(4);
/// assert_eq!(vm_ram.as_mib_f64(), 4096.0);
/// assert_eq!(vm_ram.to_string(), "4.0 GiB");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from raw bytes.
    pub const fn bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Creates a size from kibibytes.
    pub const fn kib(k: u64) -> Self {
        ByteSize(k * KIB)
    }

    /// Creates a size from mebibytes.
    pub const fn mib(m: u64) -> Self {
        ByteSize(m * MIB)
    }

    /// Creates a size from gibibytes.
    pub const fn gib(g: u64) -> Self {
        ByteSize(g * GIB)
    }

    /// Creates a size from fractional mebibytes (saturating at zero).
    pub fn from_mib_f64(m: f64) -> Self {
        if m <= 0.0 || !m.is_finite() {
            return ByteSize(0);
        }
        ByteSize(oasis_sim::round_u64(m * MIB as f64))
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Size in whole mebibytes (truncating).
    pub const fn as_mib(self) -> u64 {
        self.0 / MIB
    }

    /// Size in mebibytes as a float.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    /// Size in gibibytes as a float.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// `true` if zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: ByteSize) -> Option<ByteSize> {
        self.0.checked_sub(other.0).map(ByteSize)
    }

    /// Scales by a non-negative float, rounding to whole bytes.
    pub fn mul_f64(self, k: f64) -> ByteSize {
        if k <= 0.0 || !k.is_finite() {
            return ByteSize(0);
        }
        ByteSize(oasis_sim::round_u64(self.0 as f64 * k))
    }

    /// Number of whole pages of `page_size` needed to hold this size.
    pub fn pages(self, page_size: u64) -> u64 {
        self.0.div_ceil(page_size)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(rhs))
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.1} GiB", self.as_gib_f64())
        } else if b >= MIB {
            write!(f, "{:.1} MiB", self.as_mib_f64())
        } else if b >= KIB {
            write!(f, "{:.1} KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_conversions() {
        assert_eq!(ByteSize::kib(1).as_bytes(), 1_024);
        assert_eq!(ByteSize::mib(1).as_bytes(), 1_048_576);
        assert_eq!(ByteSize::gib(4).as_mib_f64(), 4_096.0);
        assert_eq!(ByteSize::from_mib_f64(165.63).as_bytes(), 173_675_643);
        assert_eq!(ByteSize::from_mib_f64(-3.0), ByteSize::ZERO);
        assert_eq!(ByteSize::from_mib_f64(f64::NAN), ByteSize::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::mib(10);
        let b = ByteSize::mib(3);
        assert_eq!(a + b, ByteSize::mib(13));
        assert_eq!(a - b, ByteSize::mib(7));
        assert_eq!(b - a, ByteSize::ZERO);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.saturating_sub(b), ByteSize::mib(7));
        assert_eq!(a * 2, ByteSize::mib(20));
        assert_eq!(a.mul_f64(0.5), ByteSize::mib(5));
    }

    #[test]
    fn sum_of_sizes() {
        let total: ByteSize = [ByteSize::mib(1), ByteSize::mib(2)].into_iter().sum();
        assert_eq!(total, ByteSize::mib(3));
    }

    #[test]
    fn page_counts_round_up() {
        assert_eq!(ByteSize::bytes(1).pages(4_096), 1);
        assert_eq!(ByteSize::bytes(4_096).pages(4_096), 1);
        assert_eq!(ByteSize::bytes(4_097).pages(4_096), 2);
        assert_eq!(ByteSize::ZERO.pages(4_096), 0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize::bytes(12).to_string(), "12 B");
        assert_eq!(ByteSize::kib(3).to_string(), "3.0 KiB");
        assert_eq!(ByteSize::mib(165).to_string(), "165.0 MiB");
        assert_eq!(ByteSize::gib(4).to_string(), "4.0 GiB");
    }
}
