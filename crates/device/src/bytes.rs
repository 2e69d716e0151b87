//! A byte-count newtype so memory sizes cannot be confused with FLOP
//! counts or sample counts in the cost-model arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A number of bytes.
///
/// # Example
///
/// ```
/// use pipefill_device::Bytes;
///
/// let hbm = Bytes::from_gib(16);
/// let used = Bytes::from_gib(11) + Bytes::from_mib(512);
/// assert_eq!((hbm - used).as_gib(), 4.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// `n` kibibytes.
    pub const fn from_kib(n: u64) -> Self {
        Bytes(n << 10)
    }

    /// `n` mebibytes.
    pub const fn from_mib(n: u64) -> Self {
        Bytes(n << 20)
    }

    /// `n` gibibytes.
    pub const fn from_gib(n: u64) -> Self {
        Bytes(n << 30)
    }

    /// A fractional number of gibibytes, rounded to the nearest byte.
    ///
    /// # Panics
    ///
    /// Panics if `gib` is negative or non-finite.
    pub fn from_gib_f64(gib: f64) -> Self {
        assert!(
            gib.is_finite() && gib >= 0.0,
            "byte count must be finite and non-negative, got {gib} GiB"
        );
        Bytes((gib * (1u64 << 30) as f64).round() as u64)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as a float (for rate arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Size in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }

    /// Size in mebibytes.
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1u64 << 20) as f64
    }

    /// True if zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// Scales by a non-negative float, rounding to the nearest byte.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> Bytes {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "byte scale factor must be finite and non-negative, got {factor}"
        );
        Bytes((self.0 as f64 * factor).round() as u64)
    }

    /// The smaller of two counts.
    pub fn min(self, other: Bytes) -> Bytes {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two counts.
    pub fn max(self, other: Bytes) -> Bytes {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1 << 30 {
            write!(f, "{:.2}GiB", self.as_gib())
        } else if self.0 >= 1 << 20 {
            write!(f, "{:.2}MiB", self.as_mib())
        } else if self.0 >= 1 << 10 {
            write!(f, "{:.2}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_chain() {
        assert_eq!(Bytes::from_gib(1), Bytes::from_mib(1024));
        assert_eq!(Bytes::from_mib(1), Bytes::from_kib(1024));
        assert_eq!(Bytes::from_kib(1), Bytes::new(1024));
        assert_eq!(Bytes::from_gib_f64(4.5), Bytes::from_mib(4608));
    }

    #[test]
    fn arithmetic() {
        let a = Bytes::from_gib(2);
        let b = Bytes::from_gib(1);
        assert_eq!(a + b, Bytes::from_gib(3));
        assert_eq!(a - b, Bytes::from_gib(1));
        assert_eq!(b * 3, Bytes::from_gib(3));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(a.mul_f64(0.25), Bytes::from_mib(512));
    }

    #[test]
    fn min_max_sum() {
        let a = Bytes::from_mib(10);
        let b = Bytes::from_mib(20);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: Bytes = [a, b, a].into_iter().sum();
        assert_eq!(total, Bytes::from_mib(40));
    }

    #[test]
    fn display_units() {
        assert_eq!(Bytes::new(10).to_string(), "10B");
        assert_eq!(Bytes::from_kib(2).to_string(), "2.00KiB");
        assert_eq!(Bytes::from_mib(3).to_string(), "3.00MiB");
        assert_eq!(Bytes::from_gib_f64(4.5).to_string(), "4.50GiB");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_gib_rejected() {
        let _ = Bytes::from_gib_f64(-1.0);
    }
}
