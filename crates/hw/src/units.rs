//! Strongly typed physical quantities.
//!
//! All simulator arithmetic flows through these newtypes so that a byte count
//! can never silently be treated as a bandwidth. Conversions are explicit
//! and the only place raw `f64`s appear is at the boundary.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;
const TIB: u64 = 1 << 40;

/// A byte count.
///
/// # Example
///
/// ```
/// use recsim_hw::units::Bytes;
///
/// let hbm = Bytes::from_gib(32);
/// assert_eq!(hbm.as_u64(), 32 * (1 << 30));
/// assert!(Bytes::from_tib(2) > hbm);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Constructs from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Constructs from kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * KIB)
    }

    /// Constructs from mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * MIB)
    }

    /// Constructs from gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * GIB)
    }

    /// Constructs from tebibytes.
    pub const fn from_tib(tib: u64) -> Self {
        Bytes(tib * TIB)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as a float (for roofline division).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Value in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Checked multiplication by a count.
    pub fn checked_mul(self, n: u64) -> Option<Bytes> {
        self.0.checked_mul(n).map(Bytes)
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

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= TIB {
            write!(f, "{:.2} TiB", b as f64 / TIB as f64)
        } else if b >= GIB {
            write!(f, "{:.2} GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// A data-movement rate in bytes per second.
///
/// # Example
///
/// ```
/// use recsim_hw::units::{Bandwidth, Bytes};
///
/// let hbm2 = Bandwidth::from_gb_per_s(900.0);
/// let t = hbm2.transfer_time(Bytes::from_gib(1));
/// assert!(t.as_secs() > 0.001 && t.as_secs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Constructs from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn from_bytes_per_s(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "bandwidth must be positive");
        Bandwidth(rate)
    }

    /// Constructs from decimal gigabytes per second (vendor convention).
    pub fn from_gb_per_s(gb: f64) -> Self {
        Self::from_bytes_per_s(gb * 1e9)
    }

    /// Constructs from a line rate in gigabits per second.
    pub fn from_gbit_per_s(gbit: f64) -> Self {
        Self::from_bytes_per_s(gbit * 1e9 / 8.0)
    }

    /// Rate in bytes per second.
    pub fn as_bytes_per_s(self) -> f64 {
        self.0
    }

    /// Rate in decimal GB/s.
    pub fn as_gb_per_s(self) -> f64 {
        self.0 / 1e9
    }

    /// Time to move `bytes` at this rate.
    pub fn transfer_time(self, bytes: Bytes) -> Duration {
        Duration::from_secs(bytes.as_f64() / self.0)
    }

    /// Scales the rate by an efficiency factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn derated(self, factor: f64) -> Bandwidth {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "derating factor must be in (0, 1]"
        );
        Bandwidth(self.0 * factor)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_s(self.0 * rhs)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.as_gb_per_s())
    }
}

/// A floating-point-operation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Flops(u64);

impl Flops {
    /// Zero flops.
    pub const ZERO: Flops = Flops(0);

    /// Constructs from a raw operation count.
    pub const fn new(ops: u64) -> Self {
        Flops(ops)
    }

    /// Raw operation count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Operation count as a float.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for Flops {
    type Output = Flops;
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Flops {
    type Output = Flops;
    fn mul(self, rhs: u64) -> Flops {
        Flops(self.0 * rhs)
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        Flops(iter.map(|f| f.0).sum())
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0 as f64;
        if v >= 1e12 {
            write!(f, "{:.2} TFLOP", v / 1e12)
        } else if v >= 1e9 {
            write!(f, "{:.2} GFLOP", v / 1e9)
        } else if v >= 1e6 {
            write!(f, "{:.2} MFLOP", v / 1e6)
        } else {
            write!(f, "{v:.0} FLOP")
        }
    }
}

/// A compute rate in floating-point operations per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct FlopRate(f64);

impl FlopRate {
    /// Constructs from operations per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn from_flops_per_s(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "flop rate must be positive");
        FlopRate(rate)
    }

    /// Constructs from teraFLOP/s.
    pub fn from_tflops(t: f64) -> Self {
        Self::from_flops_per_s(t * 1e12)
    }

    /// Rate in teraFLOP/s.
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Time to execute `flops` at this rate.
    pub fn execution_time(self, flops: Flops) -> Duration {
        Duration::from_secs(flops.as_f64() / self.0)
    }

    /// Scales the rate by an efficiency factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn derated(self, factor: f64) -> FlopRate {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "derating factor must be in (0, 1]"
        );
        FlopRate(self.0 * factor)
    }
}

impl Mul<f64> for FlopRate {
    type Output = FlopRate;
    fn mul(self, rhs: f64) -> FlopRate {
        FlopRate::from_flops_per_s(self.0 * rhs)
    }
}

impl fmt::Display for FlopRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} TFLOP/s", self.as_tflops())
    }
}

/// A simulated time span in seconds.
///
/// Distinct from `std::time::Duration` because simulation time is fractional
/// and arithmetic-heavy; negative durations are rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Duration(f64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Constructs from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0 && !secs.is_nan(), "duration must be >= 0");
        Duration(secs)
    }

    /// Constructs from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Constructs from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Value in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration((self.0 - rhs.0).max(0.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    fn div(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else {
            write!(f, "{:.1} us", s * 1e6)
        }
    }
}

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Constructs from watts.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn from_watts(watts: f64) -> Self {
        assert!(
            watts >= 0.0 && watts.is_finite(),
            "power must be non-negative"
        );
        Power(watts)
    }

    /// Value in watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power::from_watts(self.0 * rhs)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        Power(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e3 {
            write!(f, "{:.2} kW", self.0 / 1e3)
        } else {
            write!(f, "{:.0} W", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_conversions() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_gib(2), Bytes::from_mib(2048));
        assert_eq!(Bytes::from_tib(1).as_gib(), 1024.0);
    }

    #[test]
    fn bytes_display_picks_unit() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::from_gib(3).to_string(), "3.00 GiB");
        assert_eq!(Bytes::from_tib(2).to_string(), "2.00 TiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_gb_per_s(1.0);
        let t = bw.transfer_time(Bytes::new(1_000_000_000));
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gbit_is_an_eighth_of_gbyte() {
        let a = Bandwidth::from_gbit_per_s(8.0);
        let b = Bandwidth::from_gb_per_s(1.0);
        assert!((a.as_bytes_per_s() - b.as_bytes_per_s()).abs() < 1.0);
    }

    #[test]
    fn flop_rate_execution_time() {
        let rate = FlopRate::from_tflops(1.0);
        let t = rate.execution_time(Flops::new(2_000_000_000_000));
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(2.0);
        let b = Duration::from_micros(500.0);
        assert!(((a + b).as_millis() - 2.5).abs() < 1e-12);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn negative_duration_rejected() {
        Duration::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        Bandwidth::from_bytes_per_s(0.0);
    }

    #[test]
    fn derating_bounds() {
        let bw = Bandwidth::from_gb_per_s(100.0);
        assert!((bw.derated(0.5).as_gb_per_s() - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "(0, 1]")]
    fn derating_above_one_rejected() {
        Bandwidth::from_gb_per_s(1.0).derated(1.5);
    }

    #[test]
    fn sums() {
        let total: Bytes = [Bytes::new(1), Bytes::new(2)].into_iter().sum();
        assert_eq!(total, Bytes::new(3));
        let t: Duration = [Duration::from_secs(1.0), Duration::from_secs(2.0)]
            .into_iter()
            .sum();
        assert!((t.as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn power_display() {
        assert_eq!(Power::from_watts(4380.0).to_string(), "4.38 kW");
        assert_eq!(Power::from_watts(600.0).to_string(), "600 W");
    }
}
