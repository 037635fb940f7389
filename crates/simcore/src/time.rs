//! Virtual time, clock frequency and bandwidth arithmetic.
//!
//! All ATLANTIS hardware models are *cycle-approximate*: they count cycles
//! of their governing clock and convert to picoseconds when crossing clock
//! domains (PCI at 33 MHz, the design clock at 40 MHz, the backplane at
//! 66 MHz, SDRAM devices at 100 MHz …). Picoseconds in a `u64` cover about
//! 5 hours of virtual time, far beyond any experiment in the paper (the
//! longest is a ~4 s full-volume DMA transfer).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// A span of virtual time with picosecond resolution.
///
/// `SimDuration` is the unit in which every ATLANTIS model reports cost:
/// a DMA transfer, a histogramming pass, a frame render all return one.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    picos: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { picos: 0 };

    /// Duration from picoseconds.
    pub const fn from_picos(picos: u64) -> Self {
        SimDuration { picos }
    }

    /// Duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration {
            picos: nanos * 1_000,
        }
    }

    /// Duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration {
            picos: micros * 1_000_000,
        }
    }

    /// Duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            picos: millis * 1_000_000_000,
        }
    }

    /// Duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            picos: secs * PS_PER_SEC,
        }
    }

    /// Duration from fractional seconds. Panics on negative or
    /// non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration {
            picos: (secs * PS_PER_SEC as f64).round() as u64,
        }
    }

    /// The raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.picos
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.picos as f64 / PS_PER_SEC as f64
    }

    /// This duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.picos as f64 / 1e9
    }

    /// This duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.picos as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            picos: self.picos.saturating_sub(rhs.picos),
        }
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.picos
            .checked_add(rhs.picos)
            .map(|picos| SimDuration { picos })
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Events per second implied by one event per this duration.
    /// Returns `f64::INFINITY` for a zero duration.
    pub fn rate_hz(self) -> f64 {
        if self.picos == 0 {
            f64::INFINITY
        } else {
            PS_PER_SEC as f64 / self.picos as f64
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.picos;
        if ps >= PS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            picos: self
                .picos
                .checked_add(rhs.picos)
                .expect("SimDuration overflow"),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            picos: self
                .picos
                .checked_sub(rhs.picos)
                .expect("SimDuration underflow"),
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            picos: self.picos.checked_mul(rhs).expect("SimDuration overflow"),
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            picos: self.picos / rhs,
        }
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

/// An absolute point on the virtual timeline (picoseconds since power-on).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    picos: u64,
}

impl SimTime {
    /// Power-on instant.
    pub const ZERO: SimTime = SimTime { picos: 0 };

    /// Absolute time from raw picoseconds.
    pub const fn from_picos(picos: u64) -> Self {
        SimTime { picos }
    }

    /// The raw picosecond count since power-on.
    pub const fn as_picos(self) -> u64 {
        self.picos
    }

    /// Elapsed duration since an earlier instant. Panics if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_picos(
            self.picos
                .checked_sub(earlier.picos)
                .expect("SimTime::since: earlier is later"),
        )
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration::from_picos(self.picos))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime {
            picos: self
                .picos
                .checked_add(rhs.as_picos())
                .expect("SimTime overflow"),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

/// A clock frequency.
///
/// ATLANTIS clocks are programmable “in the range of a few MHz up to at
/// least 80 MHz” (§2); memory devices run up to 100 MHz and PCI at 33 MHz.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// Frequency from hertz. Panics on zero.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "zero frequency");
        Frequency { hz }
    }

    /// Frequency from kilohertz.
    pub fn from_khz(khz: u64) -> Self {
        Frequency::from_hz(khz * 1_000)
    }

    /// Frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Frequency::from_hz(mhz * 1_000_000)
    }

    /// The frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.hz
    }

    /// The frequency in fractional megahertz.
    pub fn as_mhz_f64(self) -> f64 {
        self.hz as f64 / 1e6
    }

    /// The period of one clock cycle (rounded to the nearest picosecond).
    pub fn period(self) -> SimDuration {
        SimDuration::from_picos((PS_PER_SEC + self.hz / 2) / self.hz)
    }

    /// The virtual time consumed by `cycles` clock cycles.
    ///
    /// Computed as `cycles * PS_PER_SEC / hz` in 128-bit arithmetic so that
    /// billions of cycles do not lose precision to per-cycle rounding.
    pub fn cycles(self, cycles: u64) -> SimDuration {
        let picos = (cycles as u128 * PS_PER_SEC as u128 + self.hz as u128 / 2) / self.hz as u128;
        SimDuration::from_picos(u64::try_from(picos).expect("cycle count overflows SimDuration"))
    }

    /// How many *complete* cycles of this clock fit in `dur`.
    pub fn cycles_in(self, dur: SimDuration) -> u64 {
        u64::try_from(dur.as_picos() as u128 * self.hz as u128 / PS_PER_SEC as u128)
            .expect("cycle count overflow")
    }
}

impl fmt::Debug for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz >= 1_000_000 && self.hz.is_multiple_of(100_000) {
            write!(f, "{:.1}MHz", self.as_mhz_f64())
        } else if self.hz >= 1_000 {
            write!(f, "{:.1}kHz", self.hz as f64 / 1e3)
        } else {
            write!(f, "{}Hz", self.hz)
        }
    }
}

/// A data rate in bytes per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bytes_per_sec: u64,
}

impl Bandwidth {
    /// Bandwidth from bytes per second. Panics on zero.
    pub fn from_bytes_per_sec(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "zero bandwidth");
        Bandwidth { bytes_per_sec }
    }

    /// Bandwidth from decimal megabytes per second (the unit of Table 1).
    pub fn from_mb_per_sec(mb: u64) -> Self {
        Bandwidth::from_bytes_per_sec(mb * 1_000_000)
    }

    /// Bandwidth of a parallel bus: `width_bits`-wide transfers at `clock`,
    /// one transfer per cycle. E.g. the AAB backplane: 2×64 bit at 66 MHz
    /// ≈ 1 GB/s.
    pub fn of_bus(clock: Frequency, width_bits: u32) -> Self {
        Bandwidth::from_bytes_per_sec(clock.as_hz() * width_bits as u64 / 8)
    }

    /// The rate in bytes per second.
    pub const fn as_bytes_per_sec(self) -> u64 {
        self.bytes_per_sec
    }

    /// The rate in decimal megabytes per second.
    pub fn as_mb_per_sec(self) -> f64 {
        self.bytes_per_sec as f64 / 1e6
    }

    /// Time to move `bytes` at this rate (rounded up to a picosecond).
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        let picos = (bytes as u128 * PS_PER_SEC as u128).div_ceil(self.bytes_per_sec as u128);
        SimDuration::from_picos(u64::try_from(picos).expect("transfer time overflow"))
    }

    /// The effective rate achieved moving `bytes` in `elapsed`.
    pub fn measured(bytes: u64, elapsed: SimDuration) -> f64 {
        if elapsed == SimDuration::ZERO {
            f64::INFINITY
        } else {
            bytes as f64 / elapsed.as_secs_f64()
        }
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MB/s", self.as_mb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimDuration::from_nanos(1), SimDuration::from_picos(1000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(3);
        let b = SimDuration::from_micros(2);
        assert_eq!(a + b, SimDuration::from_micros(5));
        assert_eq!(a - b, SimDuration::from_micros(1));
        assert_eq!(a * 4, SimDuration::from_micros(12));
        assert_eq!(a / 3, SimDuration::from_micros(1));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_picos(1) - SimDuration::from_picos(2);
    }

    #[test]
    fn duration_from_secs_f64_round_trips() {
        let d = SimDuration::from_secs_f64(0.0192);
        assert_eq!(d, SimDuration::from_micros(19_200));
        assert!((d.as_secs_f64() - 0.0192).abs() < 1e-12);
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(19)), "19.000ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(25)), "25.000ns");
        assert_eq!(format!("{}", SimDuration::from_picos(7)), "7ps");
    }

    #[test]
    fn duration_rate_hz() {
        assert_eq!(SimDuration::from_millis(10).rate_hz(), 100.0);
        assert!(SimDuration::ZERO.rate_hz().is_infinite());
    }

    #[test]
    fn sim_time_advances() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_micros(5);
        assert_eq!(t1.since(t0), SimDuration::from_micros(5));
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn sim_time_since_future_panics() {
        SimTime::ZERO.since(SimTime::from_picos(1));
    }

    #[test]
    fn frequency_period_is_exact_for_round_clocks() {
        // 40 MHz design clock (§3.4): period 25 ns.
        assert_eq!(
            Frequency::from_mhz(40).period(),
            SimDuration::from_nanos(25)
        );
        // 33 MHz PCI: 30.303 ns, rounded to nearest picosecond.
        assert_eq!(
            Frequency::from_mhz(33).period(),
            SimDuration::from_picos(30_303)
        );
    }

    #[test]
    fn frequency_cycles_avoids_per_cycle_rounding() {
        // 3 cycles of 33 MHz must be 90909 ps (not 3 * 30303 = 90909
        // coincidentally, so use a larger count where drift would show).
        let f = Frequency::from_mhz(33);
        let million = f.cycles(1_000_000);
        // 1e6 / 33e6 s = 30303030303 ps, to the nearest ps.
        assert_eq!(million.as_picos(), 30_303_030_303);
    }

    #[test]
    fn frequency_cycles_in_inverts_cycles() {
        let f = Frequency::from_mhz(66);
        assert_eq!(f.cycles_in(f.cycles(123_456)), 123_456);
    }

    #[test]
    fn bandwidth_of_backplane_is_about_1gbps() {
        // §2.3: default 4×32-bit channels at 66 MHz ⇒ ~1 GB/s per slot.
        let bw = Bandwidth::of_bus(Frequency::from_mhz(66), 128);
        assert_eq!(bw.as_bytes_per_sec(), 1_056_000_000);
    }

    #[test]
    fn bandwidth_transfer_time_rounds_up() {
        let bw = Bandwidth::from_bytes_per_sec(3);
        // 1 byte at 3 B/s = 333333333334 ps (ceil of 1/3 s).
        assert_eq!(bw.transfer_time(1).as_picos(), 333_333_333_334);
    }

    #[test]
    fn bandwidth_measured() {
        let r = Bandwidth::measured(125_000_000, SimDuration::from_secs(1));
        assert_eq!(r, 125e6);
    }
}
