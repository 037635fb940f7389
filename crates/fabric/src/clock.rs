//! Programmable clock sources.
//!
//! Paper §2: “All clocks are programmable in the range of a few MHz up to
//! at least 80 MHz. Programming is done under software control from the
//! CPU module.” Each board has a central AAB clock, per-I/O-port clocks
//! and a local fallback clock; this type models any of them.

use atlantis_simcore::{Frequency, SimDuration};

/// Lower programming bound (“a few MHz”).
pub fn min_clock() -> Frequency {
    Frequency::from_mhz(1)
}

/// Upper programming bound for ORCA-class logic (“at least 80 MHz”).
pub fn max_clock() -> Frequency {
    Frequency::from_mhz(80)
}

/// A software-programmable clock generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgrammableClock {
    name: String,
    freq: Frequency,
    reprogram_count: u64,
}

impl ProgrammableClock {
    /// A clock programmed to `freq`. Panics outside the 1–80 MHz
    /// programming range; use [`ProgrammableClock::try_new`] to handle it.
    pub fn new(name: impl Into<String>, freq: Frequency) -> Self {
        Self::try_new(name, freq).expect("clock frequency out of programming range")
    }

    /// A clock programmed to `freq`, or `None` outside 1–80 MHz.
    pub fn try_new(name: impl Into<String>, freq: Frequency) -> Option<Self> {
        if freq < min_clock() || freq > max_clock() {
            return None;
        }
        Some(ProgrammableClock {
            name: name.into(),
            freq,
            reprogram_count: 0,
        })
    }

    /// The clock's name (e.g. `"AAB main"`, `"ACB local"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The programmed frequency.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// Reprogram under software control. Returns `false` (and leaves the
    /// clock unchanged) outside the programming range.
    pub fn set_frequency(&mut self, freq: Frequency) -> bool {
        if freq < min_clock() || freq > max_clock() {
            return false;
        }
        self.freq = freq;
        self.reprogram_count += 1;
        true
    }

    /// How many times the clock has been reprogrammed.
    pub fn reprogram_count(&self) -> u64 {
        self.reprogram_count
    }

    /// Virtual time for `cycles` of this clock.
    pub fn cycles(&self, cycles: u64) -> SimDuration {
        self.freq.cycles(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programming_range_enforced() {
        assert!(ProgrammableClock::try_new("c", Frequency::from_khz(500)).is_none());
        assert!(ProgrammableClock::try_new("c", Frequency::from_mhz(81)).is_none());
        assert!(ProgrammableClock::try_new("c", Frequency::from_mhz(1)).is_some());
        assert!(ProgrammableClock::try_new("c", Frequency::from_mhz(80)).is_some());
    }

    #[test]
    fn reprogramming() {
        let mut c = ProgrammableClock::new("design", Frequency::from_mhz(40));
        assert_eq!(c.frequency(), Frequency::from_mhz(40));
        assert!(c.set_frequency(Frequency::from_mhz(25)));
        assert_eq!(c.frequency(), Frequency::from_mhz(25));
        assert_eq!(c.reprogram_count(), 1);
        assert!(
            !c.set_frequency(Frequency::from_mhz(200)),
            "out of range rejected"
        );
        assert_eq!(
            c.frequency(),
            Frequency::from_mhz(25),
            "unchanged after reject"
        );
    }

    #[test]
    fn cycles_at_40mhz() {
        let c = ProgrammableClock::new("design", Frequency::from_mhz(40));
        assert_eq!(c.cycles(40_000_000), SimDuration::from_secs(1));
    }
}
