//! Capacity models of the FPGA parts used across the ATLANTIS project and
//! its predecessors.
//!
//! Capacities follow the vendors' late-1990s data sheets, with the paper's
//! own figures taking precedence where the two differ (the paper quotes an
//! average of 186k usable gates and 422 used I/O signals for the ORCA
//! 3T125). “System gates” is the marketing unit of the era; our netlist
//! cost model (see [`atlantis_chdl::Design::stats`]) is calibrated to the
//! same unit.

use atlantis_simcore::{Bandwidth, Frequency, SimDuration};

/// A static description of one FPGA part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Part name, e.g. `"ORCA 3T125"`.
    pub name: String,
    /// Usable system gates.
    pub system_gates: u64,
    /// Flip-flops available in the logic fabric.
    pub flip_flops: u64,
    /// On-chip RAM capacity in bits (PFU/BlockRAM).
    pub block_ram_bits: u64,
    /// User I/O pins.
    pub user_io: u32,
    /// Number of configuration frames.
    pub config_frames: u32,
    /// Bytes per configuration frame.
    pub frame_bytes: u32,
    /// Configuration-port byte clock (frames stream in at one byte per
    /// cycle of this clock, as through a CPLD-driven serial/SelectMAP port).
    pub config_clock: Frequency,
    /// Whether the part supports partial reconfiguration.
    pub partial_reconfig: bool,
    /// Whether the part supports configuration read-back.
    pub readback: bool,
    /// Maximum supported design clock.
    pub max_clock: Frequency,
}

impl Device {
    /// The Lucent ORCA 3T125 used on the ACB (§2: ~186k average usable
    /// gates, 422 I/O signals used per chip, read-back and partial
    /// reconfiguration support).
    pub fn orca_3t125() -> Device {
        Device {
            name: "ORCA 3T125".to_string(),
            system_gates: 186_000,
            flip_flops: 10_368,      // 1296 PFUs × 8 FFs
            block_ram_bits: 165_888, // PFU LUT memory mode
            user_io: 432,
            config_frames: 856,
            frame_bytes: 428,
            config_clock: Frequency::from_mhz(10),
            partial_reconfig: true,
            readback: true,
            max_clock: Frequency::from_mhz(80),
        }
    }

    /// The Xilinx Virtex XCV600 used in pairs on the AIB (§2.2).
    pub fn virtex_xcv600() -> Device {
        Device {
            name: "Virtex XCV600".to_string(),
            system_gates: 661_000,
            flip_flops: 13_824,     // 6912 slices × 2 FFs
            block_ram_bits: 98_304, // 24 BlockRAMs × 4096 bits
            user_io: 512,
            config_frames: 1_752,
            frame_bytes: 532,
            config_clock: Frequency::from_mhz(33),
            partial_reconfig: true,
            readback: true,
            max_clock: Frequency::from_mhz(100),
        }
    }

    /// The AIB's paired XCV600s presented as one logical part (§2.2: the
    /// interface board carries two Virtex chips side by side). Capacity
    /// doubles; configuration streams both chips' frames through the one
    /// 33 MHz port, so a full load costs twice an XCV600's — the trade a
    /// cluster scheduler must price when it considers moving work onto
    /// Virtex fabric: faster design clock, dearer design switch.
    pub fn virtex_aib_pair() -> Device {
        let chip = Device::virtex_xcv600();
        Device {
            name: "Virtex AIB pair (2× XCV600)".to_string(),
            system_gates: 2 * chip.system_gates,
            flip_flops: 2 * chip.flip_flops,
            block_ram_bits: 2 * chip.block_ram_bits,
            user_io: 2 * chip.user_io,
            config_frames: 2 * chip.config_frames,
            ..chip
        }
    }

    /// The Xilinx XC4013E of the Enable++ generation — kept for historical
    /// speed-up comparisons (§3.1 cites Enable-era measurements).
    pub fn xc4013e() -> Device {
        Device {
            name: "XC4013E".to_string(),
            system_gates: 13_000,
            flip_flops: 1_536,
            block_ram_bits: 18_432,
            user_io: 192,
            config_frames: 316,
            frame_bytes: 98,
            config_clock: Frequency::from_mhz(8),
            partial_reconfig: false,
            readback: true,
            max_clock: Frequency::from_mhz(40),
        }
    }

    /// Total configuration image size in bytes.
    pub fn bitstream_bytes(&self) -> u64 {
        self.config_frames as u64 * self.frame_bytes as u64
    }

    /// Time for a full configuration (all frames streamed through the
    /// configuration port).
    pub fn full_config_time(&self) -> SimDuration {
        self.config_clock.cycles(self.bitstream_bytes())
    }

    /// Time to write `frames` configuration frames (partial reconfig).
    pub fn frame_config_time(&self, frames: u32) -> SimDuration {
        self.config_clock
            .cycles(frames as u64 * self.frame_bytes as u64)
    }

    /// Effective configuration bandwidth.
    pub fn config_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.config_clock.as_hz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orca_matches_paper_figures() {
        let d = Device::orca_3t125();
        // §2.1: “an average gate count of approximately 186k per chip”.
        assert_eq!(d.system_gates, 186_000);
        // §2.1: 422 I/O signals used per FPGA must fit the package.
        assert!(d.user_io >= 422);
        // §2: read-back and partial reconfiguration drove the choice.
        assert!(d.partial_reconfig);
        assert!(d.readback);
        // §2: clocks programmable up to at least 80 MHz.
        assert!(d.max_clock >= Frequency::from_mhz(80));
    }

    #[test]
    fn acb_matrix_reaches_744k_gates() {
        // §2.1: 2×2 ORCA matrix “sums up to 744k FPGA gates”.
        let d = Device::orca_3t125();
        assert_eq!(4 * d.system_gates, 744_000);
    }

    #[test]
    fn virtex_is_larger_than_orca() {
        let o = Device::orca_3t125();
        let v = Device::virtex_xcv600();
        assert!(v.system_gates > o.system_gates);
        assert!(v.user_io >= o.user_io);
    }

    #[test]
    fn config_time_scales_with_frames() {
        let d = Device::orca_3t125();
        let full = d.full_config_time();
        let one = d.frame_config_time(1);
        assert_eq!(one * d.config_frames as u64, full);
        // A 10 MHz byte port: 856 × 428 bytes ≈ 366 kB ⇒ ~36.6 ms.
        assert!((full.as_millis_f64() - 36.6).abs() < 0.1, "{full}");
    }

    #[test]
    fn frame_time_invariants_hold_on_every_part() {
        // Writing every frame one at a time must cost exactly a full
        // configuration, and writing nothing must cost nothing — the
        // identities the runtime's reconfiguration accounting leans on.
        for d in [
            Device::orca_3t125(),
            Device::virtex_xcv600(),
            Device::virtex_aib_pair(),
            Device::xc4013e(),
        ] {
            assert_eq!(
                d.full_config_time(),
                d.frame_config_time(d.config_frames),
                "{}: full != per-frame sum",
                d.name
            );
            assert_eq!(
                d.frame_config_time(0),
                SimDuration::ZERO,
                "{}: zero frames must be free",
                d.name
            );
        }
    }

    #[test]
    fn aib_pair_doubles_capacity_and_config_cost() {
        let chip = Device::virtex_xcv600();
        let pair = Device::virtex_aib_pair();
        assert_eq!(pair.system_gates, 2 * chip.system_gates);
        assert_eq!(pair.block_ram_bits, 2 * chip.block_ram_bits);
        assert_eq!(pair.bitstream_bytes(), 2 * chip.bitstream_bytes());
        assert!(pair.full_config_time() > chip.full_config_time());
        assert_eq!(pair.max_clock, chip.max_clock);
    }

    #[test]
    fn enable_era_part_is_small() {
        let d = Device::xc4013e();
        assert!(d.system_gates < 20_000);
        assert!(!d.partial_reconfig);
    }
}
