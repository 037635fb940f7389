//! Netlist-to-device fitting.
//!
//! The fitter is the reproduction's stand-in for the vendor place-and-route
//! flow: it checks an `atlantis-chdl` netlist against a [`Device`]'s
//! capacity model and, on success, yields a [`FittedDesign`] from which a
//! configuration [`Bitstream`] can be produced. Utilization reports use the
//! same “system gates” unit as the paper (“744k FPGA gates” per ACB).

use crate::bitstream::Bitstream;
use crate::device::Device;
use atlantis_chdl::{Design, NetlistStats};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Why a design does not fit a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The design needs more logic gates than the device provides.
    Gates {
        /// Gates required by the netlist.
        need: u64,
        /// Gates available on the device.
        have: u64,
    },
    /// The design needs more flip-flops than the device provides.
    FlipFlops {
        /// Flip-flops required.
        need: u64,
        /// Flip-flops available.
        have: u64,
    },
    /// The design needs more on-chip RAM than the device provides.
    RamBits {
        /// RAM bits required.
        need: u64,
        /// RAM bits available.
        have: u64,
    },
    /// The design needs more I/O pins than the device provides.
    IoPins {
        /// Pins required.
        need: u64,
        /// Pins available.
        have: u64,
    },
    /// The structural image exceeds the configuration address space.
    BitstreamOverflow {
        /// Bytes required.
        need: u64,
        /// Bytes available.
        have: u64,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Gates { need, have } => write!(f, "needs {need} gates, device has {have}"),
            FitError::FlipFlops { need, have } => {
                write!(f, "needs {need} flip-flops, device has {have}")
            }
            FitError::RamBits { need, have } => {
                write!(f, "needs {need} RAM bits, device has {have}")
            }
            FitError::IoPins { need, have } => {
                write!(f, "needs {need} I/O pins, device has {have}")
            }
            FitError::BitstreamOverflow { need, have } => {
                write!(
                    f,
                    "structure needs {need} bitstream bytes, device has {have}"
                )
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Resource utilization report of a fitted design.
#[derive(Debug, Clone, Copy)]
pub struct FitReport {
    /// Gates used.
    pub gates: u64,
    /// Flip-flops used.
    pub flip_flops: u64,
    /// RAM bits used.
    pub ram_bits: u64,
    /// I/O pins used.
    pub io_pins: u64,
    /// Gate utilization as a fraction of the device (0–1).
    pub gate_utilization: f64,
    /// Pin utilization as a fraction of the device (0–1).
    pub pin_utilization: f64,
}

/// A design successfully fitted onto a device.
///
/// The golden configuration image is a pure function of the fit, so it
/// is built once, on the first [`FittedDesign::bitstream`] call, and
/// shared from then on: every FPGA loaded from this fit (and every clone
/// taken after that call) holds the same allocation.
#[derive(Debug, Clone)]
pub struct FittedDesign {
    design: Design,
    device: Device,
    stats: NetlistStats,
    golden: OnceLock<Arc<Bitstream>>,
}

impl FittedDesign {
    /// The fitted netlist.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Raw netlist statistics.
    pub fn stats(&self) -> NetlistStats {
        self.stats
    }

    /// Utilization report.
    pub fn report(&self) -> FitReport {
        FitReport {
            gates: self.stats.gates,
            flip_flops: self.stats.flip_flops,
            ram_bits: self.stats.ram_bits,
            io_pins: self.stats.io_pins,
            gate_utilization: self.stats.gates as f64 / self.device.system_gates as f64,
            pin_utilization: self.stats.io_pins as f64 / self.device.user_io as f64,
        }
    }

    /// The golden configuration image for this design, built on first
    /// use and shared by every later call.
    pub fn bitstream(&self) -> Arc<Bitstream> {
        Arc::clone(self.golden.get_or_init(|| {
            Arc::new(Bitstream::from_structure(
                &self.device,
                &self.design.structural_bytes(),
            ))
        }))
    }
}

/// Fit `design` onto `device`, checking every capacity budget.
pub fn fit(design: &Design, device: &Device) -> Result<FittedDesign, FitError> {
    let stats = design.stats();
    if stats.gates > device.system_gates {
        return Err(FitError::Gates {
            need: stats.gates,
            have: device.system_gates,
        });
    }
    if stats.flip_flops > device.flip_flops {
        return Err(FitError::FlipFlops {
            need: stats.flip_flops,
            have: device.flip_flops,
        });
    }
    if stats.ram_bits > device.block_ram_bits {
        return Err(FitError::RamBits {
            need: stats.ram_bits,
            have: device.block_ram_bits,
        });
    }
    if stats.io_pins > device.user_io as u64 {
        return Err(FitError::IoPins {
            need: stats.io_pins,
            have: device.user_io as u64,
        });
    }
    let structure_len = design.structural_bytes().len() as u64;
    if structure_len > device.bitstream_bytes() {
        return Err(FitError::BitstreamOverflow {
            need: structure_len,
            have: device.bitstream_bytes(),
        });
    }
    Ok(FittedDesign {
        design: design.clone(),
        device: device.clone(),
        stats,
        golden: OnceLock::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_design() -> Design {
        let mut d = Design::new("small");
        let a = d.input("a", 8);
        let b = d.input("b", 8);
        let s = d.add(a, b);
        let r = d.reg("r", s);
        d.expose_output("r", r);
        d
    }

    #[test]
    fn small_design_fits_orca() {
        let f = fit(&small_design(), &Device::orca_3t125()).expect("fits");
        let rep = f.report();
        assert!(rep.gate_utilization < 0.01);
        assert_eq!(rep.io_pins, 24);
        assert!(rep.pin_utilization > 0.0);
    }

    #[test]
    fn too_many_pins_rejected() {
        let mut d = Design::new("pins");
        // 10 × 64-bit ports = 640 pins > 432 on the ORCA.
        for i in 0..10 {
            let x = d.input(format!("x{i}"), 64);
            d.expose_output(format!("y{i}"), x);
        }
        let err = fit(&d, &Device::orca_3t125()).unwrap_err();
        assert!(matches!(
            err,
            FitError::IoPins {
                need: 1280,
                have: 432
            }
        ));
    }

    #[test]
    fn too_much_ram_rejected() {
        let mut d = Design::new("ram");
        d.memory("big", 1 << 16, 64); // 4 Mbit ≫ on-chip capacity
        let err = fit(&d, &Device::orca_3t125()).unwrap_err();
        assert!(matches!(err, FitError::RamBits { .. }));
    }

    #[test]
    fn too_many_gates_rejected() {
        let mut d = Design::new("gates");
        let mut acc = d.input("a", 64);
        // Each 64-bit multiplier costs 6·64² = 24576 gates; ten exceed 186k.
        for i in 0..10 {
            let k = d.lit(i + 1, 64);
            acc = d.mul(acc, k);
        }
        d.expose_output("out", acc);
        let err = fit(&d, &Device::orca_3t125()).unwrap_err();
        assert!(matches!(err, FitError::Gates { .. }), "{err:?}");
    }

    #[test]
    fn same_design_fits_larger_part() {
        let mut d = Design::new("gates");
        let mut acc = d.input("a", 64);
        for i in 0..10 {
            let k = d.lit(i + 1, 64);
            acc = d.mul(acc, k);
        }
        d.expose_output("out", acc);
        assert!(fit(&d, &Device::orca_3t125()).is_err());
        assert!(
            fit(&d, &Device::virtex_xcv600()).is_ok(),
            "bigger part accepts it"
        );
    }

    #[test]
    fn bitstream_generation_from_fit() {
        let f = fit(&small_design(), &Device::orca_3t125()).unwrap();
        let bs = f.bitstream();
        assert!(bs.verify());
        assert_eq!(bs.device_name, "ORCA 3T125");
    }

    #[test]
    fn fit_report_is_deterministic() {
        let f1 = fit(&small_design(), &Device::orca_3t125()).unwrap();
        let f2 = fit(&small_design(), &Device::orca_3t125()).unwrap();
        assert_eq!(f1.stats(), f2.stats());
        assert_eq!(f1.bitstream(), f2.bitstream());
    }

    #[test]
    fn golden_image_is_built_once_and_shared() {
        let f = fit(&small_design(), &Device::orca_3t125()).unwrap();
        let first = f.bitstream();
        assert!(Arc::ptr_eq(&first, &f.bitstream()), "memoized");
        assert!(
            Arc::ptr_eq(&first, &f.clone().bitstream()),
            "a clone taken after the build shares the image"
        );
        assert_eq!(
            *first,
            Bitstream::from_structure(f.device(), &f.design().structural_bytes()),
            "the memo is the image the structure defines"
        );
    }
}
