//! # `atlantis-fabric` — FPGA device models
//!
//! The ATLANTIS boards carry two FPGA families (paper §2): the **Lucent
//! ORCA 3T125** on the computing board (“an average gate count of
//! approximately 186k per chip”, 422 I/O signals used per chip) and the
//! **Xilinx Virtex XCV600** on the I/O board. The paper lists the features
//! that drove the device choice: high I/O pin count, ~100k-gate complexity,
//! **read-back/test support** and **partial reconfiguration** (“of great
//! interest for co-processing applications involving hardware task
//! switches”).
//!
//! This crate models exactly those properties:
//!
//! * [`Device`] — capacity model (system gates, flip-flops, block-RAM bits,
//!   user I/O, configuration frames) for the parts used in the project and
//!   its predecessors,
//! * [`fit()`](fit()) — fits an `atlantis-chdl` netlist onto a device, rejecting
//!   designs that exceed any budget,
//! * [`Bitstream`] — deterministic frame-based configuration images with
//!   per-frame CRCs, derived from the netlist structure,
//! * [`Fpga`] — a configurable part: full configuration, **partial
//!   reconfiguration** (only the differing frames are rewritten, enabling
//!   fast hardware task switches), and **read-back**,
//! * [`ProgrammableClock`] — the software-programmable clocks, “a few MHz
//!   up to at least 80 MHz” (§2).
//!
//! A configured [`Fpga`] owns a live [`Sim`](atlantis_chdl::Sim) of its
//! design, so the host application drives the simulated hardware exactly
//! as the CHDL workflow prescribes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod clock;
pub mod config;
pub mod device;
pub mod fit;
pub mod scrub;

pub use bitstream::{Bitstream, Frame, PartialBitstream};
pub use clock::ProgrammableClock;
pub use config::{ConfigError, Fpga};
pub use device::Device;
pub use fit::{fit, FitError, FitReport, FittedDesign};
pub use scrub::{CrcCheck, ScrubReport, Upset};

/// Commonly used re-exports.
pub mod prelude {
    pub use crate::bitstream::Bitstream;
    pub use crate::clock::ProgrammableClock;
    pub use crate::config::Fpga;
    pub use crate::device::Device;
    pub use crate::fit::{fit, FittedDesign};
}
