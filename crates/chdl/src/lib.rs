//! # `atlantis-chdl` — the CHDL development environment, in Rust
//!
//! CHDL (“C++ based Hardware Description Language”, paper §2.5) was the
//! tool-set the ATLANTIS group used to program their FPGA processors. Its
//! defining idea: the hardware description is an object graph built by an
//! ordinary program in the host language, and **the application itself
//! drives simulation** — no separate VHDL test bench. This crate reproduces
//! that workflow in Rust:
//!
//! * [`Design`] is the netlist builder. Methods like [`Design::add`],
//!   [`Design::mux`] or [`Design::reg`] append word-level components and
//!   return [`Signal`] handles, so arbitrary Rust code (loops, generics,
//!   functions) *generates* structure — exactly the “complex high level
//!   software which generates the structural CHDL design automatically”
//!   of the paper.
//! * [`fsm::FsmBuilder`] enters state machines, the second CHDL entry form.
//! * [`Sim`] is a deterministic two-phase (evaluate/commit) cycle
//!   simulator. The host program pokes inputs, steps the clock and reads
//!   outputs — the same loop the real application would run against the
//!   FPGA via the driver.
//! * [`NetlistStats`] reports estimated gate/flip-flop/RAM-bit/pin usage,
//!   which `atlantis-fabric` uses to fit a design onto a device model
//!   (ORCA 3T125, Virtex XCV600).
//!
//! ## Example: a saturating 8-bit accumulator, simulated by its application
//!
//! ```
//! use atlantis_chdl::prelude::*;
//!
//! let mut d = Design::new("sat_acc");
//! let x = d.input("x", 8);
//! let acc = d.reg_feedback("acc", 8, |d, q| {
//!     let sum = d.add(q, x);
//!     let ovf = d.lt(sum, q); // wrapped around ⇒ saturate
//!     let sat = d.lit(0xFF, 8);
//!     d.mux(ovf, sat, sum)
//! });
//! d.expose_output("acc_out", acc);
//!
//! let mut sim = Sim::new(&d);
//! for _ in 0..10 {
//!     sim.set("x", 40);
//!     sim.step();
//! }
//! assert_eq!(sim.get("acc_out"), 0xFF); // saturated, not wrapped
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bist;
pub mod comb;
pub(crate) mod engine;
pub mod error;
pub mod export;
pub mod fsm;
pub mod memory;
pub mod netlist;
pub mod nir;
pub mod seq;
pub mod signal;
pub mod sim;
pub mod stdcells;
pub mod trace;
pub mod vcd;

pub use engine::{DispatchMode, EngineConfig, EngineStats};
pub use error::ChdlError;
pub use netlist::{Design, MemId, NetlistStats, RegSlot};
pub use nir::{
    ConstFold, DeadGateElim, NetAnalysis, NetoptLedger, Nir, NirKind, Pass, PassManager,
    PassRecord, ShareSubexprs,
};
pub use signal::Signal;
pub use sim::{ExecMode, Sim};

/// The commonly used CHDL surface.
pub mod prelude {
    pub use crate::fsm::FsmBuilder;
    pub use crate::memory::FifoPorts;
    pub use crate::netlist::{Design, MemId, NetlistStats, RegSlot};
    pub use crate::signal::Signal;
    pub use crate::sim::{ExecMode, Sim};
    pub use crate::trace::Tracer;
}
