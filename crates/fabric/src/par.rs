//! Parallel stepping of independent FPGA devices.
//!
//! The ATLANTIS boards carry several FPGAs that run independent designs
//! between I/O exchanges (four ORCAs on the computing board, two Virtex
//! parts on the I/O board). Their simulators share no state, so a batch of
//! design-clock cycles can advance every device concurrently — one
//! [`Sim::run_batch`](atlantis_chdl::Sim::run_batch) per device, fanned
//! out with `rayon`.
//!
//! Parallel stepping is **cycle-identical** to stepping each device in
//! sequence: each simulator is deterministic and touches only its own
//! state, so the schedule cannot change results (asserted by the tests
//! below and used by the ACB/AIB board models).

use crate::config::{ConfigError, Fpga};
use atlantis_simcore::SimDuration;
use rayon::prelude::*;

/// Advance every configured FPGA by `n` design-clock cycles, stepping the
/// devices concurrently. Returns one result per device, in order: the
/// virtual time consumed at that device's clock, or
/// [`ConfigError::NotConfigured`] for devices with no design loaded
/// (which are left untouched, exactly as sequential
/// [`Fpga::run_cycles`] would).
pub fn run_cycles_parallel(fpgas: &mut [Fpga], n: u64) -> Vec<Result<SimDuration, ConfigError>> {
    fpgas.par_iter_mut().for_each(|fpga| {
        if let Some(sim) = fpga.sim_mut() {
            sim.run_batch(n);
        }
    });
    fpgas
        .iter()
        .map(|fpga| {
            if fpga.is_configured() {
                Ok(fpga.clock().cycles(n))
            } else {
                Err(ConfigError::NotConfigured)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::fit::fit;
    use atlantis_chdl::Design;

    fn lfsr_design(taps: u64) -> Design {
        let mut d = Design::new(format!("lfsr_{taps}"));
        let q = d.reg_feedback("q", 16, |d, q| {
            let hi = d.slice(q, 15, 1);
            let shifted = d.slice(q, 0, 15);
            let fb = d.lit(taps & 0x7FFF, 15);
            let masked = d.and(shifted, fb);
            let step = d.concat(masked, hi);
            let one = d.lit(1, 16);
            d.add(step, one)
        });
        d.expose_output("q", q);
        d
    }

    fn configured(taps: u64) -> Fpga {
        let dev = Device::orca_3t125();
        let mut fpga = Fpga::new(dev.clone());
        fpga.configure(fit(&lfsr_design(taps), &dev).unwrap())
            .unwrap();
        fpga
    }

    #[test]
    fn parallel_matches_sequential_cycle_for_cycle() {
        let mut par: Vec<Fpga> = (1..=4).map(|t| configured(t * 7)).collect();
        let mut seq: Vec<Fpga> = (1..=4).map(|t| configured(t * 7)).collect();

        let par_times = run_cycles_parallel(&mut par, 10_000);
        let seq_times: Vec<_> = seq.iter_mut().map(|f| f.run_cycles(10_000)).collect();
        assert_eq!(par_times, seq_times);

        for (p, s) in par.iter_mut().zip(seq.iter_mut()) {
            assert_eq!(
                p.sim_mut().unwrap().get("q"),
                s.sim_mut().unwrap().get("q"),
                "parallel stepping must be cycle-identical"
            );
            assert_eq!(p.sim_mut().unwrap().cycle(), 10_000);
        }
    }

    #[test]
    fn unconfigured_devices_are_reported_not_stepped() {
        let mut fpgas = vec![configured(3), Fpga::new(Device::orca_3t125())];
        let results = run_cycles_parallel(&mut fpgas, 100);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(ConfigError::NotConfigured));
        assert_eq!(fpgas[0].sim_mut().unwrap().cycle(), 100);
        assert!(fpgas[1].sim_mut().is_none());
    }

    #[test]
    fn empty_slice_is_fine() {
        assert!(run_cycles_parallel(&mut [], 5).is_empty());
    }
}
