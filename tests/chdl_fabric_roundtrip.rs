//! Cross-crate round trips between the CHDL netlist layer and the fabric
//! configuration layer: bitstream determinism, partial-reconfiguration
//! equivalence, and behavioural equivalence of a design run directly vs
//! through a configured FPGA.

use atlantis::apps::jobs::JobKind;
use atlantis::fabric::Fpga;
use atlantis::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn parametric_design(taps: &[u64]) -> Design {
    let mut d = Design::new("fir");
    let x = d.input("x", 16);
    let mut acc = d.lit(0, 16);
    for (i, &t) in taps.iter().enumerate() {
        let k = d.lit(t & 0xFFFF, 16);
        let m = d.mul(x, k);
        let r = d.reg(format!("z{i}"), m);
        acc = d.add(acc, r);
    }
    d.expose_output("y", acc);
    d
}

#[test]
fn direct_sim_equals_configured_fpga_sim() {
    let d = parametric_design(&[3, 5, 7]);
    let fitted = fit(&d, &Device::orca_3t125()).unwrap();

    let mut direct = Sim::new(&d);
    let mut fpga = Fpga::new(Device::orca_3t125());
    fpga.configure(fitted).unwrap();

    for step in 0..50u64 {
        let v = (step * 37) & 0xFFFF;
        direct.set("x", v);
        direct.step();
        let sim = fpga.sim_mut().unwrap();
        sim.set("x", v);
        sim.step();
        assert_eq!(
            direct.get("y"),
            fpga.sim_mut().unwrap().get("y"),
            "step {step}"
        );
    }
}

#[test]
fn readback_after_partial_equals_direct_configuration() {
    let a = fit(&parametric_design(&[1, 2, 3]), &Device::orca_3t125()).unwrap();
    let b = Arc::new(fit(&parametric_design(&[1, 2, 9]), &Device::orca_3t125()).unwrap());

    let mut via_partial = Fpga::new(Device::orca_3t125());
    via_partial.configure(a).unwrap();
    via_partial.partial_reconfigure(Arc::clone(&b)).unwrap();

    let mut direct = Fpga::new(Device::orca_3t125());
    direct.configure(b).unwrap();

    assert_eq!(via_partial.readback().unwrap(), direct.readback().unwrap());
}

#[test]
fn config_time_accounts_every_frame() {
    let d = parametric_design(&[4, 4, 4, 4]);
    let dev = Device::orca_3t125();
    let fitted = fit(&d, &dev).unwrap();
    let mut fpga = Fpga::new(dev.clone());
    let t = fpga.configure(fitted).unwrap();
    assert_eq!(t, dev.full_config_time());
    let stats = fpga.stats();
    assert_eq!(stats.frames_written, dev.config_frames as u64);
}

/// Every ordered pair of `fits` (a design onto itself included): the
/// frames a partial reconfiguration counts, and charges virtual time
/// for, are exactly the frames `Bitstream::diff` would copy — on a clean
/// live image, and on one whose upsets the switch must also rewrite.
fn assert_switch_counts_match_diff(fits: &[Arc<FittedDesign>]) {
    let dev = Device::orca_3t125();
    let erased = dev.config_frames - 1;
    for a in fits {
        for b in fits {
            let pair = format!("{} -> {}", a.design().name(), b.design().name());
            let clean = a.bitstream().diff(&b.bitstream()).frames.len() as u32;
            let mut fpga = Fpga::new(dev.clone());
            fpga.configure(Arc::clone(a)).unwrap();
            let (frames, t) = fpga.partial_reconfigure(Arc::clone(b)).unwrap();
            assert_eq!(frames, clean, "clean {pair}");
            assert_eq!(t, dev.frame_config_time(clean), "clean {pair}");

            // An upset in a frame both designs leave erased, and a
            // CRC-stealthy one in the first structural frame.
            let mut fpga = Fpga::new(dev.clone());
            fpga.configure(Arc::clone(a)).unwrap();
            fpga.inject_upset(erased, 0, 0).unwrap();
            fpga.inject_upset_stealthy(0, 1, 2).unwrap();
            let upset = fpga.readback().unwrap().diff(&b.bitstream()).frames.len() as u32;
            assert!(upset > clean, "the erased frame now differs: {pair}");
            let (frames, t) = fpga.partial_reconfigure(Arc::clone(b)).unwrap();
            assert_eq!(frames, upset, "upset {pair}");
            assert_eq!(t, dev.frame_config_time(upset), "upset {pair}");
            assert!(fpga.pending_upsets().is_empty(), "{pair}");
            assert!(fpga.integrity_ok().unwrap(), "the switch heals: {pair}");
        }
    }
}

#[test]
fn served_switch_frame_counts_equal_the_diff() {
    let dev = Device::orca_3t125();
    let fits: Vec<Arc<FittedDesign>> = JobKind::ALL
        .iter()
        .map(|k| Arc::new(fit(&k.build_design(), &dev).unwrap()))
        .collect();
    assert_switch_counts_match_diff(&fits);
}

#[test]
fn counter_switch_frame_counts_equal_the_diff() {
    // The counters the fabric's configuration unit tests switch between.
    let fits: Vec<Arc<FittedDesign>> = (1..=3)
        .map(|step| {
            let mut d = Design::new(format!("counter_x{step}"));
            let q = d.reg_feedback("q", 16, |d, q| d.add_const(q, step));
            d.expose_output("count", q);
            Arc::new(fit(&d, &Device::orca_3t125()).unwrap())
        })
        .collect();
    assert_switch_counts_match_diff(&fits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any two designs of this family: the partial bitstream applied to
    /// the first always reproduces the second exactly.
    #[test]
    fn partial_bitstreams_converge(t1 in proptest::collection::vec(0u64..0x1000, 1..6),
                                   t2 in proptest::collection::vec(0u64..0x1000, 1..6)) {
        let dev = Device::orca_3t125();
        let a = fit(&parametric_design(&t1), &dev).unwrap().bitstream();
        let b = fit(&parametric_design(&t2), &dev).unwrap().bitstream();
        let partial = a.diff(&b);
        let mut patched = Bitstream::clone(&a);
        patched.apply(&partial);
        prop_assert_eq!(&patched, &*b);
        prop_assert!(patched.verify());
        // And the diff is empty iff the designs are identical.
        prop_assert_eq!(partial.frames.is_empty(), t1 == t2);
    }

    /// Gate-count estimation is monotone in the tap count for this
    /// family (more structure never reports fewer resources).
    #[test]
    fn stats_monotone_in_structure(n in 1usize..10) {
        let small = parametric_design(&vec![7; n]).stats();
        let large = parametric_design(&vec![7; n + 1]).stats();
        prop_assert!(large.gates > small.gates);
        prop_assert!(large.flip_flops > small.flip_flops);
    }

    /// The simulated FIR always matches a software model of itself.
    #[test]
    fn fir_matches_software_model(taps in proptest::collection::vec(0u64..0x100, 1..5),
                                  inputs in proptest::collection::vec(0u64..0x10000, 1..30)) {
        let d = parametric_design(&taps);
        let mut sim = Sim::new(&d);
        let mut regs = vec![0u64; taps.len()];
        for &x in &inputs {
            sim.set("x", x);
            // Software model of the same structure (registered products).
            let expect: u64 = regs.iter().sum::<u64>() & 0xFFFF;
            prop_assert_eq!(sim.get("y"), expect);
            sim.step();
            for (r, &t) in regs.iter_mut().zip(&taps) {
                *r = x.wrapping_mul(t & 0xFFFF) & 0xFFFF;
            }
        }
    }
}
