//! Property tests for the fabric layer: bitstream diff/apply algebra,
//! CRC detection, and fitting monotonicity.

use atlantis_chdl::Design;
use atlantis_fabric::{fit, Bitstream, Device, Fpga};
use proptest::prelude::*;
use std::sync::Arc;

fn design_from_taps(taps: &[u64]) -> Design {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// diff→apply round-trips between arbitrary byte structures.
    #[test]
    fn diff_apply_round_trips(a in proptest::collection::vec(any::<u8>(), 0..4096),
                              b in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let dev = Device::xc4013e(); // small part: fast frames
        let bs_a = Bitstream::from_structure(&dev, &a);
        let bs_b = Bitstream::from_structure(&dev, &b);
        let partial = bs_a.diff(&bs_b);
        let mut patched = bs_a.clone();
        patched.apply(&partial);
        prop_assert_eq!(&patched, &bs_b);
        prop_assert!(patched.verify());
        // diff size bounds: no more frames than the device has, and zero
        // iff the structures produce identical images.
        prop_assert!(partial.frames.len() <= dev.config_frames as usize);
        prop_assert_eq!(partial.frames.is_empty(), bs_a == bs_b);
    }

    /// Any single-bit corruption of any frame is caught by verify().
    #[test]
    fn single_bit_corruption_always_detected(payload in proptest::collection::vec(any::<u8>(), 1..2048),
                                             frame_pick in any::<u32>(),
                                             byte_pick in any::<u32>(),
                                             bit in 0u8..8) {
        let dev = Device::xc4013e();
        let mut bs = Bitstream::from_structure(&dev, &payload);
        let f = (frame_pick % dev.config_frames) as usize;
        let by = (byte_pick % dev.frame_bytes) as usize;
        bs.frames[f].data[by] ^= 1 << bit;
        prop_assert!(!bs.verify(), "frame {f} byte {by} bit {bit}");
    }

    /// The fitter is monotone: a design that fits a small device fits
    /// every larger device.
    #[test]
    fn fitting_is_monotone_across_devices(taps in proptest::collection::vec(0u64..0x10000, 1..8)) {
        let d = design_from_taps(&taps);
        let small = Device::xc4013e();
        let medium = Device::orca_3t125();
        let large = Device::virtex_xcv600();
        if fit(&d, &small).is_ok() {
            prop_assert!(fit(&d, &medium).is_ok());
        }
        if fit(&d, &medium).is_ok() {
            prop_assert!(fit(&d, &large).is_ok());
        }
    }

    /// Configure → inject arbitrary upsets → scrub always restores the
    /// exact golden image, and the repaired-frame count equals the number
    /// of distinct corrupted frames.
    #[test]
    fn scrub_always_restores(upsets in proptest::collection::vec((any::<u32>(), any::<u32>(), 0u8..8, any::<bool>()), 1..24)) {
        let dev = Device::orca_3t125();
        let fitted = fit(&design_from_taps(&[3, 5, 7]), &dev).unwrap();
        let golden = fitted.bitstream();
        let mut fpga = Fpga::new(dev.clone());
        fpga.configure(fitted).unwrap();
        for (f, b, bit, stealthy) in upsets {
            let frame = f % dev.config_frames;
            let byte = b % dev.frame_bytes;
            // A self-cancelling double flip leaves the frame clean; the
            // *net* effect is measured against golden below. Stealthy
            // flips refresh the stored CRC, so they must show up in
            // frames_repaired but never in crc_detectable.
            if stealthy {
                fpga.inject_upset_stealthy(frame, byte, bit).unwrap();
            } else {
                fpga.inject_upset(frame, byte, bit).unwrap();
            }
        }
        let actually_corrupt = {
            let live = fpga.readback().unwrap();
            live.frames
                .iter()
                .zip(&golden.frames)
                .filter(|(a, b)| a.data != b.data)
                .count() as u32
        };
        let report = fpga.scrub().unwrap();
        prop_assert_eq!(report.frames_repaired, actually_corrupt);
        prop_assert!(report.crc_detectable <= report.frames_repaired,
                     "CRC-visible corruption is a subset of all corruption");
        prop_assert!(fpga.integrity_ok().unwrap());
        prop_assert!(fpga.pending_upsets().is_empty());
        prop_assert_eq!(fpga.readback().unwrap(), *golden);
    }

    /// A partially reconfigured FPGA behaves exactly like one configured
    /// directly with the target design, for any tap pair.
    #[test]
    fn partial_reconfig_behavioural_equivalence(t1 in proptest::collection::vec(0u64..0x100, 1..4),
                                                t2 in proptest::collection::vec(0u64..0x100, 1..4),
                                                stim in proptest::collection::vec(0u64..0x10000, 1..12)) {
        let dev = Device::orca_3t125();
        let f1 = fit(&design_from_taps(&t1), &dev).unwrap();
        let f2 = Arc::new(fit(&design_from_taps(&t2), &dev).unwrap());
        let mut via_partial = Fpga::new(dev.clone());
        via_partial.configure(f1).unwrap();
        via_partial.partial_reconfigure(Arc::clone(&f2)).unwrap();
        let mut direct = Fpga::new(dev);
        direct.configure(f2).unwrap();
        for &v in &stim {
            let s1 = via_partial.sim_mut().unwrap();
            s1.set("x", v);
            s1.step();
            let y1 = s1.get("y");
            let s2 = direct.sim_mut().unwrap();
            s2.set("x", v);
            s2.step();
            prop_assert_eq!(y1, s2.get("y"));
        }
    }
}
