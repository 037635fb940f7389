//! **Ablation** — hardware task switching and configuration integrity.
//!
//! Quantifies the two §2 features the device choice was made for:
//! partial reconfiguration (“of great interest for co-processing
//! applications involving hardware task switches”) against full
//! configuration, across design families of varying similarity; and
//! read-back-based scrubbing of injected configuration upsets.

use atlantis_bench::{f, Checker, Table};
use atlantis_chdl::Design;
use atlantis_core::Coprocessor;
use atlantis_fabric::{fit, Device, Fpga};
use atlantis_simcore::rng::WorkloadRng;

/// A FIR-like design family; `taps` controls similarity between members.
fn family(name: &str, taps: &[u64]) -> Design {
    let mut d = Design::new(name);
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

fn main() -> std::process::ExitCode {
    let dev = Device::orca_3t125();
    let mut c = Checker::new();

    // Task-switch cost vs similarity.
    let mut table = Table::new(
        "Ablation: task-switch cost vs design similarity (ORCA 3T125)",
        &["switch", "frames written", "time", "vs full config"],
    );
    let base_taps: Vec<u64> = (0..8).map(|i| i * 31 + 7).collect();
    let full_time = dev.full_config_time();
    let scenarios: Vec<(&str, Vec<u64>)> = vec![
        ("identical", base_taps.clone()),
        ("1 coefficient changed", {
            let mut t = base_taps.clone();
            t[3] ^= 0xFF;
            t
        }),
        ("half the coefficients changed", {
            let mut t = base_taps.clone();
            for v in t.iter_mut().take(4) {
                *v ^= 0xABC;
            }
            t
        }),
        (
            "different length (12 taps)",
            (0..12).map(|i| i * 17 + 3).collect(),
        ),
    ];
    let mut last_frames = 0;
    for (name, taps) in &scenarios {
        let mut cop = Coprocessor::new(dev.clone());
        cop.register("base", &family("base", &base_taps)).unwrap();
        cop.register("next", &family("next", taps)).unwrap();
        cop.switch_to("base").unwrap();
        let t = cop.switch_to("next").unwrap();
        let frames = cop.stats().frames_written - dev.config_frames as u64;
        table.row(&[
            name.to_string(),
            frames.to_string(),
            format!("{t}"),
            f(t.as_secs_f64() / full_time.as_secs_f64(), 4),
        ]);
        c.check(
            format!("'{name}' switches cheaper than a full configuration"),
            t < full_time,
        );
        if *name != "identical" {
            c.check(
                format!("'{name}' rewrites more frames than the previous scenario"),
                frames >= last_frames,
            );
            last_frames = frames;
        }
    }
    table.print();

    // Scrubbing under an SEU barrage.
    let fitted = fit(&family("victim", &base_taps), &dev).unwrap();
    let mut fpga = Fpga::new(dev.clone());
    fpga.configure(fitted).unwrap();
    let mut rng = WorkloadRng::seed_from_u64(0x5Eu64);
    let mut scrub_table = Table::new(
        "Ablation: scrubbing an SEU barrage",
        &[
            "upsets injected",
            "frames repaired",
            "CRC-detectable",
            "scrub time",
        ],
    );
    for upsets in [1u32, 8, 64] {
        for _ in 0..upsets {
            let frame = rng.below(dev.config_frames as u64) as u32;
            let byte = rng.below(dev.frame_bytes as u64) as u32;
            let bit = rng.below(8) as u8;
            fpga.inject_upset(frame, byte, bit).unwrap();
        }
        assert!(!fpga.integrity_ok().unwrap());
        let report = fpga.scrub().unwrap();
        scrub_table.row(&[
            upsets.to_string(),
            report.frames_repaired.to_string(),
            report.crc_detectable.to_string(),
            format!("{}", report.time),
        ]);
        c.check(
            format!("scrub restores integrity after {upsets} upsets"),
            fpga.integrity_ok().unwrap(),
        );
        c.check(
            format!("{upsets}-upset scrub cost ≈ one read-back"),
            report.time < full_time * 2,
        );
    }
    scrub_table.print();
    atlantis_bench::conclude("ablation_reconfig", c)
}
