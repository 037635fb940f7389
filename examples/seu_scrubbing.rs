//! Configuration-integrity workflow: single-event upsets and read-back
//! scrubbing (the operational use of §2's “read-back/test” feature in
//! radiation environments).
//!
//! Run with: `cargo run --example seu_scrubbing`

use atlantis::fabric::Fpga;
use atlantis::prelude::*;
use atlantis::simcore::rng::WorkloadRng;

fn main() {
    // A victim design on an ORCA.
    let mut d = Design::new("victim");
    let x = d.input("x", 16);
    let acc = d.reg_feedback("acc", 16, |d, q| d.add(q, x));
    d.expose_output("acc", acc);
    let dev = Device::orca_3t125();
    let fitted = fit(&d, &dev).unwrap();
    let mut fpga = Fpga::new(dev.clone());
    fpga.configure(fitted).unwrap();
    println!(
        "configured '{}' on {}: integrity {}",
        d.name(),
        dev.name,
        fpga.integrity_ok().unwrap()
    );

    // A beam spill: random configuration upsets.
    let mut rng = WorkloadRng::seed_from_u64(2000);
    let upsets = 12;
    for _ in 0..upsets {
        let frame = rng.below(dev.config_frames as u64) as u32;
        let byte = rng.below(dev.frame_bytes as u64) as u32;
        let bit = rng.below(8) as u8;
        fpga.inject_upset(frame, byte, bit).unwrap();
    }
    println!("\ninjected {upsets} SEUs:");
    println!("  integrity: {}", fpga.integrity_ok().unwrap());
    println!("  frame CRCs verify: {}", fpga.readback().unwrap().verify());

    // Periodic scrub pass.
    let report = fpga.scrub().unwrap();
    println!("\nscrub pass:");
    println!("  frames repaired:        {}", report.frames_repaired);
    println!("  CRC-detectable upsets:  {}", report.crc_detectable);
    println!("  pass duration:          {}", report.time);
    println!("  integrity after scrub:  {}", fpga.integrity_ok().unwrap());
    assert!(fpga.integrity_ok().unwrap());

    // Scrub duty cycle at a given upset rate.
    let scrub_period_ms = 100.0;
    let duty = report.time.as_millis_f64() / scrub_period_ms * 100.0;
    println!(
        "\nscrubbing every {scrub_period_ms} ms costs {duty:.1}% of the configuration port's time"
    );
}
