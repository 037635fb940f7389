//! Criterion bench for the CHDL substrate: netlist construction,
//! elaboration and cycle-stepping throughput.

use atlantis_chdl::{Design, Sim};
use criterion::{criterion_group, criterion_main, Criterion};

/// A representative datapath: a 16-tap 16-bit MAC chain with registers.
fn mac_chain() -> Design {
    let mut d = Design::new("mac16");
    let x = d.input("x", 16);
    let mut acc = d.lit(0, 16);
    for i in 0..16 {
        let k = d.lit((i * 7 + 3) % 251, 16);
        let m = d.mul(x, k);
        let r = d.reg(format!("t{i}"), m);
        acc = d.add(acc, r);
    }
    d.expose_output("y", acc);
    d
}

fn fifo_design() -> Design {
    let mut d = Design::new("fifo");
    let din = d.input("din", 32);
    let push = d.input("push", 1);
    let pop = d.input("pop", 1);
    let f = d.fifo("f", 64, din, push, pop);
    d.expose_output("dout", f.dout);
    d.expose_output("count", f.count);
    d
}

fn bench_chdl(c: &mut Criterion) {
    c.bench_function("chdl_build_mac_chain", |b| b.iter(mac_chain));

    let d = mac_chain();
    c.bench_function("chdl_elaborate_mac_chain", |b| b.iter(|| Sim::new(&d)));

    let mut sim = Sim::new(&d);
    c.bench_function("chdl_step_mac_chain_1000", |b| {
        b.iter(|| {
            sim.set("x", 1234);
            sim.run(1000);
            sim.get("y")
        });
    });

    let fd = fifo_design();
    let mut fsim = Sim::new(&fd);
    c.bench_function("chdl_step_fifo_1000", |b| {
        b.iter(|| {
            fsim.set("push", 1);
            fsim.set("pop", 1);
            fsim.set("din", 77);
            fsim.run(1000);
            fsim.get("count")
        });
    });

    c.bench_function("chdl_bitstream_generation", |b| {
        // `FittedDesign::bitstream` memoizes, so time the image build itself.
        let device = atlantis_fabric::Device::orca_3t125();
        let structure = d.structural_bytes();
        b.iter(|| atlantis_fabric::Bitstream::from_structure(&device, &structure));
    });
}

criterion_group!(benches, bench_chdl);
criterion_main!(benches);
