//! Superop fusion + adaptive evaluation bench (DESIGN.md §12 and §14).
//!
//! Two netlists:
//!
//! * **TRT-scale** (the `chdl_engine` workload, shared via
//!   [`atlantis_bench::trt`]): the raw micro-op stream
//!   (`EngineConfig::unfused()`) versus the default engine — the fusion
//!   pass (with the adaptive sweeps, which this sparse per-hit stimulus
//!   hardly engages) must buy ≥1.5x ns/cycle.
//! * **Deep** (4096×16 nodes of mixed logic seeded by free-running
//!   counters, so every level is dirty every cycle): serial per-op queue
//!   evaluation (`EngineConfig::serial()`) versus the adaptive evaluator
//!   (`EngineConfig::default()`), whose level-sweep plan replaces per-op
//!   bookkeeping and must buy ≥2x.
//!
//! Every measured run is cross-checked bit-for-bit against the
//! interpreter oracle (a prefix of it on the deep netlist), and the
//! compiled-engine floor (≥2x over the interpreter) is re-asserted on the
//! fused+adaptive configuration. Always writes `BENCH_fusion.json`.
//! `--test` is a fast smoke mode; the deep floors are sized for the full
//! 4096×16 netlist.

use atlantis_bench::trt::{
    drive_trt, measure_trt, print_dispatch_ledger, print_fusion_ledger, trt_scale_design,
    write_netopt_artifact,
};
use atlantis_bench::Checker;
use atlantis_chdl::{Design, EngineConfig, ExecMode, Sim};
use criterion::{black_box, Criterion};
use std::time::Instant;

/// Deep netlist: `cols` nodes per level × `depth` levels of mixed logic
/// (adders, ANDN/XOR shapes, constant sides, slice+concat re-packs,
/// compare-and-select), seeded by 64 free-running counters so the whole
/// fabric toggles every cycle, reduced by a balanced XOR tree.
fn deep_design(cols: usize, depth: usize) -> Design {
    let mut d = Design::new("deep");
    let seeds: Vec<_> = (0..64)
        .map(|i| {
            d.reg_feedback(format!("ctr{i}"), 16, |d, q| {
                let k = d.lit(2 * i + 1, 16);
                d.add(q, k)
            })
        })
        .collect();
    let mut layer: Vec<_> = (0..cols).map(|j| seeds[j % seeds.len()]).collect();
    for lvl in 0..depth {
        layer = (0..cols)
            .map(|j| {
                let a = layer[j];
                let b = layer[(j + 1) % cols];
                match (lvl + j) % 6 {
                    0 => d.add(a, b),
                    1 => {
                        let n = d.not(a);
                        d.and(n, b)
                    }
                    2 => d.xor(a, b),
                    3 => {
                        let k = d.lit(((lvl * 131 + j * 17) & 0xFFFF) as u64, 16);
                        d.or(a, k)
                    }
                    4 => {
                        let hi = d.slice(a, 8, 8);
                        let lo = d.slice(b, 0, 8);
                        d.concat(hi, lo)
                    }
                    _ => {
                        let s = d.eq(a, b);
                        d.mux(s, a, b)
                    }
                }
            })
            .collect();
    }
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|ch| {
                if ch.len() == 2 {
                    d.xor(ch[0], ch[1])
                } else {
                    ch[0]
                }
            })
            .collect();
    }
    d.expose_output("deep_out", layer[0]);
    d
}

/// One timed batch of `cycles` edges; returns ns/cycle and the final
/// value of `out` so configurations can be cross-checked.
fn measure(sim: &mut Sim, out: &str, cycles: u64) -> (f64, u64) {
    sim.get(out); // settle before the clock starts
    let t0 = Instant::now();
    sim.run_batch(cycles);
    let ns = t0.elapsed().as_nanos() as f64 / cycles as f64;
    (ns, sim.get(out))
}

fn bench_fusion(c: &mut Criterion) {
    let trt = trt_scale_design();
    let mut fused = Sim::new(&trt);
    drive_trt(&mut fused);
    c.bench_function("chdl_fusion/trt_fused_stream_1000", |b| {
        b.iter(|| black_box(measure_trt(&mut fused, &trt, 1000)));
    });
    let mut unfused = Sim::with_config(&trt, ExecMode::Compiled, EngineConfig::unfused());
    drive_trt(&mut unfused);
    c.bench_function("chdl_fusion/trt_unfused_stream_1000", |b| {
        b.iter(|| black_box(measure_trt(&mut unfused, &trt, 1000)));
    });
}

fn main() -> std::process::ExitCode {
    let test_mode = std::env::args().any(|a| a == "--test" || a == "--quick");
    let mut criterion = Criterion::default();
    bench_fusion(&mut criterion);
    criterion.final_summary();

    let mut c = Checker::new();

    // ---- TRT-scale: fusion floor, isolated -----------------------------
    let trt_cycles: u64 = if test_mode { 10_000 } else { 100_000 };
    let trt = trt_scale_design();
    let mut sims = [
        Sim::with_mode(&trt, ExecMode::Interpreted),
        Sim::with_config(&trt, ExecMode::Compiled, EngineConfig::unfused()),
        Sim::new(&trt),
    ];
    for sim in &mut sims {
        drive_trt(sim);
    }
    // Interleaved best-of-N: the configurations alternate in short blocks
    // so host-wide noise hits them alike, and each keeps its fastest block
    // (the standard noise-robust point estimate).
    let reps = 5;
    let mut best = [f64::INFINITY; 3];
    let mut digests = [0u64; 3];
    for _ in 0..reps {
        for (k, sim) in sims.iter_mut().enumerate() {
            let (ns, d) = measure_trt(sim, &trt, trt_cycles / reps);
            best[k] = best[k].min(ns);
            digests[k] = digests[k].rotate_left(7) ^ d;
        }
    }
    let [oracle_out, unfused_out, fused_out] = digests;
    let [_, unfused_ns, fused_ns] = best;
    let stats = sims[2].engine_stats().unwrap().clone();
    let fusion_speedup = unfused_ns / fused_ns;

    print_fusion_ledger(&stats);
    print_dispatch_ledger(&stats);
    println!("unfused : {unfused_ns:>8.1} ns/cycle");
    println!("default : {fused_ns:>8.1} ns/cycle  ({fusion_speedup:.2}x)");

    c.check(
        "TRT: fused engine agrees with the interpreter oracle",
        fused_out == oracle_out,
    );
    c.check(
        "TRT: unfused engine agrees with the interpreter oracle",
        unfused_out == oracle_out,
    );
    c.check_band(
        "TRT micro-ops before fusion",
        stats.ops_lowered as f64,
        100.0,
        1e9,
    );
    c.check_band(
        "TRT micro-ops after fusion",
        stats.ops_final as f64,
        1.0,
        stats.ops_lowered as f64,
    );
    c.check_band("TRT superops formed", stats.ops_fused as f64, 1.0, 1e9);
    c.check_band(
        "TRT fused speedup over the unfused stream (>= 1.5x required)",
        fusion_speedup,
        1.5,
        1e6,
    );

    // ---- deep netlist: adaptive vs serial per-op ----------------------
    let (cols, depth, deep_cycles) = if test_mode {
        (1024, 6, 200)
    } else {
        (4096, 16, 2_000)
    };
    let deep = deep_design(cols, depth);
    let mut serial = Sim::with_config(&deep, ExecMode::Compiled, EngineConfig::serial());
    let mut adaptive = Sim::new(&deep); // fused + adaptive sweeps
    let mut deep_oracle = Sim::with_mode(&deep, ExecMode::Interpreted);
    let deep_stats = adaptive.engine_stats().unwrap().clone();
    let (serial_ns, serial_out) = measure(&mut serial, "deep_out", deep_cycles);
    let (adaptive_ns, adaptive_out) = measure(&mut adaptive, "deep_out", deep_cycles);
    let (deep_interp_ns, deep_oracle_out) =
        measure(&mut deep_oracle, "deep_out", deep_cycles.min(200));
    let adaptive_speedup = serial_ns / adaptive_ns;
    let interp_speedup = deep_interp_ns / adaptive_ns;

    println!(
        "\ndeep netlist ({cols} x {depth}): {} ops, {} levels",
        deep_stats.ops_final, deep_stats.levels
    );
    println!("serial per-op : {serial_ns:>9.1} ns/cycle");
    println!("adaptive      : {adaptive_ns:>9.1} ns/cycle  ({adaptive_speedup:.2}x)");
    println!("interpreter   : {deep_interp_ns:>9.1} ns/cycle  (adaptive is {interp_speedup:.2}x)");

    c.check(
        "deep: adaptive engine agrees with the interpreter oracle",
        // The oracle ran fewer cycles in full mode; compare the serial
        // engine (same cycle count) and spot-check the oracle prefix.
        adaptive_out == serial_out,
    );
    c.check(
        "deep: serial engine agrees with the interpreter oracle prefix",
        {
            let mut a = Sim::with_config(&deep, ExecMode::Compiled, EngineConfig::serial());
            let (_, short_out) = measure(&mut a, "deep_out", deep_cycles.min(200));
            short_out == deep_oracle_out
        },
    );
    c.check_band(
        "deep netlist micro-ops",
        deep_stats.ops_final as f64,
        1_000.0,
        1e9,
    );
    c.check_band(
        "deep adaptive speedup over serial per-op eval (>= 2x required)",
        adaptive_speedup,
        2.0,
        1e6,
    );
    c.check_band(
        "deep fused+adaptive speedup over the interpreter (compiled-engine floor, >= 2x)",
        interp_speedup,
        2.0,
        1e6,
    );

    // Netlist-optimizer floors, shared with `chdl_engine`; writes the
    // `BENCH_netopt.json` artifact CI parses.
    let netopt_ok = write_netopt_artifact(test_mode);

    atlantis_bench::write_artifact("fusion", &c);
    match c.finish_report() {
        Ok(()) if netopt_ok => std::process::ExitCode::SUCCESS,
        _ => std::process::ExitCode::FAILURE,
    }
}
