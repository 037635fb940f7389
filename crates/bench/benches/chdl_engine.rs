//! Criterion bench comparing the two CHDL execution engines on a
//! TRT-histogrammer-scale netlist: the compiled micro-op engine (the
//! default `Sim` path) versus the tree-walking interpreter oracle.
//!
//! Besides the criterion timings this bench self-measures both engines
//! over a long batch, verifies they agree bit-for-bit, and always writes
//! `BENCH_chdl_engine.json` (the shared `--json` format of the table
//! binaries, at the repo root) with cycles/s for each engine and the
//! speedup factor. Run with `--test` (as CI's smoke step does) for a
//! single fast iteration.

use atlantis_bench::trt::{
    drive_trt, print_fusion_ledger, trt_scale_design, write_netopt_artifact,
};
use atlantis_bench::Checker;
use atlantis_chdl::{ExecMode, Sim};
use criterion::{black_box, Criterion};
use std::time::Instant;

fn bench_engines(c: &mut Criterion) {
    let d = trt_scale_design();

    let mut compiled = Sim::new(&d);
    drive_trt(&mut compiled);
    c.bench_function("chdl_engine/compiled_batch_1000", |b| {
        b.iter(|| {
            compiled.run_batch(1000);
            black_box(compiled.get("counter_out"))
        });
    });

    let mut stepped = Sim::new(&d);
    drive_trt(&mut stepped);
    c.bench_function("chdl_engine/compiled_step_1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                stepped.step();
            }
            black_box(stepped.get("counter_out"))
        });
    });

    let mut interp = Sim::with_mode(&d, ExecMode::Interpreted);
    drive_trt(&mut interp);
    c.bench_function("chdl_engine/interpreted_1000", |b| {
        b.iter(|| {
            interp.run(1000);
            black_box(interp.get("counter_out"))
        });
    });
}

/// One timed run of `cycles` edges; returns ns/cycle and the final output
/// (so the two engines can be cross-checked).
fn measure(sim: &mut Sim, cycles: u64) -> (f64, u64) {
    drive_trt(sim);
    sim.get("counter_out"); // settle before the clock starts
    let t0 = Instant::now();
    sim.run_batch(cycles);
    let ns = t0.elapsed().as_nanos() as f64 / cycles as f64;
    (ns, sim.get("counter_out"))
}

fn main() -> std::process::ExitCode {
    let test_mode = std::env::args().any(|a| a == "--test" || a == "--quick");
    let mut criterion = Criterion::default();
    bench_engines(&mut criterion);
    criterion.final_summary();

    // Self-measurement for the committed JSON report.
    let cycles: u64 = if test_mode { 2_000 } else { 100_000 };
    let d = trt_scale_design();
    let stats = Sim::new(&d).engine_stats().unwrap().clone();
    let (ops, levels) = (stats.ops_final, stats.levels);
    let (interp_ns, interp_out) = measure(&mut Sim::with_mode(&d, ExecMode::Interpreted), cycles);
    let (comp_ns, comp_out) = measure(&mut Sim::new(&d), cycles);
    let speedup = interp_ns / comp_ns;

    println!("\nTRT-scale netlist: {ops} micro-ops, {levels} logic levels");
    print_fusion_ledger(&stats);
    for (name, count) in &stats.opcodes {
        println!("  {name:>10}: {count}");
    }
    println!("interpreter : {interp_ns:>8.1} ns/cycle");
    println!("compiled    : {comp_ns:>8.1} ns/cycle  ({speedup:.2}x)");

    let mut c = Checker::new();
    c.check(
        "engines agree bit-for-bit after the measured run",
        interp_out == comp_out,
    );
    c.check_band("micro-ops in the lowered stream", ops as f64, 100.0, 1e9);
    c.check_band(
        "micro-ops lowered before fusion",
        stats.ops_lowered as f64,
        100.0,
        1e9,
    );
    c.check_band(
        "micro-ops after fusion",
        stats.ops_final as f64,
        1.0,
        stats.ops_lowered as f64,
    );
    c.check_band(
        "superops formed by fusion",
        stats.ops_fused as f64,
        1.0,
        1e9,
    );
    c.check_band("interpreter ns/cycle", interp_ns, 0.0, 1e12);
    c.check_band("compiled ns/cycle", comp_ns, 0.0, 1e12);
    c.check_band(
        "compiled engine speedup over the interpreter (>= 2x required)",
        speedup,
        2.0,
        1e6,
    );

    // Netlist-optimizer floors, shared with `chdl_fusion`; writes the
    // `BENCH_netopt.json` artifact CI parses.
    let netopt_ok = write_netopt_artifact(test_mode);

    atlantis_bench::write_artifact("chdl_engine", &c);
    match c.finish_report() {
        Ok(()) if netopt_ok => std::process::ExitCode::SUCCESS,
        _ => std::process::ExitCode::FAILURE,
    }
}
