//! Criterion bench for lane-batched execution: one TRT-scale netlist
//! stepped as an 8-lane [`LaneGroup`] versus eight independent scalar
//! `Sim` instances fed the same per-cycle hit streams.
//!
//! The workload is the histogrammer's real serving pattern: every cycle
//! each instance receives a hit id and the LUT word for its previous
//! address (the external-SSRAM interface of `build_external_design`),
//! so the counter bank, threshold compares, and read-out mux genuinely
//! toggle — this is an eval-heavy stream, not an idle clock.
//!
//! The laned engine executes one micro-op stream over
//! structure-of-arrays lane state: instruction dispatch, dirty-queue
//! bookkeeping, and consumer marking are paid once per op for all
//! lanes, and the chunked inner lane loops auto-vectorize. Lane groups
//! always dispatch per op through `match` (they ignore `DispatchMode`),
//! so both sides of this bench run match dispatch. Virtual time
//! is *unchanged* — lanes serialise in virtual time on the one physical
//! device (`Fpga::run_lanes` charges `cycles × lanes`) — the win is
//! host wall clock only, which is what this bench measures.
//!
//! Besides the criterion timings the bench self-measures both paths
//! over a long stream, cross-checks every lane's outputs bit-for-bit
//! against its scalar twin, and always writes `BENCH_lanes.json` (the
//! shared `--json` format, at the repo root) with ns/cycle for each
//! path and the wall-clock speedup. Run with `--test` (as CI's smoke
//! step does) for a single fast iteration with a relaxed speedup band.

use atlantis_bench::trt::{trt_scale_design, STRAWS};
use atlantis_bench::Checker;
use atlantis_chdl::{Design, DispatchMode, EngineConfig, ExecMode, LaneGroup, Signal, Sim};
use criterion::{black_box, Criterion};
use std::time::Instant;

const LANES: usize = 8;

/// The scalar baseline runs match dispatch, the only dispatch a lane
/// group has, so the bench isolates the one variable it claims to
/// measure: SoA lane batching amortizing per-op dispatch and bookkeeping
/// across instances. Threaded dispatch (DESIGN.md §14) speeds the
/// *scalar* baseline ~1.5x on this workload, so comparing at the default
/// `Auto` tier would fold that dispatch-tier gain (measured in
/// `chdl_fusion`) into this ratio.
fn lane_bench_sim(d: &Design) -> Sim {
    let config = EngineConfig {
        dispatch: DispatchMode::Match,
        ..EngineConfig::default()
    };
    Sim::with_config(d, ExecMode::Compiled, config)
}

/// The input ports a streaming cycle drives, resolved once.
#[derive(Clone, Copy)]
struct Ports {
    hit: Signal,
    valid: Signal,
    pass: Signal,
    mem_data: Signal,
    counter_sel: Signal,
    threshold: Signal,
    clear: Signal,
}

impl Ports {
    fn resolve(d: &Design) -> Ports {
        let sig = |n: &str| d.signal(n).expect("port exists");
        Ports {
            hit: sig("hit"),
            valid: sig("valid"),
            pass: sig("pass"),
            mem_data: sig("mem_data0"),
            counter_sel: sig("counter_sel"),
            threshold: sig("threshold"),
            clear: sig("clear"),
        }
    }
}

/// Deterministic per-(cycle, lane) stimulus: a hit id and the LUT word
/// the external memory module would return for it. Lanes diverge — each
/// streams a different event.
fn stimulus(cycle: u64, lane: u64) -> (u64, u64) {
    let mut x = cycle
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    (x % STRAWS, x.rotate_left(17))
}

fn prime(ports: &Ports, mut set: impl FnMut(Signal, u64)) {
    set(ports.valid, 1);
    set(ports.clear, 0);
    set(ports.threshold, 24);
    set(ports.pass, 0);
}

/// Step all eight scalar sims one cycle of the stream.
fn step_scalar(sims: &mut [Sim], ports: &Ports, cycle: u64) {
    for (lane, sim) in sims.iter_mut().enumerate() {
        let (hit, word) = stimulus(cycle, lane as u64);
        sim.set_signal(ports.hit, hit);
        sim.set_signal(ports.mem_data, word);
        sim.set_signal(ports.counter_sel, cycle % 64);
        sim.step();
    }
}

/// Step the lane group one cycle of the same stream.
fn step_lanes(group: &mut LaneGroup, ports: &Ports, cycle: u64) {
    for lane in 0..group.lanes() {
        let (hit, word) = stimulus(cycle, lane as u64);
        group.set_signal(lane, ports.hit, hit);
        group.set_signal(lane, ports.mem_data, word);
        group.set_signal(lane, ports.counter_sel, cycle % 64);
    }
    group.step();
}

fn bench_lanes(c: &mut Criterion) {
    let d = trt_scale_design();
    let ports = Ports::resolve(&d);

    let mut group = lane_bench_sim(&d).fork_lanes(LANES);
    prime(&ports, |s, v| {
        for lane in 0..LANES {
            group.set_signal(lane, s, v);
        }
    });
    let mut cycle = 0u64;
    c.bench_function("chdl_lanes/laned_8x_stream_1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                step_lanes(&mut group, &ports, cycle);
                cycle += 1;
            }
            black_box(group.get(0, "counter_out"))
        });
    });

    let mut sims: Vec<Sim> = (0..LANES).map(|_| lane_bench_sim(&d)).collect();
    for sim in &mut sims {
        prime(&ports, |s, v| sim.set_signal(s, v));
    }
    let mut cycle = 0u64;
    c.bench_function("chdl_lanes/scalar_8x_stream_1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                step_scalar(&mut sims, &ports, cycle);
                cycle += 1;
            }
            black_box(sims[0].get("counter_out"))
        });
    });
}

/// Outputs every lane must agree on with its scalar twin.
const OUTPUTS: [&str; 3] = ["counter_out", "found_any", "found_sel"];

fn main() -> std::process::ExitCode {
    let test_mode = std::env::args().any(|a| a == "--test" || a == "--quick");
    let mut criterion = Criterion::default();
    bench_lanes(&mut criterion);
    criterion.final_summary();

    // Self-measurement for the committed JSON report. Interleaved
    // best-of-`reps` (the `chdl_fusion` idiom): both paths step the same
    // total stream — so the bit-for-bit cross-check below still holds —
    // but each side's ns/cycle is the best of `reps` alternating slices,
    // which strips scheduler noise a single long shot cannot.
    let (cycles, reps) = if test_mode {
        (2_000u64, 1)
    } else {
        (20_000u64, 5)
    };
    let d = trt_scale_design();
    let ports = Ports::resolve(&d);

    let mut group = lane_bench_sim(&d).fork_lanes(LANES);
    prime(&ports, |s, v| {
        for lane in 0..LANES {
            group.set_signal(lane, s, v);
        }
    });
    group.eval(); // settle before the clock starts

    let mut sims: Vec<Sim> = (0..LANES).map(|_| lane_bench_sim(&d)).collect();
    for sim in &mut sims {
        prime(&ports, |s, v| sim.set_signal(s, v));
        sim.get("counter_out"); // settle
    }

    let mut laned_ns = f64::MAX;
    let mut scalar_ns = f64::MAX;
    for rep in 0..reps {
        let base = rep * cycles;
        let t0 = Instant::now();
        for cycle in base..base + cycles {
            step_lanes(&mut group, &ports, cycle);
        }
        laned_ns = laned_ns.min(t0.elapsed().as_nanos() as f64 / cycles as f64);
        let t0 = Instant::now();
        for cycle in base..base + cycles {
            step_scalar(&mut sims, &ports, cycle);
        }
        scalar_ns = scalar_ns.min(t0.elapsed().as_nanos() as f64 / cycles as f64);
    }
    let cycles = cycles * reps; // total streamed, for the report
    let speedup = scalar_ns / laned_ns;

    println!("\n{LANES} instances of the TRT-scale netlist, {cycles} streamed cycles each");
    println!("scalar ×{LANES}: {scalar_ns:>8.1} ns/cycle (summed over instances)");
    println!("laned  ×{LANES}: {laned_ns:>8.1} ns/cycle  ({speedup:.2}x)");

    let mut c = Checker::new();
    let mut agree = true;
    for (lane, sim) in sims.iter_mut().enumerate() {
        for out in OUTPUTS {
            agree &= group.get(lane, out) == sim.get(out);
        }
    }
    c.check(
        "every lane matches its scalar twin bit-for-bit after the measured run",
        agree,
    );
    c.check(
        "lanes and scalars ran the same cycle count",
        group.cycle() == sims[0].cycle(),
    );
    c.check_band("scalar ns/cycle (8 instances)", scalar_ns, 0.0, 1e12);
    c.check_band("laned ns/cycle (8 lanes)", laned_ns, 0.0, 1e12);
    // The acceptance band: ≥ 2.5x wall-clock throughput for the laned
    // batch at L = 8. The floor was 3x before the PR 8 engine work; CSE
    // and the cheaper dispatch paths sped the *scalar* baseline more
    // than the laned one (which already amortizes those per-op costs
    // across lanes), compressing the honest ratio to ~3.0 flat — a
    // coin-flip band. 2.5x still evidences the batching claim with a
    // margin measurement noise cannot fake. The `--test` smoke run
    // keeps a relaxed > 1x band (tiny cycle counts on loaded CI
    // runners measure mostly noise).
    let floor = if test_mode { 1.0 } else { 2.5 };
    c.check_band("laned speedup over 8 scalar instances", speedup, floor, 1e6);

    atlantis_bench::write_artifact("lanes", &c);
    match c.finish_report() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(_) => std::process::ExitCode::FAILURE,
    }
}
