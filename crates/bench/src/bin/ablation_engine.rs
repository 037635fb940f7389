//! **Ablation** — the CHDL engine tiers on served work.
//!
//! Served TRT events (the 64×32-straw geometry and 256-pattern bank the
//! serving context uses) are histogrammed cycle by cycle on the 176-lane
//! histogrammer, with one engine knob changed per row against the
//! default configuration. A tier earns its place only if turning it off
//! costs served time; the last rows are the baselines the bench floors
//! use, plus the netlist optimizer applied before `Sim::new` (the pass
//! `Sim` used to run inside construction). Every row must reproduce the
//! bank's reference histograms bit for bit.
//!
//! A second table times the `Auto` dispatch gate (threaded closure chains
//! from 128 ops up) on the four served job designs, which all sit below
//! it: build and per-cycle cost under match and threaded dispatch, with
//! fresh random inputs every cycle, and the stepped cycles after which
//! the threaded build would pay for itself.

use atlantis_apps::jobs::{JobKind, TRT_PATTERNS};
use atlantis_apps::trt::{Event, EventGenerator, FpgaHistogrammer, PatternBank, TrtGeometry};
use atlantis_bench::{f, Checker, Table};
use atlantis_chdl::{Design, DispatchMode, EngineConfig, EngineStats, ExecMode, Sim};
use atlantis_simcore::rng::WorkloadRng;
use std::time::Instant;

/// RAM width of the served histogrammer: the bank in two passes.
const LANES: u32 = 176;
/// Events per timed block.
const EVENTS: u64 = 40;
/// Interleaved timed blocks per row (each row keeps its fastest).
const REPS: usize = 5;
/// Construction timings per row (each row keeps its fastest).
const BUILDS: usize = 20;
/// The track-finding threshold the serving context applies.
const THRESHOLD: u32 = 24;
/// Stepped cycles per dispatch-gate timing block.
const GATE_CYCLES: u64 = 2000;

/// The serving bank and one served event per seed, generated as the
/// serving context generates them.
fn served_events() -> (PatternBank, Vec<Event>) {
    let geometry = TrtGeometry {
        phi_bins: 64,
        layers: 32,
    };
    let bank = PatternBank::generate(
        geometry,
        TRT_PATTERNS,
        &mut WorkloadRng::seed_from_u64(0xA7_1A_57_15),
    );
    let events = (0..EVENTS)
        .map(|seed| {
            let mut generator = EventGenerator::new(geometry);
            generator.noise_occupancy = 0.05;
            generator.tracks_per_event = 1 + (seed % 4) as usize;
            generator.generate(&bank, &mut WorkloadRng::seed_from_u64(seed ^ 0x0B5E55ED))
        })
        .collect();
    (bank, events)
}

fn main() -> std::process::ExitCode {
    let (bank, events) = served_events();
    let design = FpgaHistogrammer::new(&bank, LANES).design().clone();
    let reference: Vec<Vec<u32>> = events
        .iter()
        .map(|ev| bank.reference_histogram(&ev.active))
        .collect();

    // One knob changed from the default per row; `None` builds the
    // default engine from `Design::optimized()`, optimization included in
    // the build time.
    let knob = |edit: fn(&mut EngineConfig)| {
        let mut config = EngineConfig::default();
        edit(&mut config);
        Some(config)
    };
    let rows = [
        (
            "default (fuse, adaptive, auto dispatch)",
            Some(EngineConfig::default()),
        ),
        ("fuse off", knob(|c| c.fuse = false)),
        ("adaptive off", knob(|c| c.adaptive = false)),
        ("match dispatch", knob(|c| c.dispatch = DispatchMode::Match)),
        ("EngineConfig::unfused()", Some(EngineConfig::unfused())),
        ("EngineConfig::serial()", Some(EngineConfig::serial())),
        ("Design::optimized() before Sim::new", None),
    ];
    let build = |config: Option<EngineConfig>, d: &Design| match config {
        Some(config) => Sim::with_config(d, ExecMode::Compiled, config),
        None => Sim::new(&d.optimized().0),
    };

    let mut hws: Vec<FpgaHistogrammer> = rows
        .iter()
        .map(|&(_, config)| FpgaHistogrammer::with_sim(&bank, LANES, |d| build(config, d)))
        .collect();
    let stats: Vec<EngineStats> = rows
        .iter()
        .map(|&(_, config)| build(config, &design).engine_stats().unwrap().clone())
        .collect();
    let build_us: Vec<f64> = rows
        .iter()
        .map(|&(_, config)| {
            (0..BUILDS)
                .map(|_| {
                    let t = Instant::now();
                    drop(build(config, &design));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    // Interleaved best-of-REPS: the rows alternate in blocks so host-wide
    // noise hits them alike.
    let mut event_us = vec![f64::INFINITY; rows.len()];
    let mut exact = vec![true; rows.len()];
    for _ in 0..REPS {
        for (k, hw) in hws.iter_mut().enumerate() {
            let t = Instant::now();
            for (ev, want) in events.iter().zip(&reference) {
                exact[k] &= hw.run_event(&ev.hits, THRESHOLD).0 == *want;
            }
            let us = t.elapsed().as_secs_f64() * 1e6 / EVENTS as f64;
            event_us[k] = event_us[k].min(us);
        }
    }

    let mut c = Checker::new();
    let mut table = Table::new(
        format!(
            "Ablation: CHDL engine tiers on served TRT events ({LANES} lanes, {EVENTS} events)"
        ),
        &[
            "configuration",
            "final ops",
            "select",
            "mux",
            "build (us)",
            "us/event",
            "vs default",
        ],
    );
    for (k, (name, _)) in rows.iter().enumerate() {
        let count = |op| {
            stats[k]
                .opcodes
                .iter()
                .find(|(n, _)| *n == op)
                .map_or(0, |&(_, n)| n)
        };
        table.row(&[
            name.to_string(),
            stats[k].ops_final.to_string(),
            count("select").to_string(),
            count("mux").to_string(),
            f(build_us[k], 1),
            f(event_us[k], 1),
            format!("{}x", f(event_us[k] / event_us[0], 2)),
        ]);
    }
    table.print();
    for (k, (name, _)) in rows.iter().enumerate() {
        c.check(
            format!("{name}: histograms match the bank reference"),
            exact[k],
        );
    }
    dispatch_gate(&mut c);
    atlantis_bench::conclude("ablation_engine", c)
}

/// One dispatch tier on one design, best of `REPS`: build µs, stepped
/// ns/cycle, and the outputs after the last block.
fn time_dispatch(design: &Design, dispatch: DispatchMode) -> (f64, f64, Vec<u64>) {
    let config = EngineConfig {
        dispatch,
        ..EngineConfig::default()
    };
    let inputs = design.inputs();
    let (mut build_us, mut step_ns, mut outputs) = (f64::INFINITY, f64::INFINITY, Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let mut sim = Sim::with_config(design, ExecMode::Compiled, config);
        build_us = build_us.min(t.elapsed().as_secs_f64() * 1e6);
        // xorshift64: the same stimulus for every tier and block.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let t = Instant::now();
        for _ in 0..GATE_CYCLES {
            for (name, width) in &inputs {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                sim.set(name, x >> (64 - u32::from(*width)));
            }
            sim.step();
        }
        step_ns = step_ns.min(t.elapsed().as_secs_f64() * 1e9 / GATE_CYCLES as f64);
        outputs = design
            .output_ports()
            .iter()
            .map(|(name, _)| sim.get(name))
            .collect();
    }
    (build_us, step_ns, outputs)
}

/// The `Auto` dispatch gate on the served designs below it (see the
/// module docs).
fn dispatch_gate(c: &mut Checker) {
    let mut table = Table::new(
        format!(
            "Ablation: the Auto dispatch gate on the served designs ({GATE_CYCLES} stepped cycles)"
        ),
        &[
            "design",
            "final ops",
            "match build (us)",
            "threaded build (us)",
            "match ns/cycle",
            "threaded ns/cycle",
            "break-even cycles",
        ],
    );
    let mut checks = Vec::new();
    for kind in JobKind::ALL {
        let design = kind.build_design();
        let name = kind.design_name();
        let mut auto = Sim::new(&design);
        auto.step();
        let stats = auto.engine_stats().unwrap().clone();
        let (match_build, match_ns, match_out) = time_dispatch(&design, DispatchMode::Match);
        let (threaded_build, threaded_ns, threaded_out) =
            time_dispatch(&design, DispatchMode::Threaded);
        let saved_ns = match_ns - threaded_ns;
        let break_even = if saved_ns > 0.0 {
            f((threaded_build - match_build).max(0.0) * 1e3 / saved_ns, 0)
        } else {
            "never".to_string()
        };
        table.row(&[
            name.to_string(),
            stats.ops_final.to_string(),
            f(match_build, 1),
            f(threaded_build, 1),
            f(match_ns, 1),
            f(threaded_ns, 1),
            break_even,
        ]);
        checks.push((
            format!("{name}: Auto keeps match dispatch"),
            stats.compiles == 0 && stats.evals_threaded == 0,
        ));
        checks.push((
            format!("{name}: match and threaded outputs agree"),
            match_out == threaded_out,
        ));
    }
    table.print();
    for (name, ok) in checks {
        c.check(name, ok);
    }
}
