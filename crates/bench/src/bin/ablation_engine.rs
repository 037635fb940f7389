//! **Ablation** — the CHDL engine tiers on served work.
//!
//! Served TRT events (the 64×32-straw geometry and 256-pattern bank the
//! serving context uses) are histogrammed cycle by cycle on the 176-lane
//! histogrammer, with one engine knob changed per row against the
//! default configuration. A tier earns its place only if turning it off
//! costs served time, and the two knobs are checked to: `fuse off` must
//! cost ≥ 1.5× the default's µs/event and `adaptive off` more than 1×.
//! The last rows are the raw-stream baseline the bench floors use, plus
//! the netlist optimizer applied before `Sim::new` (the pass `Sim` used
//! to run inside construction). Every row must reproduce the bank's
//! reference histograms bit for bit.

use atlantis_apps::jobs::TRT_PATTERNS;
use atlantis_apps::trt::{Event, EventGenerator, FpgaHistogrammer, PatternBank, TrtGeometry};
use atlantis_bench::{f, Checker, Table};
use atlantis_chdl::{Design, EngineConfig, EngineStats, ExecMode, Sim};
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
    // `adaptive off` is `EngineConfig::serial()`.
    let rows = [
        ("default (fuse, adaptive)", Some(EngineConfig::default())),
        ("fuse off", knob(|c| c.fuse = false)),
        ("adaptive off", knob(|c| c.adaptive = false)),
        ("EngineConfig::unfused()", Some(EngineConfig::unfused())),
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
    // Each knob must pay on served events (DESIGN.md §12 gives the
    // measured margins).
    c.check_band(
        "fuse off: us/event over the default (>= 1.5x required)",
        event_us[1] / event_us[0],
        1.5,
        1e6,
    );
    c.check_band(
        "adaptive off: us/event over the default (> 1.0x required)",
        event_us[2] / event_us[0],
        1.0f64.next_up(),
        1e6,
    );
    atlantis_bench::conclude("ablation_engine", c)
}
