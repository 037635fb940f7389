//! `chdl_trt`: the serving TRT event stream histogrammed cycle by cycle
//! on the compiled CHDL engine through `FpgaHistogrammer`.
//!
//! Events are generated exactly as `WorkloadContext` generates a served
//! TRT job's event (64×32 straws, the 256-pattern serving bank), and the
//! histogrammer runs at 176-bit RAM width — two passes over the hit
//! list, so its cycle count equals the served job's `2·(hits+2)`. No
//! served job steps the engine today; this is the workload whose host
//! time is engine evaluation.

use crate::check::Failures;
use crate::measure::{self, ratio, HostRuns, Metrics};
use crate::trace::{Attribution, Stopwatch, Tracer};
use crate::{Args, Outcome};
use atlantis_apps::jobs::{JobOutcome, JobSpec, WorkloadContext, TRT_PATTERNS};
use atlantis_apps::trt::{Event, EventGenerator, FpgaHistogrammer, PatternBank, TrtGeometry};
use atlantis_chdl::Sim;
use atlantis_simcore::rng::WorkloadRng;
use atlantis_simcore::SimDuration;
use std::time::{Duration, Instant};

/// Events per repetition.
const EVENTS: usize = 1_000;
/// RAM width of the histogrammer: the serving bank in two passes.
const LANES: u32 = 176;
/// The track-finding threshold `WorkloadContext` applies.
const THRESHOLD: u32 = 24;

/// The serving geometry and bank, built as `WorkloadContext::new` does.
fn serving_bank() -> PatternBank {
    let geometry = TrtGeometry {
        phi_bins: 64,
        layers: 32,
    };
    PatternBank::generate(
        geometry,
        TRT_PATTERNS,
        &mut WorkloadRng::seed_from_u64(0xA7_1A_57_15),
    )
}

/// The event of served TRT job `spec`, generated as `WorkloadContext`
/// generates it.
fn served_event(bank: &PatternBank, spec: &JobSpec) -> Event {
    let mut generator = EventGenerator::new(bank.geometry());
    generator.noise_occupancy = 0.05;
    generator.tracks_per_event = 1 + (spec.seed % 4) as usize;
    generator.generate(
        bank,
        &mut WorkloadRng::seed_from_u64(spec.seed ^ 0x0B5E55ED),
    )
}

/// The reference answer for one event.
#[derive(Debug)]
struct Reference {
    histogram: Vec<u32>,
    tracks: Vec<usize>,
    served: JobOutcome,
}

type Answer = (Vec<u32>, Vec<usize>, u64);

/// Histogram every event on a fresh histogrammer.
fn rep(
    bank: &PatternBank,
    events: &[Event],
    mut tracer: Option<&mut Tracer>,
) -> (Duration, Duration, Vec<Answer>, Vec<u64>) {
    let t = Instant::now();
    let mut hw = FpgaHistogrammer::new(bank, LANES);
    let setup = t.elapsed();
    let mut answers = Vec::with_capacity(events.len());
    let mut wall_ns = Vec::with_capacity(events.len());
    let t0 = Instant::now();
    for (i, ev) in events.iter().enumerate() {
        let t = Instant::now();
        let a = match tracer.as_deref_mut() {
            Some(tr) => tr.host("run_event", Some(i as u64), || {
                hw.run_event(&ev.hits, THRESHOLD)
            }),
            None => hw.run_event(&ev.hits, THRESHOLD),
        };
        wall_ns.push(t.elapsed().as_nanos() as u64);
        answers.push(a);
    }
    (setup, t0.elapsed(), answers, wall_ns)
}

fn check(answers: &[Answer], refs: &[Reference]) -> Failures {
    let mut f = Failures {
        lost: refs.len().saturating_sub(answers.len()) as u64,
        ..Failures::default()
    };
    for ((hist, tracks, cycles), r) in answers.iter().zip(refs) {
        if *hist != r.histogram || *tracks != r.tracks || *cycles != r.served.cycles {
            f.wrong += 1;
        }
    }
    f
}

/// Run the workload (see `cluster::run` for the traced/untraced split).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let bank = serving_bank();
    let mut seeds = WorkloadRng::seed_from_u64(args.seed);
    let specs: Vec<JobSpec> = (0..EVENTS)
        .map(|_| JobSpec::trt(seeds.below(u64::MAX)))
        .collect();
    let events: Vec<Event> = specs.iter().map(|s| served_event(&bank, s)).collect();
    // The oracle: the bank's reference histogram and the served job's
    // outcome, timed as the software path's per-job cost.
    let mut ctx = WorkloadContext::new();
    let mut software = Stopwatch::new("apps");
    let refs: Vec<Reference> = specs
        .iter()
        .zip(&events)
        .map(|(spec, ev)| {
            let histogram = bank.reference_histogram(&ev.active);
            Reference {
                tracks: bank.find_tracks(&histogram, THRESHOLD),
                histogram,
                served: software.time(|| ctx.execute(spec)),
            }
        })
        .collect();
    let virt = measure::sorted(refs.iter().map(|r| r.served.compute.as_picos()));
    let on_time = virt
        .iter()
        .filter(|&&v| v <= measure::SLO.as_picos())
        .count();
    let busy: SimDuration = refs.iter().map(|r| r.served.compute).sum();

    let mut out = Outcome::default();
    let (mut host, mut traced_rates) = (HostRuns::default(), vec![]);
    let mut layers: Vec<Metrics> = Vec::new();
    measure::repeat(args.seconds, args.trace, |i| {
        let traced = args.trace && i % 2 == 1;
        let mut tracer = traced.then(Tracer::new);
        let (set, elapsed, answers, wall) = rep(&bank, &events, tracer.as_mut());
        let failures = check(&answers, &refs);
        out.attempted += events.len() as u64;
        out.failed += failures.total();
        if failures.total() > 0 {
            out.errors.push(format!("repetition {i}: {failures:?}"));
        }
        let rate = events.len() as f64 / elapsed.as_secs_f64();
        if let Some(t) = tracer {
            traced_rates.push(rate);
            let written = layers.is_empty();
            layers.push(per_layer(args, t, &bank, &events, &refs, written)?);
        } else {
            host.push(rate, set, wall);
        }
        Ok(())
    })?;
    if args.trace {
        out.metrics = Metrics::median_of(&layers);
        let overhead = 1.0 - traced_rates.iter().copied().fold(0.0, f64::max) / host.best_rate();
        out.metrics
            .put("apps.execute_us.trt", software.finish().us_per_call(), "us");
        out.metrics.put("trace.overhead", overhead, "ratio");
    } else {
        let m = &mut out.metrics;
        host.put(m, events.len());
        m.put_percentile("virt_p50_us", &virt, 0.5, 1e-6, "virt_us");
        m.put_percentile("virt_p99_us", &virt, 0.99, 1e-6, "virt_us");
        m.put(
            "goodput",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        );
        m.put(
            "slo_attainment",
            ratio(on_time as f64, events.len() as f64),
            "ratio",
        );
        m.put(
            "virt_jobs_per_s",
            ratio(events.len() as f64, busy.as_secs_f64()),
            "jobs/virt_s",
        );
        m.note("wall_p*_ms: host time of each run_event call; virt_*: the served job's virtual compute time");
    }
    Ok(out)
}

/// Re-drive the engine with the `run_event` protocol on a fresh `Sim`
/// of the histogrammer's design, timing cycle stepping apart from the
/// per-pass lane readback. Writes the spans when `write` is set.
fn per_layer(
    args: &Args,
    mut tracer: Tracer,
    bank: &PatternBank,
    events: &[Event],
    refs: &[Reference],
    write: bool,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let hw = FpgaHistogrammer::new(bank, LANES);
    let mut sim = Sim::new(hw.design());
    let passes = hw.passes();
    let patterns = TRT_PATTERNS as u32;
    let mut step = Stopwatch::new("chdl");
    let mut readback = Stopwatch::new("chdl");
    let mut cycles = 0u64;
    for ev in events {
        let start = sim.cycle();
        let mut sum = 0u64;
        for pass in 0..passes {
            step.time(|| {
                sim.set("threshold", u64::from(THRESHOLD));
                sim.set("pass", u64::from(pass));
                sim.set("clear", 1);
                sim.set("valid", 0);
                sim.step();
                sim.set("clear", 0);
                for &h in &ev.hits {
                    sim.set("hit", u64::from(h));
                    sim.set("valid", 1);
                    sim.step();
                }
                sim.set("valid", 0);
                sim.step();
            });
            readback.time(|| {
                for lane in 0..LANES.min(patterns - pass * LANES) {
                    sim.set("counter_sel", u64::from(lane));
                    sum += sim.get("counter_out");
                }
            });
        }
        std::hint::black_box(sum);
        cycles += sim.cycle() - start;
    }
    let (step, readback) = (step.finish(), readback.finish());
    let mut chdl = Stopwatch::new("chdl");
    chdl.add(step.total + readback.total, step.calls + readback.calls);
    let attribution = Attribution {
        top: "apps",
        span_total: tracer.host_total(),
        span_calls: tracer.host_calls(),
        children: vec![chdl.finish()],
    };
    m.put("apps.lane_occupancy", 1.0, "jobs/pass");
    m.put(
        "chdl.step_ns_per_cycle",
        ratio(step.total.as_secs_f64() * 1e9, cycles as f64),
        "ns",
    );
    m.put(
        "chdl.readback_us_per_event",
        ratio(readback.total.as_secs_f64() * 1e6, events.len() as f64),
        "us",
    );
    if let Some(e) = sim.engine_stats() {
        m.put("chdl.ops_final", e.ops_final as f64, "count");
        m.put(
            "chdl.netopt_nodes_after",
            e.netopt_nodes_after as f64,
            "count",
        );
        let evals = (e.evals_threaded + e.evals_match) as f64;
        m.put(
            "chdl.evals_threaded_share",
            ratio(e.evals_threaded as f64, evals),
            "ratio",
        );
    }
    m.put("host_share.apps", attribution.share("apps"), "ratio");
    m.put("host_share.chdl_eval", attribution.share("chdl"), "ratio");
    if !write {
        return Ok(m);
    }

    let mut at = atlantis_simcore::SimTime::ZERO;
    for (i, r) in refs.iter().enumerate() {
        tracer.virtual_span("execute", i as u64, 0, at, r.served.compute);
        at += r.served.compute;
    }
    let path = tracer.write_run(args, &attribution)?;
    m.note(format!(
        "spans of the first traced repetition written to {path}"
    ));
    Ok(m)
}
