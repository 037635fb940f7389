//! `runtime_mixed`: the threaded `Runtime` (`RuntimeConfig::default()`
//! on one ACB worker) driven closed loop by one client thread that keeps
//! a fixed number of jobs in flight.
//!
//! The seeded stream arrives in same-kind runs of four, like
//! `JobSpec::mixed`, and every run changes kind, so the single board is
//! reconfigured between runs unless the scheduler batches across them.
//! Latency is each job's own completion stamp (`JobResult.timings.wall`),
//! not when the client's `wait` returned: an older handle can hold that
//! `wait` up.

use crate::check::{Failures, Oracle};
use crate::measure::{self, median, percentile, ratio, sorted, HostRuns, Metrics};
use crate::replay::{self, SwitchCall};
use crate::trace::{Attribution, Tracer};
use crate::{Args, Outcome};
use atlantis_apps::jobs::{JobKind, JobSpec};
use atlantis_core::AtlantisSystem;
use atlantis_fabric::Device;
use atlantis_runtime::{
    BitstreamCache, JobHandle, JobRequest, JobResult, Runtime, RuntimeConfig, RuntimeError,
    RuntimeStats,
};
use atlantis_simcore::rng::WorkloadRng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Jobs per repetition.
const JOBS: usize = 2_000;
/// Jobs the client keeps submitted and unanswered.
const IN_FLIGHT: usize = 16;
/// Same-kind run length of the stream.
const RUN: usize = 4;

/// The seeded job stream: runs of four same-kind jobs, each run a kind
/// other than the previous one, sizes spanning `JobSpec::mixed`'s
/// ranges.
fn stream(seed: u64) -> Vec<JobSpec> {
    let mut rng = WorkloadRng::seed_from_u64(seed);
    let mut kind = rng.below(JobKind::COUNT as u64) as usize;
    (0..JOBS)
        .map(|i| {
            if i > 0 && i % RUN == 0 {
                kind = (kind + 1 + rng.below(JobKind::COUNT as u64 - 1) as usize) % JobKind::COUNT;
            }
            let s = rng.below(u64::MAX);
            match JobKind::ALL[kind] {
                JobKind::TrtEvent => JobSpec::trt(s),
                JobKind::VolumeFrame => JobSpec::volume(32 + rng.below(65) as u32, s),
                JobKind::ImageFilter => JobSpec::image(24 + rng.below(17) as u32, s),
                JobKind::NBodyStep => JobSpec::nbody(16 + rng.below(25) as u32, s),
            }
        })
        .collect()
}

/// One repetition's results.
#[derive(Debug)]
struct Rep {
    setup: Duration,
    host: Duration,
    /// Every job's answer, with the instant the client submitted it.
    answers: Vec<Answer>,
    stats: RuntimeStats,
}

type Answer = (usize, Instant, Result<JobResult, RuntimeError>);

/// Block on the oldest job in flight and record its answer.
fn wait_oldest(
    pending: &mut VecDeque<(usize, Instant, JobHandle)>,
    tracer: Option<&mut Tracer>,
    answers: &mut Vec<Answer>,
) {
    let (i, at, h) = pending.pop_front().expect("a job is in flight");
    let r = match tracer {
        Some(t) => t.host("wait", Some(i as u64), || h.wait()),
        None => h.wait(),
    };
    answers.push((i, at, r));
}

/// Serve the stream on a fresh runtime, closed loop.
fn rep(specs: &[JobSpec], mut tracer: Option<&mut Tracer>) -> Result<Rep, String> {
    let t = Instant::now();
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let rt = Runtime::serve(system, RuntimeConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let setup = t.elapsed();
    let mut pending = VecDeque::with_capacity(IN_FLIGHT);
    let mut answers = Vec::with_capacity(specs.len());
    let t0 = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        if pending.len() >= IN_FLIGHT {
            wait_oldest(&mut pending, tracer.as_deref_mut(), &mut answers);
        }
        let at = Instant::now();
        let req = JobRequest::new(0, *spec);
        let submitted = match tracer.as_deref_mut() {
            Some(t) => t.host("submit", Some(i as u64), || rt.submit(req)),
            None => rt.submit(req),
        };
        match submitted {
            Ok(h) => pending.push_back((i, at, h)),
            Err(e) => answers.push((i, at, Err(e))),
        }
    }
    while !pending.is_empty() {
        wait_oldest(&mut pending, tracer.as_deref_mut(), &mut answers);
    }
    let host = t0.elapsed();
    Ok(Rep {
        setup,
        host,
        answers,
        stats: rt.shutdown(),
    })
}

fn check(rep: &Rep, specs: &[JobSpec], oracle: &mut Oracle) -> Failures {
    let mut f = Failures::default();
    let mut seen = vec![false; specs.len()];
    for (i, _, r) in &rep.answers {
        if std::mem::replace(&mut seen[*i], true) {
            f.stray += 1;
            continue;
        }
        match r {
            Ok(r) => {
                let want = oracle.outcome(*i, &specs[*i]);
                if r.spec != specs[*i] || r.checksum != want.checksum || r.cycles != want.cycles {
                    f.wrong += 1;
                }
            }
            Err(_) => f.errored += 1,
        }
    }
    f.lost = seen.iter().filter(|&&s| !s).count() as u64;
    let ok = rep.answers.iter().filter(|a| a.2.is_ok()).count() as u64;
    let s = &rep.stats;
    f.unaccounted =
        s.completed.abs_diff(ok) + (s.submitted + s.rejected).abs_diff(specs.len() as u64);
    f
}

fn results(rep: &Rep) -> impl Iterator<Item = (usize, Instant, &JobResult)> {
    rep.answers
        .iter()
        .filter_map(|(i, at, r)| r.as_ref().ok().map(|r| (*i, *at, r)))
}

/// Run the workload (see `cluster::run` for the traced/untraced split).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let specs = stream(args.seed);
    let mut oracle = Oracle::new(specs.len());
    let mut out = Outcome::default();
    let (mut host, mut traced_rates) = (HostRuns::default(), vec![]);
    let (mut virt_p50, mut virt_p99, mut virt_samples) = (vec![], vec![], 0);
    let (mut goodput, mut slo, mut virt_rate) = (vec![], vec![], vec![]);
    let mut layers: Vec<Metrics> = Vec::new();
    measure::repeat(args.seconds, args.trace, |i| {
        let traced = args.trace && i % 2 == 1;
        let mut tracer = traced.then(Tracer::new);
        let r = rep(&specs, tracer.as_mut())?;
        let failures = check(&r, &specs, &mut oracle);
        out.attempted += specs.len() as u64;
        out.failed += failures.total();
        if failures.total() > 0 {
            out.errors.push(format!("repetition {i}: {failures:?}"));
        }
        let done = results(&r).count();
        let rate = done as f64 / r.host.as_secs_f64();
        if let Some(t) = tracer {
            traced_rates.push(rate);
            let written = layers.is_empty();
            layers.push(per_layer(args, t, &r, written)?);
            return Ok(());
        }
        if done == 0 {
            return Ok(());
        }
        let wall = results(&r).map(|(_, _, r)| r.timings.wall.as_nanos() as u64);
        host.push(rate, r.setup, wall.collect());
        let virt = sorted(results(&r).map(|(_, _, r)| r.timings.total_virtual().as_picos()));
        virt_p50.push(percentile(&virt, 0.5) as f64 / 1e6);
        virt_p99.push(percentile(&virt, 0.99) as f64 / 1e6);
        virt_samples = virt.len();
        let on_time = virt
            .iter()
            .filter(|&&v| v <= measure::SLO.as_picos())
            .count();
        goodput.push(ratio(done as f64, specs.len() as f64));
        slo.push(ratio(on_time as f64, specs.len() as f64));
        virt_rate.push(r.stats.virtual_jobs_per_sec());
        Ok(())
    })?;
    if args.trace {
        out.metrics = Metrics::median_of(&layers);
        let overhead = 1.0 - traced_rates.iter().copied().fold(0.0, f64::max) / host.best_rate();
        out.metrics.put("trace.overhead", overhead, "ratio");
    } else {
        let m = &mut out.metrics;
        if virt_p50.is_empty() {
            return Err("no job completed".into());
        }
        host.put(m, virt_samples);
        m.put("virt_p50_us", median(&virt_p50), "virt_us");
        m.put("virt_p99_us", median(&virt_p99), "virt_us");
        m.put("goodput", median(&goodput), "ratio");
        m.put("slo_attainment", median(&slo), "ratio");
        m.put("virt_jobs_per_s", median(&virt_rate), "jobs/virt_s");
        m.note(format!(
            "{} jobs per repetition, {} in flight; virt_* is the median over repetitions of exact per-repetition percentiles of each job's virtual DMA + reconfiguration + execute time",
            specs.len(),
            IN_FLIGHT
        ));
    }
    Ok(out)
}

/// Attribute a traced repetition's host time: the client's `submit` and
/// `wait` spans cover the worker's work, re-driven per layer in the
/// order the single device completed it. Writes the spans when `write`
/// is set.
fn per_layer(args: &Args, mut tracer: Tracer, r: &Rep, write: bool) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let lanes = RuntimeConfig::default().lanes.max(1);
    // The device's in-order pipeline completes jobs in admission order.
    let mut done: Vec<(usize, Instant, &JobResult)> = results(r).collect();
    done.sort_by_key(|&(_, at, res)| at + res.timings.wall);

    let mut batches: Vec<Vec<JobSpec>> = Vec::new();
    for &(_, _, res) in &done {
        match batches.last_mut() {
            Some(b) if b[0].kind == res.spec.kind && b.len() < lanes => b.push(res.spec),
            _ => batches.push(vec![res.spec]),
        }
    }
    let apps = replay::apps(&batches);
    let calls: Vec<SwitchCall> = done
        .iter()
        .map(|&(_, _, res)| SwitchCall {
            kind: res.spec.kind,
            switched: res.timings.switched,
            campaign: true,
        })
        .collect();
    let device = Device::orca_3t125();
    let cache = BitstreamCache::new(device.clone());
    cache.prefit_all().map_err(|e| format!("prefit: {e}"))?;
    let reconfig = replay::reconfig(&device, &cache, &[calls]);
    let specs: Vec<JobSpec> = done.iter().map(|&(_, _, res)| res.spec).collect();
    let (pci, pci_virt) = replay::pci(&specs);
    let dma_divergences = done
        .iter()
        .zip(&pci_virt)
        .filter(|(&(_, _, res), &v)| res.timings.dma != v)
        .count();
    m.note(format!(
        "layer replay divergences from the campaign: {} switch, {} DMA records",
        reconfig.divergences, dma_divergences
    ));

    let attribution = Attribution {
        top: "runtime",
        span_total: tracer.host_total(),
        span_calls: tracer.host_calls(),
        children: vec![apps.total, reconfig.campaign_switch, pci],
    };
    let s = &r.stats;
    apps.put(&mut m);
    m.put("apps.lane_occupancy", s.lane_occupancy(), "jobs/pass");
    reconfig.put(&mut m);
    m.put("core.full_loads", s.full_loads as f64, "count");
    m.put("core.partial_switches", s.partial_switches as f64, "count");
    m.put("core.frames_written", s.frames_written as f64, "count");
    m.put(
        "core.reconfig_virt_ms",
        s.reconfig_time.as_secs_f64() * 1e3,
        "virt_ms",
    );
    let queue_wait = sorted(
        done.iter()
            .map(|(_, _, res)| res.timings.queue_wait.as_nanos() as u64),
    );
    let service = sorted(done.iter().map(|(_, _, res)| {
        res.timings
            .wall
            .saturating_sub(res.timings.queue_wait)
            .as_nanos() as u64
    }));
    if !queue_wait.is_empty() {
        m.put_percentile("runtime.queue_wait_ms.p50", &queue_wait, 0.5, 1e-6, "ms");
        m.put_percentile("runtime.queue_wait_ms.p99", &queue_wait, 0.99, 1e-6, "ms");
        m.put_percentile("runtime.service_ms.p50", &service, 0.5, 1e-6, "ms");
    }
    m.put("runtime.switches_per_job", s.switches_per_job(), "ratio");
    m.put(
        "runtime.overlap_efficiency",
        s.overlap_efficiency(),
        "ratio",
    );
    let pool = (s.pool_hits + s.pool_misses) as f64;
    m.put(
        "runtime.bufpool.hit_rate",
        ratio(s.pool_hits as f64, pool),
        "ratio",
    );
    m.put("pci.dma_us", pci.us_per_call(), "us");
    let dma_us: f64 = done
        .iter()
        .map(|(_, _, res)| res.timings.dma.as_micros_f64())
        .sum();
    m.put(
        "pci.dma_virt_us",
        ratio(dma_us, done.len() as f64),
        "virt_us",
    );
    m.put("host_share.apps", attribution.share("apps"), "ratio");
    m.put("host_share.reconfig", attribution.share("core"), "ratio");
    m.put("host_share.pci", attribution.share("pci"), "ratio");
    m.put("host_share.runtime", attribution.share("runtime"), "ratio");
    if !write {
        return Ok(m);
    }

    for &(i, _, res) in &done {
        let t = res.timings;
        let mut at = atlantis_simcore::SimTime::ZERO;
        for (name, d) in [
            ("reconfig", t.reconfig),
            ("dma", t.dma),
            ("execute", t.execute),
        ] {
            tracer.virtual_span(name, i as u64, i as u64, at, d);
            at += d;
        }
    }
    let path = tracer.write_run(args, &attribution)?;
    m.note(format!(
        "spans of the first traced repetition written to {path}"
    ));
    Ok(m)
}
