//! `cluster_steady` and `cluster_overload`: the default sharded cluster
//! (`ClusterConfig::default()`, 4 shards × 2 ORCA boards) fed open loop
//! by `LoadGen` at a fixed offered rate.
//!
//! The rates are absolute constants, never recalibrated per run: ½× and
//! 2× of the default fleet's ~281k jobs per virtual second (the 35.1k
//! warm-board rate `table12_cluster` calibrates, × 8 boards). Every
//! repetition rebuilds the cluster and replays the same arrivals, so the
//! virtual figures and `Cluster::fingerprint` must repeat exactly.

use crate::check::{Failures, Oracle};
use crate::measure::{self, ratio, Digest, HostRuns, Metrics};
use crate::replay::{self, BoardJob, SwitchCall};
use crate::trace::{Attribution, Stopwatch, Tracer};
use crate::{Args, Outcome};
use atlantis_apps::jobs::{JobKind, JobSpec};
use atlantis_cluster::{
    AdmissionController, Arrival, Cluster, ClusterCompletion, ClusterConfig, ClusterStats, LoadGen,
    LoadGenConfig, Router, ShardView, ShedReason,
};
use atlantis_runtime::{BitstreamCache, FabricKind};
use atlantis_simcore::{SimDuration, SimTime};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One open-loop campaign shape.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Offered load, jobs per virtual second.
    pub rate: f64,
    /// Jobs offered per repetition.
    pub jobs: u64,
}

/// ½× saturation: affinity routing keeps every design resident.
pub const STEADY: Campaign = Campaign {
    rate: 140_000.0,
    jobs: 40_000,
};

/// 2× saturation: sheds and spills force design switches. The
/// campaign is long because the switching dynamics differ from seed to
/// seed: 320k offers keep the seed-to-seed spread of every virtual
/// figure near 3 %, where 80k leave it near 9 %.
pub const OVERLOAD: Campaign = Campaign {
    rate: 560_000.0,
    jobs: 320_000,
};

/// At most this many offers' routing views are recorded for the
/// routing and admission re-drive (every k-th offer), which bounds the
/// traced run's memory on long campaigns.
const VIEW_SAMPLES: usize = 40_000;

/// What the benchmark records while a traced repetition runs.
#[derive(Debug)]
struct Recording {
    tracer: Tracer,
    /// Routing views seen by every k-th offer: `(arrival, views)`.
    views: Vec<(usize, Vec<ShardView>)>,
    /// The boot home map (design → shard) the preloads followed.
    homes: [usize; JobKind::COUNT],
}

/// One repetition's results.
#[derive(Debug)]
struct Rep {
    setup: Duration,
    host: Duration,
    fins: Vec<ClusterCompletion>,
    /// Arrival index of each admitted job, by cluster id.
    admitted: HashMap<u64, usize>,
    /// Refusals, and a digest of each one's arrival, reason and shard.
    sheds: u64,
    shed_digest: Digest,
    /// Host nanoseconds from `offer` to the call that returned the job.
    wall_ns: Vec<u64>,
    fingerprint: String,
    stats: ClusterStats,
    affinity_hit_rate: f64,
    reconfig_time: SimDuration,
    full_loads: u64,
    partial_switches: u64,
}

/// The deterministic virtual-time figures of one repetition.
#[derive(Debug, Clone, PartialEq)]
struct Virtual {
    latency: Vec<u64>,
    queue_wait: Vec<u64>,
    goodput: f64,
    slo_attainment: f64,
    jobs_per_s: f64,
    dma_mean_us: f64,
    digest: u64,
}

fn arrivals(seed: u64, c: Campaign) -> Vec<Arrival> {
    LoadGen::new(LoadGenConfig {
        seed,
        rate: c.rate,
        jobs: c.jobs,
        ..LoadGenConfig::default()
    })
    .collect()
}

/// Build a default cluster and drive `arrivals` through it the way
/// `Cluster::run_open_loop` does, keeping every typed refusal.
fn rep(arrivals: &[Arrival], mut rec: Option<&mut Recording>) -> Result<Rep, String> {
    let t = Instant::now();
    let mut c = Cluster::new(ClusterConfig::default()).map_err(|e| format!("Cluster::new: {e}"))?;
    let setup = t.elapsed();
    if let Some(r) = rec.as_deref_mut() {
        r.homes = c.home_map(SimTime::ZERO);
    }
    let mut offered_at: HashMap<u64, (usize, Instant)> = HashMap::with_capacity(arrivals.len());
    // Sized for the whole campaign up front, so peak memory does not
    // depend on where the completion and shed counts cross a growth step.
    let mut fins = Vec::with_capacity(arrivals.len());
    let mut wall_ns = Vec::with_capacity(arrivals.len());
    let (mut sheds, mut shed_digest) = (0u64, Digest::default());
    let stride = arrivals.len().div_ceil(VIEW_SAMPLES);
    let mut deliver = |done: Vec<ClusterCompletion>, at: &HashMap<u64, (usize, Instant)>| {
        if done.is_empty() {
            return;
        }
        let now = Instant::now();
        for f in done {
            let ns = at
                .get(&f.inner.id)
                .map_or(0, |&(_, t)| now.duration_since(t).as_nanos() as u64);
            wall_ns.push(ns);
            fins.push(f);
        }
    };
    let t0 = Instant::now();
    for (i, a) in arrivals.iter().enumerate() {
        let done = match rec.as_deref_mut() {
            Some(r) => r.tracer.host("advance", None, || c.advance(a.at)),
            None => c.advance(a.at),
        };
        deliver(done, &offered_at);
        let now = Instant::now();
        let offered = match rec.as_deref_mut() {
            Some(r) => {
                if i % stride == 0 {
                    r.views.push((i, c.views(a.at)));
                }
                let job = Some(i as u64);
                r.tracer
                    .host("offer", job, || c.offer(a.at, a.tenant, a.priority, a.spec))
            }
            None => c.offer(a.at, a.tenant, a.priority, a.spec),
        };
        match offered {
            Ok(id) => {
                offered_at.insert(id, (i, now));
            }
            Err(o) => {
                sheds += 1;
                for v in [i as u64, o.reason.index() as u64, o.shard as u64] {
                    shed_digest.push(v);
                }
            }
        }
    }
    let done = match rec {
        Some(r) => r.tracer.host("drain", None, || c.drain()),
        None => c.drain(),
    };
    deliver(done, &offered_at);
    let host = t0.elapsed();
    let shard_stats = (0..c.shards()).map(|s| c.shard_stats(s));
    let (reconfig_time, full_loads, partial_switches) =
        shard_stats.fold((SimDuration::ZERO, 0, 0), |(t, f, p), s| {
            (
                t + s.reconfig_time,
                f + s.full_loads,
                p + s.partial_switches,
            )
        });
    Ok(Rep {
        setup,
        host,
        admitted: offered_at.into_iter().map(|(id, (i, _))| (id, i)).collect(),
        sheds,
        shed_digest,
        wall_ns,
        fingerprint: c.fingerprint(),
        stats: c.stats().clone(),
        affinity_hit_rate: c.affinity_hit_rate(),
        reconfig_time,
        full_loads,
        partial_switches,
        fins,
    })
}

/// The correctness gate: every admitted job answered exactly once with
/// the oracle's checksum and cycles, and offered = completed + shed.
fn check(rep: &Rep, arrivals: &[Arrival], oracle: &mut Oracle) -> Failures {
    let mut f = Failures::default();
    let mut seen = vec![false; arrivals.len()];
    for fin in &rep.fins {
        let Some(&i) = rep.admitted.get(&fin.inner.id) else {
            f.stray += 1;
            continue;
        };
        if std::mem::replace(&mut seen[i], true) {
            f.stray += 1;
            continue;
        }
        let want = oracle.outcome(i, &arrivals[i].spec);
        if fin.inner.spec != arrivals[i].spec
            || fin.inner.checksum != want.checksum
            || fin.inner.cycles != want.cycles
        {
            f.wrong += 1;
        }
    }
    let answered = seen.iter().filter(|&&s| s).count() as u64;
    f.lost = (rep.admitted.len() as u64).saturating_sub(answered);
    let s = &rep.stats;
    f.unaccounted = s.offered.abs_diff(arrivals.len() as u64)
        + s.completed.abs_diff(rep.fins.len() as u64)
        + s.shed.abs_diff(rep.sheds);
    f
}

fn virtual_figures(rep: &Rep, offered: usize) -> Virtual {
    let mut latency: Vec<u64> = rep
        .fins
        .iter()
        .map(|f| f.inner.latency().as_picos())
        .collect();
    let on_time = latency
        .iter()
        .filter(|&&l| l <= measure::SLO.as_picos())
        .count();
    latency.sort_unstable();
    let mut queue_wait: Vec<u64> = rep
        .fins
        .iter()
        .map(|f| f.inner.queue_wait().as_picos())
        .collect();
    queue_wait.sort_unstable();
    let mut d = rep.shed_digest;
    for f in &rep.fins {
        let c = &f.inner;
        for v in [
            c.id,
            f.shard as u64,
            c.board as u64,
            c.checksum,
            c.cycles,
            c.submitted.since(SimTime::ZERO).as_picos(),
            c.started.since(SimTime::ZERO).as_picos(),
            c.done.since(SimTime::ZERO).as_picos(),
            c.dma.as_picos(),
            c.reconfig.as_picos(),
            c.execute.as_picos(),
            u64::from(c.switched),
        ] {
            d.push(v);
        }
    }
    let makespan = rep.stats.last_done.since(SimTime::ZERO).as_secs_f64();
    let dma_us: f64 = rep.fins.iter().map(|f| f.inner.dma.as_micros_f64()).sum();
    Virtual {
        goodput: ratio(rep.fins.len() as f64, offered as f64),
        slo_attainment: ratio(on_time as f64, offered as f64),
        jobs_per_s: ratio(rep.fins.len() as f64, makespan),
        dma_mean_us: ratio(dma_us, rep.fins.len() as f64),
        digest: d.value(),
        latency,
        queue_wait,
    }
}

/// Run the workload: untraced repetitions for the end-to-end metrics;
/// with `--trace 1`, untraced and traced repetitions alternate, each
/// traced one is attributed layer by layer right after it ran (so the
/// re-driven layers are timed under the same machine conditions as its
/// spans), and the per-layer figures are medians over traced ones.
pub fn run(args: &Args, campaign: Campaign) -> Result<Outcome, String> {
    let arrivals = arrivals(args.seed, campaign);
    let mut oracle = Oracle::new(arrivals.len());
    let mut out = Outcome::default();
    let mut first: Option<(String, Virtual)> = None;
    let (mut host, mut traced_rates) = (HostRuns::default(), vec![]);
    let mut layers: Vec<Metrics> = Vec::new();
    measure::repeat(args.seconds, args.trace, |i| {
        let traced = args.trace && i % 2 == 1;
        let mut rec = traced.then(|| Recording {
            tracer: Tracer::new(),
            views: Vec::with_capacity(VIEW_SAMPLES),
            homes: [0; JobKind::COUNT],
        });
        let r = rep(&arrivals, rec.as_mut())?;
        let failures = check(&r, &arrivals, &mut oracle);
        out.attempted += arrivals.len() as u64;
        out.failed += failures.total();
        if failures.total() > 0 {
            out.errors.push(format!("repetition {i}: {failures:?}"));
        }
        let v = virtual_figures(&r, arrivals.len());
        if let Some(rec) = rec {
            let written = layers.is_empty();
            layers.push(per_layer(args, &arrivals, rec, &r, &v, written)?);
        }
        match &first {
            None => first = Some((r.fingerprint.clone(), v)),
            Some((fp, v0)) => {
                if *fp != r.fingerprint || *v0 != v {
                    out.errors.push(format!(
                        "repetition {i} did not replay repetition 0 (fingerprint or virtual figures differ)"
                    ));
                }
            }
        }
        let rate = r.fins.len() as f64 / r.host.as_secs_f64();
        if traced {
            traced_rates.push(rate);
        } else if !r.wall_ns.is_empty() {
            host.push(rate, r.setup, r.wall_ns);
        }
        Ok(())
    })?;
    let (_, v) = first.expect("at least one repetition");
    if args.trace {
        out.metrics = Metrics::median_of(&layers);
        let overhead = 1.0 - traced_rates.iter().copied().fold(0.0, f64::max) / host.best_rate();
        out.metrics.put("trace.overhead", overhead, "ratio");
    } else {
        let m = &mut out.metrics;
        if v.latency.is_empty() {
            return Err("no job completed".into());
        }
        host.put(m, v.latency.len());
        m.put_percentile("virt_p50_us", &v.latency, 0.5, 1e-6, "virt_us");
        m.put_percentile("virt_p99_us", &v.latency, 0.99, 1e-6, "virt_us");
        m.put("goodput", v.goodput, "ratio");
        m.put("slo_attainment", v.slo_attainment, "ratio");
        m.put("virt_jobs_per_s", v.jobs_per_s, "jobs/virt_s");
        m.note(format!(
            "{} offers per repetition at {} jobs/virtual s; wall_p*_ms: host time from the offer to the call that returned the job",
            arrivals.len(),
            campaign.rate
        ));
    }
    Ok(out)
}

/// Attribute a traced repetition's host time to the layers under the
/// cluster by re-driving each one with the recorded inputs; write its
/// spans when `write` is set.
fn per_layer(
    args: &Args,
    arrivals: &[Arrival],
    rec: Recording,
    r: &Rep,
    v: &Virtual,
    write: bool,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let cfg = ClusterConfig::default();
    let boards = cfg.shard.boards;
    let mut by_start: Vec<&ClusterCompletion> = r.fins.iter().collect();
    by_start.sort_by_key(|f| (f.shard, f.inner.started, f.inner.board));

    // apps: one `execute` per served job.
    let batches: Vec<Vec<JobSpec>> = by_start.iter().map(|f| vec![f.inner.spec]).collect();
    let apps = replay::apps(&batches);

    // core + fabric + chdl build: each board's design sequence, boot
    // preloads first (as `Cluster::new` assigns them).
    let mut seqs: Vec<Vec<SwitchCall>> = vec![Vec::new(); cfg.shards * boards];
    for (si, chunk) in seqs.chunks_mut(boards).enumerate() {
        let homes: Vec<JobKind> = JobKind::ALL
            .iter()
            .zip(rec.homes.iter())
            .filter(|&(_, &h)| h == si)
            .map(|(&k, _)| k)
            .collect();
        for (b, seq) in chunk.iter_mut().enumerate() {
            if !homes.is_empty() {
                seq.push(SwitchCall {
                    kind: homes[b % homes.len()],
                    switched: true,
                    campaign: false,
                });
            }
        }
    }
    for f in &by_start {
        seqs[f.shard * boards + f.inner.board].push(SwitchCall {
            kind: f.inner.spec.kind,
            switched: f.inner.switched,
            campaign: true,
        });
    }
    let device = FabricKind::Orca.device();
    let cache = BitstreamCache::new(device.clone());
    cache.prefit_all().map_err(|e| format!("prefit: {e}"))?;
    let reconfig = replay::reconfig(&device, &cache, &seqs);

    // backplane: each shard's board transfers in start order.
    let mut bp_sw = Stopwatch::new("backplane");
    let mut landed: HashMap<u64, SimTime> = HashMap::with_capacity(r.fins.len());
    let mut bp_divergences = 0;
    for s in 0..cfg.shards {
        let jobs: Vec<&ClusterCompletion> =
            by_start.iter().copied().filter(|f| f.shard == s).collect();
        let board_jobs: Vec<BoardJob> = jobs
            .iter()
            .map(|f| BoardJob {
                board: f.inner.board,
                started: f.inner.started,
                payload: f.inner.spec.payload_bytes(),
                result: f.inner.spec.result_bytes(),
                busy: f.inner.reconfig + f.inner.execute,
                done: f.inner.done,
            })
            .collect();
        let (t, at, div) = replay::backplane(boards, &board_jobs);
        bp_sw.add(t.total, t.calls);
        bp_divergences += div;
        for (f, t) in jobs.iter().zip(at) {
            landed.insert(f.inner.id, t);
        }
    }

    // cluster: routing and admission over the sampled views, scaled
    // from the sample to every offer.
    let mut router = Router::new(cfg.routing);
    let admission = AdmissionController::new(cfg.admission);
    let t = Instant::now();
    let routed: Vec<usize> = rec
        .views
        .iter()
        .map(|(i, views)| router.route(arrivals[*i].spec.kind, views).0)
        .collect();
    let route_time = t.elapsed();
    let t = Instant::now();
    let verdicts: Vec<bool> = rec
        .views
        .iter()
        .zip(&routed)
        .map(|((i, views), &s)| {
            let (a, view) = (&arrivals[*i], &views[s]);
            admission
                .check(a.tenant, a.priority, view.queue_depth, view.queue_capacity)
                .is_ok()
        })
        .collect();
    let check_time = t.elapsed();
    let was_admitted: std::collections::HashSet<usize> = r.admitted.values().copied().collect();
    let admission_divergences = rec
        .views
        .iter()
        .zip(&verdicts)
        .filter(|((i, _), &ok)| ok != was_admitted.contains(i))
        .count();
    let per_offer = |t: Duration| ratio(t.as_secs_f64() * 1e6, routed.len() as f64);
    let mut cluster_layer = Stopwatch::new("cluster");
    let offers = arrivals.len() as f64;
    cluster_layer.add(
        Duration::from_secs_f64((per_offer(route_time) + per_offer(check_time)) * offers / 1e6),
        2 * arrivals.len() as u64,
    );
    let bp = bp_sw.finish();

    m.note(format!(
        "layer replay divergences from the campaign: {} switch, {} backplane, {} of {} sampled admission records",
        reconfig.divergences,
        bp_divergences,
        admission_divergences,
        verdicts.len()
    ));

    let attribution = Attribution {
        top: "runtime.shard",
        span_total: rec.tracer.host_total(),
        span_calls: rec.tracer.host_calls(),
        children: vec![
            apps.total,
            reconfig.campaign_switch,
            bp,
            cluster_layer.finish(),
        ],
    };

    apps.put(&mut m);
    m.put("apps.lane_occupancy", 1.0, "jobs/pass");
    reconfig.put(&mut m);
    m.put("core.full_loads", r.full_loads as f64, "count");
    m.put("core.partial_switches", r.partial_switches as f64, "count");
    m.put(
        "core.frames_written",
        reconfig.stats.frames_written as f64,
        "count",
    );
    m.put(
        "core.reconfig_virt_ms",
        r.reconfig_time.as_secs_f64() * 1e3,
        "virt_ms",
    );
    m.put("cluster.admission.check_us", per_offer(check_time), "us");
    m.put("cluster.router.route_us", per_offer(route_time), "us");
    let shed = r.stats.shed_by_reason;
    m.put(
        "cluster.shed.queue_full",
        shed[ShedReason::QueueFull.index()] as f64,
        "count",
    );
    m.put(
        "cluster.shed.tenant_quota",
        shed[ShedReason::TenantQuota.index()] as f64,
        "count",
    );
    m.put(
        "cluster.shed.class_shed",
        shed[ShedReason::ClassShed.index()] as f64,
        "count",
    );
    let routed_total = (r.stats.routed_affinity + r.stats.routed_spill) as f64;
    m.put(
        "cluster.router.spill_share",
        ratio(r.stats.routed_spill as f64, routed_total),
        "ratio",
    );
    let self_us = attribution.self_time().as_secs_f64() * 1e6;
    m.put(
        "runtime.shard.self_us",
        ratio(self_us, attribution.span_calls as f64),
        "us",
    );
    if !v.queue_wait.is_empty() {
        m.put_percentile(
            "runtime.shard.queue_wait_virt_us.p50",
            &v.queue_wait,
            0.5,
            1e-6,
            "virt_us",
        );
        m.put_percentile(
            "runtime.shard.queue_wait_virt_us.p99",
            &v.queue_wait,
            0.99,
            1e-6,
            "virt_us",
        );
    }
    m.put(
        "runtime.shard.affinity_hit_rate",
        r.affinity_hit_rate,
        "ratio",
    );
    m.put("backplane.transfer_us", bp.us_per_call(), "us");
    m.put("backplane.dma_virt_us", v.dma_mean_us, "virt_us");
    m.put("host_share.apps", attribution.share("apps"), "ratio");
    m.put("host_share.reconfig", attribution.share("core"), "ratio");
    m.put("host_share.cluster", attribution.share("cluster"), "ratio");
    m.put(
        "host_share.runtime_shard",
        attribution.share("runtime.shard"),
        "ratio",
    );
    m.put(
        "host_share.backplane",
        attribution.share("backplane"),
        "ratio",
    );
    if !write {
        return Ok(m);
    }

    let mut tracer = rec.tracer;
    let id_of: HashMap<u64, usize> = r.admitted.clone();
    for f in &r.fins {
        let c = &f.inner;
        let job = id_of.get(&c.id).copied().unwrap_or(usize::MAX) as u64;
        let track = (f.shard * boards + c.board) as u64;
        let landed = landed.get(&c.id).copied().unwrap_or(c.started);
        let exec_end = landed + c.reconfig + c.execute;
        tracer.virtual_span("queue_wait", job, track, c.submitted, c.queue_wait());
        tracer.virtual_span("dma_in", job, track, c.started, landed.since(c.started));
        tracer.virtual_span("reconfig", job, track, landed, c.reconfig);
        tracer.virtual_span("execute", job, track, landed + c.reconfig, c.execute);
        tracer.virtual_span("dma_out", job, track, exec_end, c.done.since(exec_end));
    }
    let path = tracer.write_run(args, &attribution)?;
    m.note(format!(
        "spans of the first traced repetition written to {path}"
    ));
    Ok(m)
}
