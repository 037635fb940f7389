//! **Table 12c (new)** — sharded cluster serving: the open-loop
//! overload sweep.
//!
//! The paper's machine was built to be *shared* — §2's backplane of
//! ACB+AIB pairs exists so many applications can time-share
//! reconfigurable hardware. This bench takes that design to its
//! logical end: several simulated hosts (shards), each a backplane of
//! board pairs under the deterministic shard scheduler, fronted by
//! admission control and design-affinity routing. An open-loop Poisson
//! load generator sweeps offered load from an eighth of calibrated
//! capacity to twice it and records, per point: goodput, shed rate,
//! p50/p95/p99 virtual latency, and the cluster cache-affinity hit
//! rate. The latency knee past saturation, the zero-shed region below
//! half load, the affinity-vs-random routing margin and the
//! quarantine re-weighting effect are all asserted, on a fixed seed,
//! so CI replays this entire overload campaign bit-for-bit.

use atlantis_bench::{f, Checker, Table};
use atlantis_cluster::{
    run_closed_loop, AdmissionConfig, ClosedLoopConfig, Cluster, ClusterConfig, LoadGen,
    LoadGenConfig, RoutingPolicy, StealingPolicy,
};
use atlantis_runtime::{BitstreamCache, FabricKind, ShardConfig, ShardJob, ShardScheduler};
use atlantis_simcore::{SimDuration, SimTime};
use std::sync::Arc;

const SEED: u64 = 0xA71A_0007;
const SHARDS: usize = 4;
const BOARDS: usize = 2;
const JOBS_PER_POINT: u64 = 1_000;
const FRACTIONS: &[f64] = &[0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0];

/// Calibrate each design family's pure service rate (jobs per virtual
/// second on one preloaded board, no task switches) by draining the
/// generator's jobs of that kind through a single warm board.
///
/// The affinity cluster's saturation point is set by its *slowest*
/// family: the balanced home map gives every kind `BOARDS` boards and a
/// quarter of the offered stream, so offered load saturates the
/// slowest home at `kinds x BOARDS x min_k(rate_k)` — the faster homes
/// still have headroom there (section (f) shows cross-shard work
/// stealing reclaiming it). That is the 1.0x of the sweep.
fn calibrate_per_kind(fabric: FabricKind, size: u32) -> Vec<(atlantis_apps::jobs::JobKind, f64)> {
    let mix: Vec<_> = LoadGen::new(LoadGenConfig {
        seed: SEED,
        rate: 1e9, // timestamps irrelevant: jobs are submitted at t=0
        jobs: 400,
        size,
        ..LoadGenConfig::default()
    })
    .collect();
    atlantis_apps::jobs::JobKind::ALL
        .iter()
        .map(|&kind| {
            let mut shard = ShardScheduler::new(
                ShardConfig {
                    boards: 1,
                    queue_capacity: 4_096,
                    fabric,
                    ..ShardConfig::default()
                },
                Arc::new({
                    let c = BitstreamCache::new(fabric.device());
                    c.prefit_all().expect("designs fit");
                    c
                }),
            )
            .expect("one board");
            assert!(shard.preload(0, kind), "warm board");
            let jobs = mix.iter().filter(|a| a.spec.kind == kind).take(100);
            let mut n = 0u64;
            for (i, a) in jobs.enumerate() {
                shard
                    .submit(
                        SimTime::ZERO,
                        ShardJob {
                            id: i as u64,
                            tenant: a.tenant,
                            priority: a.priority,
                            spec: a.spec,
                        },
                    )
                    .expect("deep queue");
                n += 1;
            }
            let fins = shard.drain();
            assert_eq!(fins.len() as u64, n);
            (
                kind,
                n as f64 / shard.stats().last_done.since(SimTime::ZERO).as_secs_f64(),
            )
        })
        .collect()
}

fn sweep_config(routing: RoutingPolicy) -> ClusterConfig {
    ClusterConfig {
        shards: SHARDS,
        shard: ShardConfig {
            boards: BOARDS,
            queue_capacity: 32,
            ..ShardConfig::default()
        },
        routing,
        admission: AdmissionConfig::default(),
        ..ClusterConfig::default()
    }
}

struct Point {
    fraction: f64,
    rate: f64,
    goodput: f64,
    shed_rate: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    hit_rate: f64,
    fingerprint: String,
}

fn run_point(fraction: f64, capacity: f64, routing: RoutingPolicy) -> Point {
    let rate = fraction * capacity;
    let mut cluster = Cluster::new(sweep_config(routing)).expect("cluster");
    cluster.run_open_loop(LoadGen::new(LoadGenConfig {
        seed: SEED,
        rate,
        jobs: JOBS_PER_POINT,
        ..LoadGenConfig::default()
    }));
    let s = cluster.stats();
    Point {
        fraction,
        rate,
        goodput: s.goodput(),
        shed_rate: s.shed_rate(),
        p50_us: cluster.latency_percentile_secs(0.50) * 1e6,
        p95_us: cluster.latency_percentile_secs(0.95) * 1e6,
        p99_us: cluster.latency_percentile_secs(0.99) * 1e6,
        hit_rate: cluster.affinity_hit_rate(),
        fingerprint: cluster.fingerprint(),
    }
}

/// The quarantine experiment: the same arrival trace against a healthy
/// cluster and one whose shard 0 lost two of three boards at t=0.
/// Returns (healthy share, degraded share, goodput ratio) for shard 0.
fn quarantine_experiment(capacity_per_board: f64) -> (f64, f64, f64) {
    let boards = 3usize;
    let rate = 0.5 * capacity_per_board * (3 * boards) as f64;
    let arrivals: Vec<_> = LoadGen::new(LoadGenConfig {
        seed: SEED,
        rate,
        jobs: 900,
        ..LoadGenConfig::default()
    })
    .collect();
    let serve = |degrade: bool| {
        let mut c = Cluster::new(ClusterConfig {
            shards: 3,
            shard: ShardConfig {
                boards,
                queue_capacity: 32,
                ..ShardConfig::default()
            },
            routing: RoutingPolicy::Affinity {
                spill_threshold: 3.0,
            },
            ..ClusterConfig::default()
        })
        .expect("cluster");
        if degrade {
            assert!(c.quarantine_board(0, 0));
            assert!(c.quarantine_board(0, 1));
        }
        c.run_open_loop(arrivals.iter().copied());
        let done = c.stats().per_shard_completed.clone();
        let total: u64 = done.iter().sum();
        (done[0] as f64 / total as f64, c.stats().goodput())
    };
    let (healthy_share, healthy_goodput) = serve(false);
    let (degraded_share, degraded_goodput) = serve(true);
    (
        healthy_share,
        degraded_share,
        degraded_goodput / healthy_goodput,
    )
}

struct StealArm {
    goodput: f64,
    shed_rate: f64,
    sheds: u64,
    warm: u64,
    cold: u64,
    fingerprint: String,
}

/// One arm of the stealing experiment: a three-tenant heavyweight mix
/// under *pure* affinity routing (spill disabled), so the fourth home
/// shard idles with the wrong bitstream while the image home drowns —
/// the capacity trap stealing exists to spring. 12k jobs keep the
/// campaign in steady-state overload rather than queue absorption.
fn steal_point(rate: f64, stealing: StealingPolicy) -> StealArm {
    let mut c = Cluster::new(ClusterConfig {
        shards: SHARDS,
        shard: ShardConfig {
            boards: BOARDS,
            queue_capacity: 128,
            ..ShardConfig::default()
        },
        routing: RoutingPolicy::Affinity {
            spill_threshold: 1e18,
        },
        stealing,
        ..ClusterConfig::default()
    })
    .expect("cluster");
    c.run_open_loop(LoadGen::new(LoadGenConfig {
        seed: SEED,
        rate,
        jobs: 12_000,
        tenants: 3,
        home_bias: 1.0,
        size: 128,
        ..LoadGenConfig::default()
    }));
    let s = c.stats();
    let st = c.steal_stats();
    StealArm {
        goodput: s.goodput(),
        shed_rate: s.shed_rate(),
        sheds: s.shed,
        warm: st.warm_steals,
        cold: st.cold_steals,
        fingerprint: c.fingerprint(),
    }
}

/// The heterogeneous-fleet experiment: one 4-board Virtex AIB-pair
/// shard beside two 2-board ORCA shards, serving the default mixed
/// campaign. Returns (per-shard completions, goodput, fingerprint).
fn heterogeneous_campaign(rate: f64) -> (Vec<u64>, f64, String) {
    let mut c = Cluster::new(ClusterConfig {
        shards: 3,
        shard: ShardConfig {
            boards: BOARDS,
            queue_capacity: 32,
            ..ShardConfig::default()
        },
        shard_overrides: vec![(
            0,
            ShardConfig {
                boards: 4,
                queue_capacity: 32,
                fabric: FabricKind::Virtex,
                ..ShardConfig::default()
            },
        )],
        routing: RoutingPolicy::Affinity {
            spill_threshold: 6.0,
        },
        ..ClusterConfig::default()
    })
    .expect("cluster");
    c.run_open_loop(LoadGen::new(LoadGenConfig {
        seed: SEED,
        rate,
        jobs: 2_000,
        ..LoadGenConfig::default()
    }));
    (
        c.stats().per_shard_completed.clone(),
        c.stats().goodput(),
        c.fingerprint(),
    )
}

/// One arm of the closed-loop experiment: a fixed client population on
/// a deliberately tiny cluster, retrying shed jobs on either the
/// exported retry-after hint or a blind fixed interval.
fn closed_loop_arm(obey: bool) -> (atlantis_cluster::ClosedLoopReport, String) {
    let mut c = Cluster::new(ClusterConfig {
        shards: 2,
        shard: ShardConfig {
            boards: 1,
            queue_capacity: 8,
            ..ShardConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("cluster");
    let report = run_closed_loop(
        &mut c,
        ClosedLoopConfig {
            seed: SEED,
            clients: 32,
            jobs_per_client: 16,
            obey_retry_after: obey,
            fixed_backoff: SimDuration::from_micros(5),
            ..ClosedLoopConfig::default()
        },
    );
    (report, c.fingerprint())
}

fn main() -> std::process::ExitCode {
    let mut c = Checker::new();

    let rates = calibrate_per_kind(FabricKind::Orca, 32);
    let per_board = rates.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
    let capacity = per_board * (rates.len() * BOARDS) as f64;
    for (kind, rate) in &rates {
        println!("calibration: {kind:?} serves {rate:.0} jobs/s on one warm board");
    }
    println!(
        "nominal capacity {capacity:.0} jobs/s: the slowest family's {per_board:.0} jobs/s x {BOARDS} home boards x {} families\n",
        rates.len()
    );
    c.check_band(
        "calibrated slowest-family warm-board rate (jobs/s)",
        per_board,
        100.0,
        1e9,
    );

    let affinity = RoutingPolicy::Affinity {
        spill_threshold: 6.0,
    };
    let points: Vec<Point> = FRACTIONS
        .iter()
        .map(|&frac| run_point(frac, capacity, affinity))
        .collect();

    let mut table = Table::new(
        "Table 12c: open-loop offered-load sweep (affinity routing)",
        &[
            "load", "jobs/s", "goodput", "shed", "p50 us", "p95 us", "p99 us", "hit rate",
        ],
    );
    for p in &points {
        table.row(&[
            format!("{:.3}x", p.fraction),
            f(p.rate, 0),
            f(p.goodput, 3),
            f(p.shed_rate, 3),
            f(p.p50_us, 0),
            f(p.p95_us, 0),
            f(p.p99_us, 0),
            f(p.hit_rate, 3),
        ]);
    }
    table.print();

    // (a) The zero-shed region: at or below half the calibrated
    // capacity the cluster must not refuse a single job.
    for p in points.iter().filter(|p| p.fraction <= 0.5) {
        c.check(
            format!("zero shed at {:.3}x offered load", p.fraction),
            p.shed_rate == 0.0 && (p.goodput - 1.0).abs() < f64::EPSILON,
        );
    }

    // (b) The latency knee: past saturation the p99 must sit far above
    // the low-load p99, and shedding must have engaged.
    let low = points
        .iter()
        .find(|p| p.fraction == 0.25)
        .expect("sweep point");
    let sat = points
        .iter()
        .find(|p| p.fraction == 2.0)
        .expect("sweep point");
    c.check_band(
        "p99 knee: overload p99 / low-load p99",
        sat.p99_us / low.p99_us,
        4.0,
        1e6,
    );
    c.check(
        "overload sheds (2.0x point)",
        sat.shed_rate > 0.0 && sat.goodput < 1.0,
    );
    c.check(
        "p99 grows monotonically across the knee",
        low.p99_us <= points.iter().find(|p| p.fraction == 1.0).unwrap().p99_us
            && points.iter().find(|p| p.fraction == 1.0).unwrap().p99_us <= sat.p99_us,
    );
    c.check_band("overload goodput (2.0x point)", sat.goodput, 0.05, 0.95);
    // Record the headline latencies (wide bands — the value is the point).
    c.check_band("p50 at 0.25x (us)", low.p50_us, 1.0, 1e6);
    c.check_band("p99 at 0.25x (us)", low.p99_us, 1.0, 1e6);
    c.check_band("p99 at 2.0x (us)", sat.p99_us, 1.0, 1e9);

    // (c) Affinity routing must beat seeded-random routing on the
    // cluster cache hit rate at moderate load, by the contracted 1.2x.
    let mid = points
        .iter()
        .find(|p| p.fraction == 0.5)
        .expect("sweep point");
    let random = run_point(0.5, capacity, RoutingPolicy::Random { seed: 11 });
    println!(
        "routing at 0.5x load: affinity hit rate {:.3} vs random {:.3}\n",
        mid.hit_rate, random.hit_rate
    );
    c.check_band(
        "affinity / random cache hit-rate ratio at 0.5x",
        mid.hit_rate / random.hit_rate,
        1.2,
        1e3,
    );

    // (d) Determinism: re-running the 1.0x point reproduces the full
    // stats fingerprint byte-for-byte.
    let one = points
        .iter()
        .find(|p| p.fraction == 1.0)
        .expect("sweep point");
    let replay = run_point(1.0, capacity, affinity);
    c.check(
        "1.0x point fingerprints byte-identically on replay",
        one.fingerprint == replay.fingerprint,
    );

    // (e) Elastic capacity: quarantining 2/3 of a shard's boards must
    // re-weight traffic away from it without collapsing goodput.
    let (healthy_share, degraded_share, goodput_ratio) = quarantine_experiment(per_board);
    println!(
        "quarantine: shard 0 serves {healthy_share:.3} of traffic healthy, {degraded_share:.3} degraded (goodput ratio {goodput_ratio:.3})\n"
    );
    c.check_band(
        "degraded shard traffic share / healthy share",
        degraded_share / healthy_share,
        0.0,
        0.6,
    );
    c.check_band(
        "goodput retained with shard 0 degraded",
        goodput_ratio,
        0.7,
        1.1,
    );

    // (f) Cross-shard work stealing: a heavyweight three-tenant mix
    // under pure affinity strands the idle fourth home; stealing must
    // push the saturation knee past the slowest-family bound. Capacity
    // here is the slowest *loaded* family (image at size 128) times its
    // home boards times the loaded families.
    let heavy = calibrate_per_kind(FabricKind::Orca, 128);
    let loaded = &heavy[..3]; // tenants=3 homes ALL[0..3]: trt, volume, image
    let slow128 = loaded.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
    let steal_capacity = slow128 * (loaded.len() * BOARDS) as f64;
    println!(
        "stealing experiment capacity {steal_capacity:.0} jobs/s: slowest loaded family {slow128:.0} jobs/s x {BOARDS} home boards x {} loaded families",
        loaded.len()
    );
    let mut steal_table = Table::new(
        "Table 12c-steal: stealing vs no-stealing under pure affinity (size-128 jobs)",
        &["load", "arm", "goodput", "shed", "sheds", "warm", "cold"],
    );
    let mut arms = Vec::new();
    for &frac in &[1.0, 1.5, 2.0] {
        let rate = frac * steal_capacity;
        let off = steal_point(rate, StealingPolicy::Off);
        let on = steal_point(rate, StealingPolicy::Enabled);
        for (name, arm) in [("off", &off), ("on", &on)] {
            steal_table.row(&[
                format!("{frac:.1}x"),
                name.to_string(),
                f(arm.goodput, 3),
                f(arm.shed_rate, 3),
                format!("{}", arm.sheds),
                format!("{}", arm.warm),
                format!("{}", arm.cold),
            ]);
        }
        arms.push((frac, off, on));
    }
    steal_table.print();
    let (_, off15, on15) = &arms[1];
    let (_, off20, on20) = &arms[2];
    c.check(
        "stealing-off control sheds at 1.5x offered load",
        off15.shed_rate > 0.0,
    );
    c.check(
        "zero shed at 1.5x with stealing",
        on15.sheds == 0 && (on15.goodput - 1.0).abs() < f64::EPSILON,
    );
    c.check_band(
        "stealing / no-stealing goodput ratio at 2.0x",
        on20.goodput / off20.goodput,
        1.15,
        10.0,
    );
    c.check_band("stealing shed rate at 2.0x", on20.shed_rate, 0.0, 0.01);
    c.check(
        "warm and cold steals both committed at 2.0x",
        on20.warm > 0 && on20.cold > 0,
    );
    let replay = steal_point(2.0 * steal_capacity, StealingPolicy::Enabled);
    c.check(
        "stealing campaign fingerprints byte-identically on replay",
        replay.fingerprint == on20.fingerprint,
    );

    // (g) Heterogeneous fleet: the calibration pass learns each
    // fabric's service rates, and a mixed ORCA/Virtex cluster routes
    // proportionally more work onto the bigger, faster shard.
    let virtex = calibrate_per_kind(FabricKind::Virtex, 32);
    let mut fabric_table = Table::new(
        "Table 12c-fabrics: calibrated warm-board service rates (jobs/s)",
        &["family", "ORCA-3T125", "Virtex AIB pair", "ratio"],
    );
    for (&(kind, orca_rate), &(_, virtex_rate)) in rates.iter().zip(&virtex) {
        fabric_table.row(&[
            format!("{kind:?}"),
            f(orca_rate, 0),
            f(virtex_rate, 0),
            f(virtex_rate / orca_rate, 3),
        ]);
    }
    fabric_table.print();
    let orca_slow = per_board;
    let virtex_slow = virtex.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
    c.check_band(
        "virtex / orca calibrated slowest-family rate",
        virtex_slow / orca_slow,
        1.1,
        1.4,
    );
    let (per_shard, het_goodput, het_fp) = heterogeneous_campaign(0.5 * capacity);
    println!(
        "heterogeneous fleet at {:.0} jobs/s: per-shard completions {per_shard:?} (goodput {het_goodput:.3})\n",
        0.5 * capacity
    );
    c.check(
        "virtex shard serves the largest completion share",
        per_shard[0] >= per_shard[1] && per_shard[0] >= per_shard[2],
    );
    c.check(
        "heterogeneous campaign fingerprints byte-identically on replay",
        heterogeneous_campaign(0.5 * capacity).2 == het_fp,
    );

    // (h) Closed-loop clients: obeying the exported retry-after hint
    // must cut retry traffic relative to hammering on a fixed backoff,
    // on the same overloaded cluster.
    let (storm, _) = closed_loop_arm(false);
    let (polite, polite_fp) = closed_loop_arm(true);
    let mut loop_table = Table::new(
        "Table 12c-closed-loop: shed-storm vs hint-obeying backoff",
        &[
            "arm",
            "attempts",
            "completed",
            "shed",
            "abandoned",
            "att/job",
        ],
    );
    for (name, r) in [("storm", &storm), ("polite", &polite)] {
        loop_table.row(&[
            name.to_string(),
            format!("{}", r.attempts),
            format!("{}", r.completed),
            format!("{}", r.shed),
            format!("{}", r.abandoned),
            f(r.attempts_per_completion(), 2),
        ]);
    }
    loop_table.print();
    c.check(
        "closed-loop storm actually sheds",
        storm.shed > 0 && polite.shed > 0,
    );
    c.check(
        "polite clients used the retry-after hint",
        polite.hinted_backoffs > 0,
    );
    c.check(
        "hint obedience completes no fewer jobs than the storm",
        polite.completed >= storm.completed,
    );
    c.check_band(
        "closed-loop retry-traffic ratio: storm / polite attempts per completion",
        storm.attempts_per_completion() / polite.attempts_per_completion(),
        1.2,
        1e3,
    );
    let (polite2, polite2_fp) = closed_loop_arm(true);
    c.check(
        "closed-loop campaign replays identically",
        polite2 == polite && polite2_fp == polite_fp,
    );

    atlantis_bench::conclude("cluster", c)
}
