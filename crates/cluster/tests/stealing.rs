//! Cross-shard work stealing: determinism, breakeven discipline, the
//! byte-for-byte off-switch, and heterogeneous-fleet routing.

use atlantis_apps::jobs::JobKind;
use atlantis_cluster::{
    router::{rendezvous_weight, RoutingPolicy, ShardView},
    run_closed_loop, AdmissionConfig, ClosedLoopConfig, Cluster, ClusterConfig, LoadGen,
    LoadGenConfig, Router, StealKind, StealingPolicy,
};
use atlantis_guard::DegradationConfig;
use atlantis_runtime::{FabricKind, Priority, ShardConfig};
use atlantis_simcore::{SimDuration, SimTime};

fn fnv1a(s: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    s.bytes()
        .fold(OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// The overload campaign the determinism suite pins, verbatim.
fn campaign_config(seed: u64) -> (ClusterConfig, LoadGenConfig) {
    (
        ClusterConfig {
            shards: 4,
            shard: ShardConfig {
                boards: 2,
                queue_capacity: 32,
                ..ShardConfig::default()
            },
            routing: RoutingPolicy::Affinity {
                spill_threshold: 4.0,
            },
            admission: AdmissionConfig { tenant_quota: 24 },
            degradation: DegradationConfig {
                upset_rate: 120.0,
                quarantine_after: 3,
                seed,
            },
            ..ClusterConfig::default()
        },
        LoadGenConfig {
            seed,
            rate: 60_000.0,
            jobs: 600,
            tenants: 12,
            ..LoadGenConfig::default()
        },
    )
}

fn run_campaign(stealing: StealingPolicy) -> (String, atlantis_cluster::ClusterStats) {
    let (cc, lc) = campaign_config(1234);
    let mut cluster = Cluster::new(ClusterConfig { stealing, ..cc }).unwrap();
    cluster.run_open_loop(LoadGen::new(lc));
    (cluster.fingerprint(), cluster.stats().clone())
}

/// `StealingPolicy::Off` preserves the pre-stealing serving path
/// byte-for-byte: fingerprints pinned before the stealing code
/// existed must reproduce exactly.
#[test]
fn off_preserves_pre_stealing_fingerprints() {
    let (fp, _) = run_campaign(StealingPolicy::Off);
    assert_eq!(
        fnv1a(&fp),
        0xb2188e490ba7f71f,
        "the Off path diverged from the pre-stealing campaign fingerprint"
    );
    let mut c = Cluster::new(ClusterConfig::default()).unwrap();
    c.run_open_loop(LoadGen::new(LoadGenConfig {
        jobs: 96,
        ..LoadGenConfig::default()
    }));
    assert_eq!(
        fnv1a(&c.fingerprint()),
        0x4b235569798b4fa6,
        "the Off path diverged from the pre-stealing default-config fingerprint"
    );
}

/// Stealing-enabled campaigns replay byte-identically too — the scan
/// runs on the virtual clock, so the ledger is part of the contract.
#[test]
fn stealing_campaign_fingerprints_identically() {
    let (fa, sa) = run_campaign(StealingPolicy::Enabled);
    let (fb, sb) = run_campaign(StealingPolicy::Enabled);
    assert_eq!(fa, fb, "stealing fingerprints replay byte-identically");
    assert_eq!(sa, sb);
    assert!(
        fa.contains("|steals:"),
        "an enabled campaign's digest carries the steal ledger"
    );
    let (foff, _) = run_campaign(StealingPolicy::Off);
    assert_ne!(fa, foff, "the overload campaign actually steals");
}

/// The breakeven discipline: a backlog shallower than `MIN_BACKLOG`
/// is never stolen, and every committed plan's benefit exceeded its
/// cost — including the reconfiguration estimate on cold steals.
#[test]
fn never_steals_below_breakeven() {
    let mut c = Cluster::new(ClusterConfig {
        shards: 2,
        stealing: StealingPolicy::Enabled,
        ..ClusterConfig::default()
    })
    .unwrap();
    // Three same-kind jobs land on one home shard: depth under the
    // threshold even while the other shard idles.
    for i in 0..3u64 {
        c.offer(
            SimTime::ZERO,
            0,
            Priority::Normal,
            atlantis_apps::jobs::JobSpec::trt(i),
        )
        .unwrap();
    }
    c.drain();
    assert_eq!(
        c.steal_stats().committed(),
        0,
        "a shallow backlog drains locally"
    );

    // A real overload campaign commits steals — and every one of them
    // passed the breakeven test it logged.
    let (cc, lc) = campaign_config(1234);
    let mut c = Cluster::new(ClusterConfig {
        stealing: StealingPolicy::Enabled,
        ..cc
    })
    .unwrap();
    c.run_open_loop(LoadGen::new(lc));
    let stats = c.steal_stats();
    assert!(stats.committed() > 0, "overload must trigger steals");
    assert!(
        stats.attempts >= stats.committed() + stats.below_breakeven,
        "ledger accounting holds"
    );
    for plan in c.steal_plans() {
        assert!(
            plan.benefit > plan.cost,
            "committed steal below breakeven: {plan:?}"
        );
        assert!(plan.jobs > 0 && plan.thief != plan.donor);
        if plan.steal == StealKind::Warm {
            assert!(
                plan.cost < SimDuration::from_millis(1),
                "a warm steal pays transfer only: {plan:?}"
            );
        }
    }
    let cold_reconfig: bool = c.steal_plans().iter().any(|p| p.steal == StealKind::Cold);
    assert_eq!(
        cold_reconfig,
        stats.reconfig_paid > SimDuration::ZERO,
        "reconfig cost is paid iff a cold steal committed"
    );
}

/// Rendezvous weights scale with advertised capacity, so a
/// heterogeneous fleet's bigger shards win proportionally more
/// designs — checked against the weight function directly and through
/// the balanced home map.
#[test]
fn heterogeneous_shards_shift_rendezvous_weight() {
    // Monotonicity: more boards strictly raises every design's score.
    for &kind in &JobKind::ALL {
        for shard in 0..4 {
            let w2 = rendezvous_weight(kind, shard, 2);
            let w4 = rendezvous_weight(kind, shard, 4);
            assert!(w4 > w2, "{kind:?}/{shard}: weight not monotone");
        }
    }
    // Functional: a fleet where shard 0 advertises four boards and the
    // rest one each homes at least as many designs on shard 0 as the
    // uniform fleet does, and never fewer than any single-board shard.
    let views = |big: usize| -> Vec<ShardView> {
        (0..4)
            .map(|index| ShardView {
                index,
                active_boards: if index == 0 { big } else { 1 },
                queue_depth: 0,
                queue_capacity: 64,
                in_flight: 0,
                backplane_util: 0.0,
            })
            .collect()
    };
    let uniform = Router::home_map(&views(1));
    let skewed = Router::home_map(&views(4));
    let count = |map: &[usize], s: usize| map.iter().filter(|&&h| h == s).count();
    assert!(count(&skewed, 0) >= count(&uniform, 0));
    for s in 1..4 {
        assert!(count(&skewed, 0) >= count(&skewed, s));
    }

    // End to end: a mixed ORCA/Virtex cluster boots, serves a mixed
    // campaign, and the bigger Virtex shard retires the largest share.
    let mut c = Cluster::new(ClusterConfig {
        shards: 3,
        shard_overrides: vec![(
            0,
            ShardConfig {
                boards: 4,
                fabric: FabricKind::Virtex,
                ..ShardConfig::default()
            },
        )],
        ..ClusterConfig::default()
    })
    .unwrap();
    c.run_open_loop(LoadGen::new(LoadGenConfig {
        jobs: 256,
        ..LoadGenConfig::default()
    }));
    let per = &c.stats().per_shard_completed;
    assert_eq!(per.iter().sum::<u64>(), c.stats().completed);
    assert!(
        per[0] >= per[1] && per[0] >= per[2],
        "the 4-board Virtex shard serves the largest share: {per:?}"
    );
}

/// The tentpole's win condition in miniature. Pure affinity routing
/// (spill disabled) plus a three-tenant mix strands a shard:
/// heavyweight image traffic drowns its home while the unloaded
/// fourth home idles with the wrong bitstream resident. Stealing is
/// the only cross-shard path, so the goodput gap is its contribution
/// in isolation — the idle shard's first steal is necessarily cold,
/// paying the reconfiguration the breakeven test priced; once the
/// design is resident, warm steals carry the load.
#[test]
fn stealing_improves_overload_goodput() {
    let run = |stealing| {
        let mut c = Cluster::new(ClusterConfig {
            shards: 4,
            shard: ShardConfig {
                boards: 2,
                queue_capacity: 128,
                ..ShardConfig::default()
            },
            routing: RoutingPolicy::Affinity {
                spill_threshold: 1e18,
            },
            stealing,
            ..ClusterConfig::default()
        })
        .unwrap();
        c.run_open_loop(LoadGen::new(LoadGenConfig {
            seed: 7,
            rate: 25_000.0,
            jobs: 3_000,
            tenants: 3,
            home_bias: 1.0,
            size: 128,
            ..LoadGenConfig::default()
        }));
        (c.stats().clone(), c.steal_stats().clone())
    };
    let (soff, _) = run(StealingPolicy::Off);
    let (son, steals) = run(StealingPolicy::Enabled);
    assert!(soff.shed > 0, "the control arm must be overloaded");
    assert!(
        steals.cold_steals > 0 && steals.warm_steals > 0,
        "the campaign exercises both steal kinds: {steals:?}"
    );
    assert!(
        son.goodput() > 1.10 * soff.goodput(),
        "stealing goodput {:.3} must beat control {:.3} by >10%",
        son.goodput(),
        soff.goodput()
    );
    assert!(
        son.shed < soff.shed / 4,
        "draining stranded backlog must cut sheds: {} vs {}",
        son.shed,
        soff.shed
    );
}

/// The retry-after hint is worth obeying: closed-loop clients that
/// back off on the hint waste fewer attempts per completed job than
/// clients hammering on a short fixed interval, on the same cluster.
#[test]
fn closed_loop_hint_backoff_beats_shed_storm() {
    let cluster = || {
        Cluster::new(ClusterConfig {
            shards: 2,
            shard: ShardConfig {
                boards: 1,
                queue_capacity: 8,
                ..ShardConfig::default()
            },
            ..ClusterConfig::default()
        })
        .unwrap()
    };
    let base = ClosedLoopConfig {
        clients: 24,
        jobs_per_client: 8,
        ..ClosedLoopConfig::default()
    };
    let mut storm_cluster = cluster();
    let storm = run_closed_loop(
        &mut storm_cluster,
        ClosedLoopConfig {
            obey_retry_after: false,
            fixed_backoff: SimDuration::from_micros(5),
            ..base
        },
    );
    let mut polite_cluster = cluster();
    let polite = run_closed_loop(
        &mut polite_cluster,
        ClosedLoopConfig {
            obey_retry_after: true,
            ..base
        },
    );
    // Storm clients burn their retry budget and abandon; hint-obeying
    // clients come back exactly when a slot frees, so more of the same
    // workload actually completes.
    assert!(
        polite.completed >= storm.completed,
        "hint obedience never completes less: {} vs {}",
        polite.completed,
        storm.completed
    );
    assert!(
        storm.shed > 0,
        "the tiny cluster must shed under 24 clients"
    );
    assert!(
        polite.hinted_backoffs > 0,
        "the polite arm actually used the hint"
    );
    assert!(
        polite.attempts_per_completion() < storm.attempts_per_completion(),
        "hint obedience must cut retry traffic: {:.2} vs {:.2}",
        polite.attempts_per_completion(),
        storm.attempts_per_completion()
    );
    // Both arms replay deterministically.
    let mut replay_cluster = cluster();
    let replay = run_closed_loop(
        &mut replay_cluster,
        ClosedLoopConfig {
            obey_retry_after: true,
            ..base
        },
    );
    assert_eq!(replay, polite);
    assert_eq!(replay_cluster.fingerprint(), polite_cluster.fingerprint());
}
