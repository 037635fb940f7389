//! Serving behaviour under load: admission, class shedding, tenant
//! quotas, and quarantine-driven re-weighting — all on the
//! deterministic virtual clock.

use atlantis_cluster::{
    AdmissionConfig, Cluster, ClusterConfig, LoadGen, LoadGenConfig, RoutingPolicy, ShedReason,
};
use atlantis_runtime::{Priority, ShardConfig};

fn cluster(shards: usize, quota: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        shards,
        shard: ShardConfig {
            boards: 2,
            queue_capacity: 32,
            ..ShardConfig::default()
        },
        admission: AdmissionConfig {
            tenant_quota: quota,
        },
        ..ClusterConfig::default()
    })
    .unwrap()
}

fn loadgen(rate: f64, jobs: u64) -> LoadGen {
    LoadGen::new(LoadGenConfig {
        seed: 7,
        rate,
        jobs,
        tenants: 8,
        ..LoadGenConfig::default()
    })
}

/// Well under capacity, nothing sheds and every offered job completes.
#[test]
fn low_load_sheds_nothing() {
    let mut c = cluster(4, 0);
    let fins = c.run_open_loop(loadgen(2_000.0, 400));
    let s = c.stats();
    assert_eq!(s.shed, 0, "no sheds at low load: {:?}", s.shed_by_reason);
    assert_eq!(s.completed, 400);
    assert_eq!(fins.len(), 400);
    assert!((s.goodput() - 1.0).abs() < f64::EPSILON);
}

/// Past saturation the cluster sheds rather than queueing without
/// bound — and still completes everything it admitted. (Under a
/// shedding queue the mix fragments and reconfiguration dominates, so
/// four boards sustain a few thousand jobs/s; 15k/s is well past the
/// knee.)
#[test]
fn overload_sheds_but_keeps_goodput() {
    let mut c = cluster(2, 0);
    let fins = c.run_open_loop(loadgen(15_000.0, 1_200));
    let s = c.stats();
    assert!(s.shed > 0, "flood must shed");
    assert_eq!(s.admitted + s.shed, s.offered);
    assert_eq!(s.completed, s.admitted, "admitted work all retires");
    assert_eq!(fins.len() as u64, s.completed);
    assert!(s.goodput() > 0.1, "cluster keeps serving under overload");
    // Class watermarks: Low sheds proportionally harder than High.
    let offered_frac = [0.1, 0.7, 0.2]; // High, Normal, Low arrival mix
    let shed_frac = |p: Priority| s.shed_by_class[p.index()] as f64 / s.shed as f64;
    assert!(
        shed_frac(Priority::Low) / offered_frac[2] > shed_frac(Priority::High) / offered_frac[0],
        "Low sheds disproportionately: {:?}",
        s.shed_by_class
    );
    assert!(s.shed_by_reason[ShedReason::ClassShed.index()] > 0);
}

/// A single chatty tenant hits its quota; everyone else is unaffected.
#[test]
fn tenant_quota_contains_a_chatty_tenant() {
    use atlantis_apps::jobs::JobSpec;
    use atlantis_simcore::SimTime;
    let mut c = cluster(2, 6);
    // Tenant 0 floods at one instant; tenant 1 offers a trickle.
    let mut quota_sheds = 0;
    for i in 0..20u64 {
        if c.offer(SimTime::ZERO, 0, Priority::Normal, JobSpec::trt(i))
            .is_err()
        {
            quota_sheds += 1;
        }
    }
    assert_eq!(quota_sheds, 14, "quota of 6 admits exactly 6 of 20");
    c.offer(SimTime::ZERO, 1, Priority::Normal, JobSpec::trt(99))
        .expect("other tenants retain headroom");
    c.drain();
    assert_eq!(c.stats().completed, 7);
    assert_eq!(
        c.stats().shed_by_reason[ShedReason::TenantQuota.index()],
        14
    );
}

/// Quarantining most of a shard's boards re-weights traffic away from
/// it: the degraded shard serves a measurably smaller share than it
/// did in a healthy run of the *same* arrival sequence.
#[test]
fn quarantine_reweights_traffic_away_from_degraded_shard() {
    // ~55% of the nine boards' capacity: the healthy run has headroom,
    // so the degraded run's loss shows up as re-routing, not collapse.
    let arrivals: Vec<_> = loadgen(12_000.0, 800).collect();
    let serve = |degrade: bool| {
        let mut c = Cluster::new(ClusterConfig {
            shards: 3,
            shard: ShardConfig {
                boards: 3,
                queue_capacity: 32,
                ..ShardConfig::default()
            },
            routing: RoutingPolicy::Affinity {
                spill_threshold: 3.0,
            },
            ..ClusterConfig::default()
        })
        .unwrap();
        if degrade {
            assert!(c.quarantine_board(0, 0));
            assert!(c.quarantine_board(0, 1));
            // An unknown shard is refused, not a panic, and counts nothing.
            assert!(!c.quarantine_board(99, 0));
        }
        c.run_open_loop(arrivals.iter().copied());
        let done = c.stats().per_shard_completed.clone();
        let total: u64 = done.iter().sum();
        (done[0] as f64 / total as f64, c.stats().clone())
    };
    let (healthy_share, hs) = serve(false);
    let (degraded_share, ds) = serve(true);
    assert!(
        degraded_share < healthy_share * 0.6,
        "shard 0 at 1/3 capacity must lose well over a third of its share: \
         healthy {healthy_share:.3} vs degraded {degraded_share:.3}"
    );
    assert_eq!(ds.quarantined, 2);
    // The cluster as a whole absorbs the loss: goodput degrades far
    // less than shard 0's capacity did.
    assert!(ds.goodput() > hs.goodput() * 0.8);
}

/// The affinity router beats seeded-random routing on shard-cache hit
/// rate over the same arrival sequence — the reason it exists.
#[test]
fn affinity_routing_beats_random_on_cache_hits() {
    // Moderate load (~40% of eight boards): queues stay short, so the
    // per-shard batching pick can't manufacture affinity for the random
    // router — the comparison isolates the *routing* contribution.
    let arrivals: Vec<_> = loadgen(8_000.0, 800).collect();
    let serve = |routing| {
        let mut c = Cluster::new(ClusterConfig {
            shards: 4,
            routing,
            ..ClusterConfig::default()
        })
        .unwrap();
        c.run_open_loop(arrivals.iter().copied());
        (c.affinity_hit_rate(), c.stats().completed)
    };
    let (aff, aff_done) = serve(RoutingPolicy::Affinity {
        spill_threshold: 6.0,
    });
    let (rnd, rnd_done) = serve(RoutingPolicy::Random { seed: 11 });
    assert!(
        aff >= 1.2 * rnd,
        "affinity {aff:.3} must beat random {rnd:.3} by ≥1.2x on cache hits"
    );
    // Fewer reconfigurations means more completions per virtual second,
    // not fewer.
    assert!(aff_done >= rnd_done * 9 / 10);
}
