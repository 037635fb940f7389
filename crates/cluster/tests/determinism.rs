//! Determinism: a fixed-seed multi-shard campaign must replay
//! byte-identically, and the router must agree with a brute-force
//! oracle on every affinity/spill decision.

use atlantis_apps::jobs::JobKind;
use atlantis_cluster::{
    router::{rendezvous_weight, RouteKind, Router, RoutingPolicy, ShardView},
    AdmissionConfig, Cluster, ClusterConfig, LoadGen, LoadGenConfig,
};
use atlantis_guard::DegradationConfig;
use atlantis_runtime::ShardConfig;
use atlantis_simcore::rng::WorkloadRng;

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
            // Active degradation, hot enough that boards quarantine
            // inside the campaign's few tens of virtual milliseconds —
            // quarantines must interleave with serving.
            degradation: DegradationConfig {
                upset_rate: 120.0,
                quarantine_after: 3,
                seed,
            },
            ..ClusterConfig::default()
        },
        LoadGenConfig {
            seed,
            // ~3x the eight boards' batched capacity: the queues fill
            // and the admission layer must shed.
            rate: 60_000.0,
            jobs: 600,
            tenants: 12,
            ..LoadGenConfig::default()
        },
    )
}

/// The tentpole determinism claim: same seed → byte-identical stats
/// fingerprint, across a campaign that exercises routing, spilling,
/// class shedding, tenant quotas and mid-run quarantines.
#[test]
fn fixed_seed_campaign_fingerprints_identically() {
    let run = |seed| {
        let (cc, lc) = campaign_config(seed);
        let mut cluster = Cluster::new(cc).unwrap();
        let fins = cluster.run_open_loop(LoadGen::new(lc));
        // Completion *order* is part of the determinism contract too.
        let trace: Vec<(u64, usize, u64)> = fins
            .iter()
            .map(|f| (f.inner.id, f.shard, f.inner.checksum))
            .collect();
        (cluster.fingerprint(), trace, cluster.stats().clone())
    };
    let (fa, ta, sa) = run(1234);
    let (fb, tb, sb) = run(1234);
    assert_eq!(fa, fb, "fingerprints replay byte-identically");
    assert_eq!(ta, tb, "completion traces replay identically");
    assert_eq!(sa, sb);
    // The campaign actually exercised the machinery it claims to.
    assert!(sa.completed > 0 && sa.shed > 0, "overload campaign sheds");
    assert!(sa.quarantined > 0, "degradation model quarantined boards");
    // A different seed is a different campaign.
    let (fc, _, _) = run(99);
    assert_ne!(fa, fc, "seeds select distinct campaigns");
}

fn synthetic_views(rng: &mut WorkloadRng, shards: usize) -> Vec<ShardView> {
    (0..shards)
        .map(|index| ShardView {
            index,
            active_boards: 1 + rng.below(4) as usize,
            queue_depth: rng.below(24) as usize,
            queue_capacity: 32,
            in_flight: rng.below(4) as usize,
            backplane_util: rng.unit() * 0.5,
        })
        .collect()
}

/// Brute-force oracle for one routing decision: recompute every
/// rendezvous weight, apply the documented spill rule longhand, and
/// demand the router agree — shard choice *and* decision kind.
#[test]
fn router_matches_brute_force_oracle() {
    let spill_threshold = 3.0;
    let mut router = Router::new(RoutingPolicy::Affinity { spill_threshold });
    let mut rng = WorkloadRng::seed_from_u64(0xFACADE);
    let mut spills = 0u32;
    let mut affinities = 0u32;
    for trial in 0..500 {
        let views = synthetic_views(&mut rng, 2 + (trial % 5));
        let kind = JobKind::ALL[trial % JobKind::ALL.len()];

        // Oracle, from first principles:
        // 1. the balanced greedy assignment longhand — kinds in ALL
        //    order, each to its heaviest live shard still under the
        //    cap of ceil(kinds / live shards) designs;
        let live = views.iter().filter(|v| v.active_boards > 0).count().max(1);
        let cap = JobKind::ALL.len().div_ceil(live);
        let mut assigned = vec![0usize; views.len()];
        let mut preferred = 0usize;
        for &k in &JobKind::ALL {
            let mut best: Option<usize> = None;
            let mut best_w = 0.0f64;
            for (i, v) in views.iter().enumerate() {
                if assigned[i] >= cap || v.active_boards == 0 {
                    continue;
                }
                let w = rendezvous_weight(k, v.index, v.active_boards);
                if best.is_none() || w > best_w {
                    best = Some(i);
                    best_w = w;
                }
            }
            let b = best.unwrap_or(0);
            assigned[b] += 1;
            if k == kind {
                preferred = b;
            }
        }
        // 2. below the spill threshold the owner serves; otherwise the
        //    lowest-load shard does (ties → lowest index).
        let least = views.iter().enumerate().fold(0usize, |best, (i, v)| {
            if v.load() < views[best].load() {
                i
            } else {
                best
            }
        });
        // ... an over-threshold owner that is still the least-loaded
        // shard keeps the job (and the Affinity label).
        let expect = if views[preferred].load() < spill_threshold || least == preferred {
            (views[preferred].index, RouteKind::Affinity)
        } else {
            (views[least].index, RouteKind::Spill)
        };

        let got = router.route(kind, &views);
        assert_eq!(got, expect, "trial {trial}: views {views:?}");
        match got.1 {
            RouteKind::Spill => spills += 1,
            RouteKind::Affinity => affinities += 1,
            RouteKind::Direct => unreachable!("affinity policy never routes Direct"),
        }
    }
    // The synthetic load mix must exercise both branches or the oracle
    // proves nothing.
    assert!(spills > 20, "only {spills} spill decisions tested");
    assert!(
        affinities > 20,
        "only {affinities} affinity decisions tested"
    );
}

/// Zero-capacity shards can never win rendezvous — the live re-weighting
/// guarantee the elastic-capacity design leans on.
#[test]
fn rendezvous_never_elects_a_dead_shard() {
    for &kind in &JobKind::ALL {
        for dead in 0..4usize {
            let views: Vec<ShardView> = (0..4)
                .map(|index| ShardView {
                    index,
                    active_boards: if index == dead { 0 } else { 2 },
                    queue_depth: 0,
                    queue_capacity: 32,
                    in_flight: 0,
                    backplane_util: 0.0,
                })
                .collect();
            assert_ne!(
                views[Router::preferred(kind, &views)].index,
                dead,
                "{kind:?} homed onto a zero-capacity shard"
            );
        }
    }
}
