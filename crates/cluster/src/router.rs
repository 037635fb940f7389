//! SLO-aware routing: send a job where its bitstream is probably still
//! on the fabric, unless that shard is drowning.
//!
//! The paper's machine wins by *not* reconfiguring: a hardware task
//! switch costs milliseconds of partial reconfiguration, so a job whose
//! design is already loaded finishes far sooner (§2.2, §4). At cluster
//! scale the same economics apply per shard: every shard keeps a few
//! designs resident across its boards, and the router's job is to keep
//! each design's traffic landing on the same shard — *affinity* — while
//! never letting that affinity turn a hot design into a hot shard.
//!
//! The affinity policy is weighted rendezvous hashing (highest random
//! weight): every `(design, shard)` pair hashes to a deterministic
//! pseudo-uniform `u ∈ (0,1)`, scored as `capacity / −ln(u)`, and the
//! highest score owns the design. Rendezvous hashing gives minimal
//! disruption under capacity changes — when the guard quarantines a
//! board and a shard's advertised capacity drops, only the designs that
//! re-hash onto another shard move; everything else stays cached.
//! When the preferred shard's load crosses the spill threshold, the job
//! spills to the least-loaded shard instead, trading a reconfiguration
//! for queueing delay — the SLO-aware half of the policy.

use atlantis_apps::jobs::JobKind;
use atlantis_simcore::rng::WorkloadRng;

/// How the cluster picks a shard for each arriving job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingPolicy {
    /// Rendezvous-hash on the job's design for cache affinity; spill to
    /// the least-loaded shard once the preferred shard's
    /// [`load`](ShardView::load) reaches `spill_threshold`.
    Affinity {
        /// Outstanding jobs per active board above which the preferred
        /// shard is considered overloaded and the job spills.
        spill_threshold: f64,
    },
    /// Uniform random shard from a seeded stream — the control arm the
    /// affinity policy is benchmarked against.
    Random {
        /// Seed of the routing stream.
        seed: u64,
    },
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        RoutingPolicy::Affinity {
            spill_threshold: 6.0,
        }
    }
}

/// A shard's routing-relevant state at one virtual instant — what the
/// router is allowed to see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardView {
    /// The shard's cluster index.
    pub index: usize,
    /// Boards still serving (advertised capacity after quarantines).
    pub active_boards: usize,
    /// Jobs queued, not yet on a board.
    pub queue_depth: usize,
    /// The shard's admission bound.
    pub queue_capacity: usize,
    /// Jobs currently on boards.
    pub in_flight: usize,
    /// The busiest backplane slot's occupancy so far ([0, 1]) — per-slot
    /// bandwidth accounting folded into the load metric, so a shard
    /// whose AAB is saturated looks loaded even with a short queue.
    pub backplane_util: f64,
}

impl ShardView {
    /// Outstanding work per active board, plus the backplane pressure
    /// term. This is the quantity spill decisions and least-loaded
    /// selection compare.
    pub fn load(&self) -> f64 {
        (self.queue_depth + self.in_flight) as f64 / self.active_boards.max(1) as f64
            + self.backplane_util
    }
}

/// Deterministic pseudo-uniform draw in (0, 1) for a `(design, shard)`
/// pair — FNV-1a over the design name and shard index, folded to the
/// unit interval. Public so oracle tests can recompute weights.
pub fn rendezvous_unit(kind: JobKind, shard: usize) -> f64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in kind.design_name().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    for b in (shard as u64).to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    // Top 53 bits → [0, 1); nudge off exact zero so ln() stays finite.
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    u.max(1e-12)
}

/// A shard's rendezvous score for a design: `capacity / −ln(u)`. The
/// shard with the highest score owns the design; zero-capacity shards
/// score zero and can never win.
pub fn rendezvous_weight(kind: JobKind, shard: usize, active_boards: usize) -> f64 {
    if active_boards == 0 {
        return 0.0;
    }
    active_boards as f64 / -rendezvous_unit(kind, shard).ln()
}

/// The routing decision taken for one job, for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// The job landed on its design's rendezvous-preferred shard.
    Affinity,
    /// The preferred shard was overloaded; the job spilled elsewhere.
    Spill,
    /// Policy was [`RoutingPolicy::Random`].
    Direct,
}

/// The stateful router: policy plus (for the random arm) its stream.
#[derive(Debug)]
pub struct Router {
    policy: RoutingPolicy,
    rng: Option<WorkloadRng>,
}

impl Router {
    /// A router for `policy`.
    pub fn new(policy: RoutingPolicy) -> Self {
        let rng = match policy {
            RoutingPolicy::Random { seed } => Some(WorkloadRng::seed_from_u64(seed)),
            _ => None,
        };
        Router { policy, rng }
    }

    /// The policy this router runs.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Pick a shard for a job of `kind` given the current views.
    /// Deterministic for a fixed view sequence (the random arm draws
    /// from its own seeded stream). Panics on an empty view slice.
    pub fn route(&mut self, kind: JobKind, views: &[ShardView]) -> (usize, RouteKind) {
        assert!(!views.is_empty(), "route over zero shards");
        match self.policy {
            RoutingPolicy::Affinity { spill_threshold } => {
                let preferred = Self::preferred(kind, views);
                if views[preferred].load() < spill_threshold {
                    (views[preferred].index, RouteKind::Affinity)
                } else {
                    let spill = Self::least_loaded(views);
                    let kind = if spill == preferred {
                        // Everybody is ≥ threshold and the preferred
                        // shard is still the least bad choice.
                        RouteKind::Affinity
                    } else {
                        RouteKind::Spill
                    };
                    (views[spill].index, kind)
                }
            }
            RoutingPolicy::Random { .. } => {
                let rng = self.rng.as_mut().expect("random policy keeps a stream");
                let i = rng.below(views.len() as u64) as usize;
                (views[i].index, RouteKind::Direct)
            }
        }
    }

    /// The balanced home map: each design in [`JobKind::ALL`] order is
    /// assigned its highest-[`rendezvous_weight`] live shard among
    /// those still under the per-shard cap `ceil(designs / live
    /// shards)`. The cap keeps designs spread across the fleet — pure
    /// rendezvous can pile two hot designs onto one shard and idle
    /// another, halving usable capacity — while the weights keep
    /// assignments sticky: when the guard erodes one shard's capacity,
    /// only designs contending with that shard re-home. Returns
    /// indices into `views`, in [`JobKind::ALL`] order — sized by
    /// [`JobKind::COUNT`] so a new workload kind can never silently
    /// truncate the map.
    pub fn home_map(views: &[ShardView]) -> [usize; JobKind::COUNT] {
        let live = views.iter().filter(|v| v.active_boards > 0).count().max(1);
        let cap = JobKind::ALL.len().div_ceil(live);
        let mut assigned = vec![0usize; views.len()];
        let mut map = [0usize; JobKind::COUNT];
        for (ki, &kind) in JobKind::ALL.iter().enumerate() {
            let mut best: Option<(f64, usize)> = None;
            for (i, v) in views.iter().enumerate() {
                if assigned[i] >= cap || v.active_boards == 0 {
                    continue;
                }
                let w = rendezvous_weight(kind, v.index, v.active_boards);
                if best.is_none() || w > best.expect("checked").0 {
                    best = Some((w, i));
                }
            }
            let b = best.map_or(0, |(_, i)| i);
            assigned[b] += 1;
            map[ki] = b;
        }
        map
    }

    /// The home shard (index into `views`) for `kind` under the
    /// balanced map.
    pub fn preferred(kind: JobKind, views: &[ShardView]) -> usize {
        Self::home_map(views)[kind.index()]
    }

    /// The index (into `views`) of the lowest [`ShardView::load`], ties
    /// to the lowest shard index.
    pub fn least_loaded(views: &[ShardView]) -> usize {
        let mut best = 0usize;
        for (i, v) in views.iter().enumerate().skip(1) {
            if v.load() < views[best].load() {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: usize, boards: usize) -> Vec<ShardView> {
        (0..n)
            .map(|index| ShardView {
                index,
                active_boards: boards,
                queue_depth: 0,
                queue_capacity: 64,
                in_flight: 0,
                backplane_util: 0.0,
            })
            .collect()
    }

    #[test]
    fn home_map_is_deterministic_and_balanced() {
        let v = views(4, 2);
        let homes = Router::home_map(&v);
        assert_eq!(homes, Router::home_map(&v));
        // Four designs over four equal shards: exactly one design each —
        // the balance cap at work.
        let mut sorted = homes;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3], "unbalanced map: {homes:?}");
        // Two shards: two designs each.
        let homes2 = Router::home_map(&views(2, 2));
        assert_eq!(homes2.iter().filter(|&&s| s == 0).count(), 2);
    }

    #[test]
    fn dead_shard_gets_no_designs_and_survivors_rebalance() {
        let mut v = views(4, 2);
        v[2].active_boards = 0;
        let homes = Router::home_map(&v);
        assert!(homes.iter().all(|&s| s != 2), "dead shard homed: {homes:?}");
        // Three live shards, cap ceil(4/3) = 2: no survivor takes more
        // than two designs.
        for s in [0usize, 1, 3] {
            assert!(homes.iter().filter(|&&h| h == s).count() <= 2);
        }
    }

    #[test]
    fn spill_triggers_at_threshold() {
        let mut r = Router::new(RoutingPolicy::Affinity {
            spill_threshold: 2.0,
        });
        let mut v = views(3, 2);
        let kind = JobKind::TrtEvent;
        let home = Router::preferred(kind, &v);
        let (s, rk) = r.route(kind, &v);
        assert_eq!((s, rk), (home, RouteKind::Affinity));
        // Pile work on the home shard until it crosses the threshold.
        v[home].queue_depth = 8;
        let (s, rk) = r.route(kind, &v);
        assert_ne!(s, home);
        assert_eq!(rk, RouteKind::Spill);
        assert_eq!(s, v[Router::least_loaded(&v)].index);
    }

    #[test]
    fn random_stream_is_seeded_and_in_range() {
        let v = views(5, 1);
        let run = |seed| {
            let mut r = Router::new(RoutingPolicy::Random { seed });
            (0..64)
                .map(|_| r.route(JobKind::NBodyStep, &v).0)
                .collect::<Vec<_>>()
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert_ne!(a, run(10));
        assert!(a.iter().all(|&s| s < 5));
    }

    #[test]
    fn backplane_pressure_counts_as_load() {
        let mut v = views(2, 1);
        v[0].backplane_util = 0.9;
        assert_eq!(Router::least_loaded(&v), 1);
    }
}
