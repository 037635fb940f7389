//! # atlantis-cluster — sharded multi-host serving over the AAB
//!
//! The paper scales one crate at a time: a single ACB serves one
//! workload (§3), a backplane of boards serves several (§2.3), and the
//! runtime crate serves concurrent tenants on one simulated host. This
//! crate takes the last step the hardware was designed for but the
//! paper never measured: **many hosts**. A [`Cluster`] is a set of
//! shards — each one a full ATLANTIS machine: a backplane of ACB+AIB
//! pairs under the deterministic
//! [`ShardScheduler`](atlantis_runtime::ShardScheduler) — fronted by
//! three cooperating policies:
//!
//! * **Admission control** ([`admission`]): per-tenant outstanding-job
//!   quotas and priority-class watermarks shed work *before* it queues,
//!   with a typed [`Overloaded`] reason carrying queue depth and a
//!   retry-after hint.
//! * **SLO-aware routing** ([`router`]): weighted rendezvous hashing on
//!   the job's FPGA design keeps each design's traffic on the shard
//!   whose boards already hold its bitstream (reconfiguration is the
//!   enemy — §2.2), spilling to the least-loaded shard when the
//!   preferred one is saturated.
//! * **Elastic capacity** ([`shard`]): the guard's seeded degradation
//!   model ([`QuarantinePlan`](atlantis_guard::QuarantinePlan))
//!   quarantines boards on the virtual clock; a degraded shard
//!   advertises less capacity and the router re-weights live.
//!
//! Everything advances on the deterministic virtual clock, so a whole
//! overload campaign — millions of virtual jobs, sheds, quarantines —
//! [fingerprints](Cluster::fingerprint) byte-identically across runs.
//! The open-loop [`LoadGen`] drives offered load past saturation; the
//! `table12_cluster` bench sweeps it and locates the latency knee.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod loadgen;
pub mod router;
pub mod shard;
pub mod steal;

pub use admission::{AdmissionConfig, AdmissionController, Overloaded, ShedReason};
pub use loadgen::{
    run_closed_loop, Arrival, ClosedLoopConfig, ClosedLoopReport, LoadGen, LoadGenConfig,
};
pub use router::{RouteKind, Router, RoutingPolicy, ShardView};
pub use shard::Shard;
pub use steal::{StealConfig, StealKind, StealPlan, StealStats, StealingPolicy};

use atlantis_apps::jobs::JobKind;
use atlantis_guard::DegradationConfig;
use atlantis_runtime::{
    BitstreamCache, FabricKind, LogHistogram, Priority, RuntimeError, ShardCompletion, ShardConfig,
    ShardJob, ShardStats,
};
use atlantis_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::sync::Arc;

/// Cluster-level tunables.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard hosts.
    pub shards: usize,
    /// Per-shard board and queue configuration (the fleet-wide default).
    pub shard: ShardConfig,
    /// Heterogeneous fleets: `(shard index, config)` pairs replacing the
    /// default for specific shards — different board counts, different
    /// fabric families. An index past `shards` makes [`Cluster::new`]
    /// fail with [`RuntimeError::NoSuchShard`].
    pub shard_overrides: Vec<(usize, ShardConfig)>,
    /// How jobs are routed to shards.
    pub routing: RoutingPolicy,
    /// Admission tunables.
    pub admission: AdmissionConfig,
    /// Cross-shard work stealing ([`StealingPolicy::Off`] preserves the
    /// non-stealing serving path byte-for-byte).
    pub stealing: StealingPolicy,
    /// The guard degradation model (inactive by default).
    pub degradation: DegradationConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            shard: ShardConfig::default(),
            shard_overrides: Vec::new(),
            routing: RoutingPolicy::default(),
            admission: AdmissionConfig::default(),
            stealing: StealingPolicy::default(),
            degradation: DegradationConfig::default(),
        }
    }
}

/// One retired job, tagged with the shard that served it.
#[derive(Debug, Clone, Copy)]
pub struct ClusterCompletion {
    /// The serving shard.
    pub shard: usize,
    /// The shard-level completion record.
    pub inner: ShardCompletion,
}

/// Deterministic cluster-wide counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Jobs offered to the cluster.
    pub offered: u64,
    /// Jobs admitted to a shard queue.
    pub admitted: u64,
    /// Jobs retired.
    pub completed: u64,
    /// Jobs refused.
    pub shed: u64,
    /// Refusals by [`ShedReason::index`].
    pub shed_by_reason: [u64; 3],
    /// Refusals by priority class.
    pub shed_by_class: [u64; 3],
    /// Routing decisions kept on the rendezvous-preferred shard.
    pub routed_affinity: u64,
    /// Routing decisions spilled off the preferred shard.
    pub routed_spill: u64,
    /// End-to-end virtual latency across every completion.
    pub latency: LogHistogram,
    /// Completions per shard.
    pub per_shard_completed: Vec<u64>,
    /// Boards quarantined across the cluster.
    pub quarantined: u64,
    /// The latest completion instant.
    pub last_done: SimTime,
}

impl ClusterStats {
    /// Completed / offered — the fraction of offered load that became
    /// useful work.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Shed / offered.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// The sharded serving layer — see the crate docs.
#[derive(Debug)]
pub struct Cluster {
    shards: Vec<Shard>,
    router: Router,
    admission: AdmissionController,
    stealing: StealingPolicy,
    steal_stats: StealStats,
    steal_plans: Vec<StealPlan>,
    /// Per-shard instant of the last *cold* steal: a thief that just
    /// paid a reconfiguration must amortize it (several multiples of
    /// its current switch-cost estimate) before volunteering to pay
    /// another, or marginal backlogs make it thrash between designs.
    /// The window self-tunes: while the thief's estimate is the
    /// conservative full-configuration prior the window is long, and it
    /// shrinks as real switches calibrate the estimate down.
    last_cold: Vec<Option<SimTime>>,
    stats: ClusterStats,
    next_id: u64,
}

impl Cluster {
    /// Build a cluster: one shared prefit bitstream cache per fabric
    /// family, `cfg.shards` shard hosts, a router and an admission
    /// controller. Fails with [`RuntimeError::NoDevices`] for a fleet of
    /// zero shards and [`RuntimeError::NoSuchShard`] for a
    /// `shard_overrides` index out of range.
    pub fn new(cfg: ClusterConfig) -> Result<Self, RuntimeError> {
        if cfg.shards == 0 {
            return Err(RuntimeError::NoDevices);
        }
        let mut shard_cfgs = vec![cfg.shard; cfg.shards];
        for &(i, sc) in &cfg.shard_overrides {
            *shard_cfgs.get_mut(i).ok_or(RuntimeError::NoSuchShard(i))? = sc;
        }
        // One fit pass per fabric family present in the fleet: bitstream
        // fits are device-specific, so a heterogeneous cluster keeps one
        // cache per family and every shard shares its family's cache.
        let mut caches: Vec<(FabricKind, Arc<BitstreamCache>)> = Vec::new();
        for sc in &shard_cfgs {
            if !caches.iter().any(|(f, _)| *f == sc.fabric) {
                let cache = Arc::new(BitstreamCache::new(sc.fabric.device()));
                cache
                    .prefit_all()
                    .expect("every serving-scale workload design fits both families");
                caches.push((sc.fabric, cache));
            }
        }
        let cache_for = |fabric: FabricKind| {
            Arc::clone(
                &caches
                    .iter()
                    .find(|(f, _)| *f == fabric)
                    .expect("cache built per present fabric")
                    .1,
            )
        };
        let mut shards = shard_cfgs
            .iter()
            .enumerate()
            .map(|(i, &sc)| Shard::new(i, sc, cache_for(sc.fabric), &cfg.degradation))
            .collect::<Result<Vec<_>, _>>()?;
        // Boot provisioning: configure every shard's boards with its
        // homed designs (round-robin when a shard homes several), the
        // way the paper's host software loads initial configurations at
        // setup — so the serving clock starts with bitstreams resident
        // instead of every shard paying a full-configuration stampede
        // at first arrival. Policy-independent: the random-routing
        // control arm boots identically.
        let views: Vec<ShardView> = shards.iter().map(|s| s.view(SimTime::ZERO)).collect();
        let map = Router::home_map(&views);
        for (si, shard) in shards.iter_mut().enumerate() {
            let homes: Vec<JobKind> = JobKind::ALL
                .iter()
                .zip(map.iter())
                .filter(|&(_, &home)| home == si)
                .map(|(&k, _)| k)
                .collect();
            if homes.is_empty() {
                continue;
            }
            for b in 0..shard.engine.boards() {
                shard.engine.preload(b, homes[b % homes.len()]);
            }
        }
        Ok(Cluster {
            shards,
            router: Router::new(cfg.routing),
            admission: AdmissionController::new(cfg.admission),
            stealing: cfg.stealing,
            steal_stats: StealStats::default(),
            steal_plans: Vec::new(),
            last_cold: vec![None; cfg.shards],
            stats: ClusterStats {
                per_shard_completed: vec![0; cfg.shards],
                ..ClusterStats::default()
            },
            next_id: 0,
        })
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The current routing views, in shard order.
    pub fn views(&self, now: SimTime) -> Vec<ShardView> {
        self.shards.iter().map(|s| s.view(now)).collect()
    }

    /// A shard's deterministic counters.
    pub fn shard_stats(&self, shard: usize) -> &ShardStats {
        self.shards[shard].engine.stats()
    }

    /// Read access to a shard.
    pub fn shard(&self, shard: usize) -> &Shard {
        &self.shards[shard]
    }

    /// The cluster-wide counters accumulated so far.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Offer one job at virtual instant `now`: route, admit (or shed
    /// with a typed [`Overloaded`]), and enqueue on the chosen shard.
    /// Returns the cluster-assigned job id.
    pub fn offer(
        &mut self,
        now: SimTime,
        tenant: u32,
        priority: Priority,
        spec: atlantis_apps::jobs::JobSpec,
    ) -> Result<u64, Overloaded> {
        self.stats.offered += 1;
        let views = self.views(now);
        let (shard, route) = self.router.route(spec.kind, &views);
        let view = &views[shard];
        if let Err(reason) =
            self.admission
                .check(tenant, priority, view.queue_depth, view.queue_capacity)
        {
            return Err(self.shed(shard, reason, priority, view.queue_depth));
        }
        let id = self.next_id;
        let job = ShardJob {
            id,
            tenant,
            priority,
            spec,
        };
        match self.shards[shard].engine.submit(now, job) {
            Ok(()) => {
                self.next_id += 1;
                self.admission.note_admitted(tenant);
                self.stats.admitted += 1;
                match route {
                    RouteKind::Affinity => self.stats.routed_affinity += 1,
                    RouteKind::Spill => self.stats.routed_spill += 1,
                    RouteKind::Direct => {}
                }
                Ok(id)
            }
            // The admission check mirrors the shard bound, so this arm
            // is defensive: translate a raw shard rejection.
            Err(r) => Err(self.shed(shard, ShedReason::QueueFull, r.priority, r.depth)),
        }
    }

    fn shed(
        &mut self,
        shard: usize,
        reason: ShedReason,
        priority: Priority,
        depth: usize,
    ) -> Overloaded {
        self.stats.shed += 1;
        self.stats.shed_by_reason[reason.index()] += 1;
        self.stats.shed_by_class[priority.index()] += 1;
        Overloaded {
            reason,
            shard,
            queue_depth: depth,
            priority,
            retry_after: self.shards[shard].engine.retry_after(depth),
        }
    }

    /// The earliest pending event across the cluster — a completion or
    /// a scheduled quarantine.
    pub fn next_event(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .flat_map(|s| [s.engine.next_completion(), s.plan.peek_next()])
            .flatten()
            .min()
    }

    /// Advance the whole cluster to `now`: apply quarantine deltas and
    /// retire completions in global `(time, kind, shard)` order, so
    /// capacity changes and back-fill decisions interleave exactly as
    /// they would on real hosts. Returns completions in retirement
    /// order.
    pub fn advance(&mut self, now: SimTime) -> Vec<ClusterCompletion> {
        let mut out = Vec::new();
        loop {
            // (t, kind, shard): kind 0 = quarantine, 1 = completion —
            // a capacity loss at instant t takes effect before work
            // retiring at t can back-fill onto the dying board.
            let next = self
                .shards
                .iter()
                .enumerate()
                .flat_map(|(i, s)| {
                    [
                        s.plan.peek_next().map(|t| (t, 0u8, i)),
                        s.engine.next_completion().map(|t| (t, 1u8, i)),
                    ]
                })
                .flatten()
                .filter(|&(t, _, _)| t <= now)
                .min();
            let Some((t, kind, i)) = next else { break };
            if kind == 0 {
                self.stats.quarantined += self.shards[i].apply_quarantines(t) as u64;
            } else {
                for fin in self.shards[i].engine.advance(t) {
                    self.admission.note_done(fin.tenant);
                    self.stats.completed += 1;
                    self.stats.per_shard_completed[i] += 1;
                    self.stats.latency.record_virtual(fin.latency());
                    self.stats.last_done = self.stats.last_done.max(fin.done);
                    out.push(ClusterCompletion {
                        shard: i,
                        inner: fin,
                    });
                }
            }
            // A retired batch or capacity change may have idled a shard
            // while another still drowns: rebalance at this instant,
            // before the clock moves on.
            self.steal_scan(t);
        }
        self.steal_scan(now);
        out
    }

    /// One deterministic steal scan at virtual instant `now`: every
    /// idle-and-empty shard, in index order, evaluates the deepest
    /// backlog in the fleet against the reconfiguration-aware breakeven
    /// test and pulls a batch when the backlog is worth more than the
    /// move. No-op under [`StealingPolicy::Off`].
    fn steal_scan(&mut self, now: SimTime) {
        let StealingPolicy::Enabled(cfg) = self.stealing else {
            return;
        };
        self.steal_stats.scans += 1;
        for thief in 0..self.shards.len() {
            if self.shards[thief].engine.queue_depth() != 0
                || !self.shards[thief].engine.has_idle_board(now)
            {
                continue;
            }
            // Donors ranked deepest-first, ties to the lowest index — a
            // total order, so replays pick identical donors.
            let mut donors: Vec<usize> = (0..self.shards.len()).filter(|&d| d != thief).collect();
            donors.sort_by_key(|&d| (usize::MAX - self.shards[d].engine.queue_depth(), d));
            donors.retain(|&d| self.shards[d].engine.queue_depth() >= cfg.min_backlog);
            // A warm steal anywhere beats a cold steal from the deepest
            // donor: a design already resident on one of the thief's
            // idle boards moves work at transfer cost alone, so scan
            // every eligible donor for a resident match before pricing
            // a design switch.
            let resident = self.shards[thief].engine.idle_resident_kinds(now);
            let warm = donors.iter().find_map(|&d| {
                resident
                    .iter()
                    .find(|&&k| self.shards[d].engine.queued_backlog(k, 1).0 > 0)
                    .map(|&k| (d, k, StealKind::Warm))
            });
            // The cold amortization window, from the thief's *current*
            // switch-cost estimate — warm steals are exempt because
            // they never touch the fabric.
            let cooling = self.last_cold[thief]
                .is_some_and(|last| now < last + self.shards[thief].engine.mean_switch_cost() * 8);
            let (donor, kind, steal) = match warm {
                Some(pick) => pick,
                None if cooling => continue,
                None => match donors
                    .first()
                    .and_then(|&d| self.shards[d].engine.dominant_queued_kind().map(|k| (d, k)))
                {
                    Some((d, k)) => (d, k, StealKind::Cold),
                    None => continue,
                },
            };
            let depth = self.shards[donor].engine.queue_depth();
            let max_batch = cfg
                .max_batch
                .min(self.shards[thief].engine.queue_capacity());
            let (jobs, bytes) = self.shards[donor].engine.queued_backlog(kind, max_batch);
            if jobs == 0 {
                continue;
            }
            self.steal_stats.attempts += 1;
            // Breakeven: the donor's backlog priced at its calibrated
            // service EWMA (zero until it calibrates — no stealing on
            // faith) against the thief's measured switch cost plus the
            // AAB hop for the batch payload.
            let benefit = self.shards[donor].engine.service_ewma() * depth as u64;
            let reconfig = match steal {
                StealKind::Warm => SimDuration::ZERO,
                StealKind::Cold => self.shards[thief].engine.mean_switch_cost(),
            };
            let cost = reconfig + self.shards[donor].engine.hop_cost(bytes);
            if benefit <= cost {
                self.steal_stats.below_breakeven += 1;
                continue;
            }
            let batch = self.shards[donor].engine.steal_queued(kind, jobs);
            let mut moved = 0u64;
            for stolen in batch {
                let payload = stolen.job.spec.payload_bytes();
                let ready = self.shards[donor].engine.hop_transfer(now, payload);
                let taken = self.shards[thief].engine.submit_stolen(now, stolen, ready);
                debug_assert!(taken, "an empty thief queue fits the bounded batch");
                moved += payload;
            }
            match steal {
                StealKind::Warm => self.steal_stats.warm_steals += 1,
                StealKind::Cold => {
                    self.steal_stats.cold_steals += 1;
                    self.steal_stats.reconfig_paid += reconfig;
                    self.last_cold[thief] = Some(now);
                }
            }
            self.steal_stats.jobs_stolen += jobs as u64;
            self.steal_stats.bytes_moved += moved;
            self.steal_stats.backlog_drained += jobs as u64;
            self.steal_plans.push(StealPlan {
                at: now,
                thief,
                donor,
                kind,
                steal,
                jobs,
                bytes: moved,
                benefit,
                cost,
            });
        }
    }

    /// The cross-shard stealing ledger (all zeros when stealing is off).
    pub fn steal_stats(&self) -> &StealStats {
        &self.steal_stats
    }

    /// Every committed steal, in commit order.
    pub fn steal_plans(&self) -> &[StealPlan] {
        &self.steal_plans
    }

    /// Run the cluster to idle: retire everything queued and in flight.
    /// Quarantines scheduled beyond the last completion never fire.
    pub fn drain(&mut self) -> Vec<ClusterCompletion> {
        let mut out = Vec::new();
        while let Some(t) = self
            .shards
            .iter()
            .filter_map(|s| s.engine.next_completion())
            .min()
        {
            out.extend(self.advance(t));
        }
        out
    }

    /// Manually quarantine a board (fault injection / drain-for-repair).
    /// Returns whether it took effect (a shard never loses its last
    /// board).
    pub fn quarantine_board(&mut self, shard: usize, board: usize) -> bool {
        let took = self.shards[shard].engine.quarantine_board(board);
        if took {
            self.stats.quarantined += 1;
        }
        took
    }

    /// Drive the full open-loop campaign: interleave `arrivals` with
    /// cluster events on the virtual clock, then drain. Sheds are
    /// recorded in [`stats`](Self::stats); completions are returned.
    pub fn run_open_loop(
        &mut self,
        arrivals: impl IntoIterator<Item = Arrival>,
    ) -> Vec<ClusterCompletion> {
        let mut out = Vec::new();
        for a in arrivals {
            out.extend(self.advance(a.at));
            let _ = self.offer(a.at, a.tenant, a.priority, a.spec);
        }
        out.extend(self.drain());
        out
    }

    /// A byte-stable digest of every deterministic counter in the
    /// cluster — cluster stats plus each shard's stats in shard order,
    /// plus the steal ledger when stealing is enabled (a non-stealing
    /// cluster's digest keeps the pre-stealing layout byte-for-byte).
    /// Two runs of the same seeded campaign must produce identical
    /// strings; the determinism tests assert exactly that.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "cluster:{:?}", self.stats);
        for (i, sh) in self.shards.iter().enumerate() {
            let _ = write!(s, "|shard{}:{:?}", i, sh.engine.stats());
        }
        if let StealingPolicy::Enabled(_) = self.stealing {
            let _ = write!(s, "|steals:{:?}", self.steal_stats);
        }
        s
    }

    /// The rendezvous-preferred shard for each workload kind under the
    /// current capacities — the design-to-shard home map, indexed in
    /// [`JobKind::ALL`] order.
    pub fn home_map(&self, now: SimTime) -> [usize; JobKind::COUNT] {
        let views = self.views(now);
        let mut map = [0usize; JobKind::COUNT];
        for (i, &k) in JobKind::ALL.iter().enumerate() {
            map[i] = views[Router::preferred(k, &views)].index;
        }
        map
    }

    /// Aggregate affinity-hit rate: completions served without a
    /// hardware task switch, across all shards.
    pub fn affinity_hit_rate(&self) -> f64 {
        let (hits, done) = self
            .shards
            .iter()
            .map(|s| (s.engine.stats().affinity_hits, s.engine.stats().completed))
            .fold((0, 0), |(h, d), (sh, sd)| (h + sh, d + sd));
        if done == 0 {
            0.0
        } else {
            hits as f64 / done as f64
        }
    }

    /// Aggregate virtual-latency percentile (seconds) over completions.
    pub fn latency_percentile_secs(&self, p: f64) -> f64 {
        self.stats.latency.percentile(p) / 1e12
    }

    /// Mean retry-after currently advertised across shards (diagnostic).
    pub fn mean_retry_after(&self) -> SimDuration {
        let total: u64 = self
            .shards
            .iter()
            .map(|s| s.engine.retry_after(s.engine.queue_depth()).as_picos())
            .sum();
        SimDuration::from_picos(total / self.shards.len().max(1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlantis_apps::jobs::JobSpec;

    #[test]
    fn refuses_zero_shards() {
        let cfg = ClusterConfig {
            shards: 0,
            ..ClusterConfig::default()
        };
        assert!(matches!(Cluster::new(cfg), Err(RuntimeError::NoDevices)));
        // An override naming a shard the fleet lacks is refused, not a panic.
        let cfg = ClusterConfig {
            shards: 2,
            shard_overrides: vec![(2, ShardConfig::default())],
            ..ClusterConfig::default()
        };
        assert!(matches!(
            Cluster::new(cfg),
            Err(RuntimeError::NoSuchShard(2))
        ));
    }

    #[test]
    fn offers_complete_and_release_quota() {
        let mut c = Cluster::new(ClusterConfig {
            shards: 2,
            admission: AdmissionConfig {
                tenant_quota: 4,
                ..AdmissionConfig::default()
            },
            ..ClusterConfig::default()
        })
        .unwrap();
        for i in 0..4u64 {
            c.offer(SimTime::ZERO, 0, Priority::Normal, JobSpec::trt(i))
                .unwrap();
        }
        let err = c
            .offer(SimTime::ZERO, 0, Priority::Normal, JobSpec::trt(9))
            .unwrap_err();
        assert_eq!(err.reason, ShedReason::TenantQuota);
        let fins = c.drain();
        assert_eq!(fins.len(), 4);
        assert_eq!(c.stats().completed, 4);
        assert_eq!(c.stats().shed_by_reason[ShedReason::TenantQuota.index()], 1);
        // Quota released: the tenant can submit again.
        c.offer(c.stats().last_done, 0, Priority::Normal, JobSpec::trt(10))
            .unwrap();
    }

    #[test]
    fn affinity_routing_homes_designs() {
        let mut c = Cluster::new(ClusterConfig::default()).unwrap();
        let homes = c.home_map(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for i in 0..16u64 {
            let spec = JobSpec::trt(i);
            c.offer(t, 0, Priority::Normal, spec).unwrap();
            t += SimDuration::from_millis(20);
            c.advance(t);
        }
        c.drain();
        let trt_home = homes[0];
        assert_eq!(
            c.stats().per_shard_completed[trt_home],
            16,
            "all TRT jobs land on the TRT home shard at low load"
        );
        // At most one full configuration per board; everything after
        // rides the resident bitstream.
        assert!(
            c.affinity_hit_rate() >= 0.8,
            "steady same-design traffic stays loaded"
        );
    }

    #[test]
    fn fingerprint_is_replayable() {
        let run = || {
            let mut c = Cluster::new(ClusterConfig::default()).unwrap();
            c.run_open_loop(LoadGen::new(LoadGenConfig {
                jobs: 96,
                ..LoadGenConfig::default()
            }));
            c.fingerprint()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("cluster:") && a.contains("shard3:"));
    }
}
