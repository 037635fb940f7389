//! The embeddable per-shard scheduler: a deterministic, virtual-time
//! twin of the threaded [`Runtime`](crate::Runtime).
//!
//! The threaded runtime serves real client threads — wall clocks,
//! condvars, OS scheduling — which is the right shape for a live
//! process but the wrong shape for a cluster simulation that must
//! produce byte-identical statistics on every run. A [`ShardScheduler`]
//! is one simulated host: a backplane of ACB+AIB board pairs (payload
//! in and result out stream over the shard's own
//! [`Aab`](atlantis_backplane::Aab) connections, per the paper's §2.3
//! topology) plus the *same* scheduling semantics the threaded workers
//! use — a bounded admission queue with three priority classes and the
//! one reconfiguration-aware pick (bounded look-ahead, bounded batch
//! window, bounded skip aging) and task switch both engines share
//! (`policy.rs`), per-board
//! [`Coprocessor`](atlantis_core::Coprocessor) hardware task switching
//! against the shared [`BitstreamCache`], and
//! [`WorkloadContext`](atlantis_apps::jobs::WorkloadContext) execution
//! for bit-exact outcomes.
//!
//! Everything advances on an explicit discrete-event clock: `submit`
//! admits (or sheds) at a virtual instant, `advance` retires
//! completions up to an instant and back-fills freed boards in
//! deterministic `(time, board index)` order. Two runs over the same
//! submission sequence produce identical completions, identical
//! histograms, identical everything — the property the cluster layer's
//! determinism fingerprints assert.

use crate::cache::BitstreamCache;
use crate::error::RuntimeError;
use crate::job::Priority;
use crate::policy::{self, Fabric, Queued, SchedPolicy};
use crate::stats::LogHistogram;
use atlantis_apps::jobs::{JobKind, JobSpec, WorkloadContext};
use atlantis_backplane::{Aab, BackplaneKind, ConnectionId};
use atlantis_core::coprocessor::TaskError;
use atlantis_core::Coprocessor;
use atlantis_fabric::Device;
use atlantis_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// The reconfigurable fabric family a shard's boards are built from.
///
/// The paper's machine is heterogeneous by construction: the ACB carries
/// a 2×2 matrix of ORCA 3T125s while the AIB pairs Virtex XCV600s
/// (§2.1–2.2). A cluster grown board-by-board inherits that mix, and the
/// two families differ in exactly the two costs the scheduler trades:
/// the design clock (ORCA programmable to 80 MHz, Virtex to 100 MHz —
/// the substitution table's service-rate ratio) and the design-switch
/// cost (the paired-Virtex board streams twice an XCV600's frames
/// through its 33 MHz port, so a full load is ~57 ms against the
/// ORCA's ~37 ms: faster service, dearer reconfiguration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricKind {
    /// Lucent ORCA 3T125 boards (the ACB family) — the baseline.
    #[default]
    Orca,
    /// Paired Xilinx Virtex XCV600 boards (the AIB family): 100/80
    /// design clock, double capacity, double configuration stream.
    Virtex,
}

impl FabricKind {
    /// The capacity model of this fabric family.
    pub fn device(self) -> Device {
        match self {
            FabricKind::Orca => Device::orca_3t125(),
            FabricKind::Virtex => Device::virtex_aib_pair(),
        }
    }

    /// Scale a baseline (ORCA-clock) execution time to this fabric:
    /// identical cycle counts retire faster on a faster design clock.
    /// ORCA is the identity, so homogeneous fleets are byte-for-byte
    /// unchanged.
    pub fn scale_execute(self, d: SimDuration) -> SimDuration {
        match self {
            FabricKind::Orca => d,
            // 80 MHz -> 100 MHz: same cycles in 4/5 the time.
            FabricKind::Virtex => SimDuration::from_picos(d.as_picos() * 4 / 5),
        }
    }
}

/// Tunables for one simulated shard host.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// ACB+AIB board pairs on the shard's backplane.
    pub boards: usize,
    /// The fabric family of every board on this shard. Heterogeneous
    /// *clusters* mix shards of different kinds; one shard is uniform.
    pub fabric: FabricKind,
    /// Hard bound on queued (not yet running) jobs.
    pub queue_capacity: usize,
    /// The scheduling policy (same semantics as the threaded runtime).
    pub policy: SchedPolicy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            boards: 2,
            fabric: FabricKind::Orca,
            queue_capacity: 64,
            policy: SchedPolicy::default(),
        }
    }
}

/// One job submitted to a shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardJob {
    /// Caller-assigned id, echoed into the completion.
    pub id: u64,
    /// The tenant the job belongs to.
    pub tenant: u32,
    /// Admission priority class.
    pub priority: Priority,
    /// The deterministic work description.
    pub spec: JobSpec,
}

/// Why a shard refused a job — the virtual-clock analogue of
/// [`RuntimeError::Overloaded`], carrying the same context (depth,
/// class, retry-after) in virtual time.
#[derive(Debug, Clone, Copy)]
pub struct ShardReject {
    /// The queue capacity that was exhausted.
    pub capacity: usize,
    /// Jobs queued at the moment of rejection.
    pub depth: usize,
    /// The refused job's priority class.
    pub priority: Priority,
    /// Estimated virtual time until a queue slot frees: per-job service
    /// EWMA × depth ÷ active boards. Zero until the first completion.
    pub retry_after: SimDuration,
}

/// One retired job with its full virtual-time decomposition.
#[derive(Debug, Clone, Copy)]
pub struct ShardCompletion {
    /// Caller-assigned id.
    pub id: u64,
    /// The tenant the job belonged to.
    pub tenant: u32,
    /// Admission priority class.
    pub priority: Priority,
    /// The work that was done.
    pub spec: JobSpec,
    /// The shard-local board that served the job.
    pub board: usize,
    /// Deterministic digest of the job's output.
    pub checksum: u64,
    /// FPGA cycles consumed.
    pub cycles: u64,
    /// When the job was admitted.
    pub submitted: SimTime,
    /// When a board picked it up.
    pub started: SimTime,
    /// When its result finished streaming off the backplane.
    pub done: SimTime,
    /// Virtual payload-in + result-out time on the shard's backplane.
    pub dma: SimDuration,
    /// Virtual reconfiguration time (zero on an affinity hit).
    pub reconfig: SimDuration,
    /// Virtual execution time at the design clock.
    pub execute: SimDuration,
    /// Whether serving required a hardware task switch. `false` is a
    /// *shard cache hit*: the design was already on the board's fabric —
    /// the affinity the cluster router exists to exploit.
    pub switched: bool,
}

impl ShardCompletion {
    /// Queue wait: admission → pickup.
    pub fn queue_wait(&self) -> SimDuration {
        self.started.since(self.submitted)
    }

    /// End-to-end virtual latency: admission → result out.
    pub fn latency(&self) -> SimDuration {
        self.done.since(self.submitted)
    }

    /// Virtual time the job occupied its board.
    pub fn service(&self) -> SimDuration {
        self.dma + self.reconfig + self.execute
    }
}

/// Deterministic counters of one shard. Every field derives from the
/// virtual clock, so fixed-seed campaigns fingerprint byte-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs retired.
    pub completed: u64,
    /// Jobs refused with [`ShardReject`].
    pub rejected: u64,
    /// Refusals per priority class.
    pub rejected_by_class: [u64; 3],
    /// Completions per workload kind (indexed like [`JobKind::ALL`]).
    pub per_kind: [u64; 4],
    /// Jobs served without a hardware task switch — the shard's
    /// bitstream-affinity hits.
    pub affinity_hits: u64,
    /// Full FPGA configurations across the shard's boards.
    pub full_loads: u64,
    /// Partial-reconfiguration switches across the shard's boards.
    pub partial_switches: u64,
    /// Virtual time spent reconfiguring.
    pub reconfig_time: SimDuration,
    /// Virtual time payloads and results spent on the backplane.
    pub dma_time: SimDuration,
    /// Virtual execution time.
    pub execute_time: SimDuration,
    /// Per-board busy time.
    pub board_busy: Vec<SimDuration>,
    /// End-to-end virtual latency histogram (picoseconds).
    pub latency: LogHistogram,
    /// Queue-wait histogram (picoseconds).
    pub queue_wait: LogHistogram,
    /// Boards quarantined out of the advertised capacity.
    pub quarantined: u64,
    /// The latest completion instant seen.
    pub last_done: SimTime,
}

impl ShardStats {
    /// Fraction of completions served without a task switch.
    pub fn affinity_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.affinity_hits as f64 / self.completed as f64
        }
    }
}

/// One board pair: the ACB-side coprocessor plus its reserved
/// backplane connection to the AIB that feeds it.
#[derive(Debug)]
struct Board {
    /// The coprocessor, its loaded design and the batch counter.
    fabric: Fabric,
    conn: ConnectionId,
    free_at: SimTime,
    in_flight: Option<ShardCompletion>,
    quarantined: bool,
}

#[derive(Debug)]
struct QueueEntry {
    job: ShardJob,
    submitted: SimTime,
    skips: u32,
    /// When the job's payload is resident on this host. `SimTime::ZERO`
    /// for locally admitted work; stolen jobs carry the instant their
    /// cross-shard hop transfer lands, and a board that picks one up
    /// earlier waits for the data (charged as DMA time).
    ready_at: SimTime,
}

impl Queued for QueueEntry {
    fn kind(&self) -> JobKind {
        self.job.spec.kind
    }
    fn skips(&mut self) -> &mut u32 {
        &mut self.skips
    }
}

/// A job lifted out of a donor shard's queue by the cluster's work
/// stealer: the job plus its original admission instant, preserved so
/// end-to-end latency keeps counting the time spent in the donor queue.
#[derive(Debug, Clone, Copy)]
pub struct StolenJob {
    /// The queued job, unchanged.
    pub job: ShardJob,
    /// When the donor admitted it.
    pub submitted: SimTime,
}

/// One simulated shard host — see the module docs.
#[derive(Debug)]
pub struct ShardScheduler {
    cfg: ShardConfig,
    boards: Vec<Board>,
    aab: Aab,
    /// Reserved full-width connection for cluster-level payload hops
    /// (work stealing): slots `2·boards` and `2·boards + 1`. Idle unless
    /// the cluster steals, so it never perturbs board-pair transfers.
    hop_conn: ConnectionId,
    classes: [VecDeque<QueueEntry>; Priority::CLASSES],
    queued: usize,
    cache: Arc<BitstreamCache>,
    ctx: WorkloadContext,
    stats: ShardStats,
    /// EWMA of per-job virtual service time, integer picoseconds.
    service_ewma_ps: u64,
    /// Full configuration time of this shard's fabric — the breakeven
    /// fallback before any task switch has been measured.
    full_config: SimDuration,
}

impl ShardScheduler {
    /// Build a shard: `cfg.boards` ACB+AIB pairs on a fresh backplane
    /// (ACB in slot `2i`, its AIB in slot `2i+1`, one full-width
    /// connection each — the §2.3 pairing that yields 1 GB/s per pair).
    /// `cache` is the cluster-wide fitted-bitstream cache; call
    /// [`BitstreamCache::prefit_all`] once before sharing it. Fails with
    /// [`RuntimeError::NoDevices`] for zero boards and with
    /// [`TaskError::DeviceMismatch`] for a cache fitted for another
    /// fabric family.
    pub fn new(cfg: ShardConfig, cache: Arc<BitstreamCache>) -> Result<Self, RuntimeError> {
        if cfg.boards == 0 {
            return Err(RuntimeError::NoDevices);
        }
        let device = cfg.fabric.device();
        if *cache.device() != device {
            return Err(RuntimeError::Task(TaskError::DeviceMismatch {
                fitted_for: cache.device().name.clone(),
                device: device.name,
            }));
        }
        // Two extra slots host the reserved cluster-hop connection.
        let mut aab = Aab::new(BackplaneKind::Configurable, 2 * cfg.boards + 2);
        let mut boards = Vec::with_capacity(cfg.boards);
        for i in 0..cfg.boards {
            let conn = aab
                .connect(2 * i, 2 * i + 1, aab.config().channels())
                .expect("fresh backplane has free channels");
            boards.push(Board {
                fabric: Fabric::new(Coprocessor::new(device.clone())),
                conn,
                free_at: SimTime::ZERO,
                in_flight: None,
                quarantined: false,
            });
        }
        let hop_conn = aab
            .connect(2 * cfg.boards, 2 * cfg.boards + 1, aab.config().channels())
            .expect("fresh backplane has free channels");
        let stats = ShardStats {
            board_busy: vec![SimDuration::ZERO; cfg.boards],
            ..ShardStats::default()
        };
        Ok(ShardScheduler {
            cfg,
            boards,
            aab,
            hop_conn,
            classes: Default::default(),
            queued: 0,
            cache,
            ctx: WorkloadContext::new(),
            stats,
            service_ewma_ps: 0,
            full_config: device.full_config_time(),
        })
    }

    /// Admit `job` at virtual instant `now`, or shed it when the queue
    /// bound is reached. Admission immediately back-fills any idle
    /// board.
    pub fn submit(&mut self, now: SimTime, job: ShardJob) -> Result<(), ShardReject> {
        if self.queued >= self.cfg.queue_capacity {
            self.stats.rejected += 1;
            self.stats.rejected_by_class[job.priority.index()] += 1;
            return Err(ShardReject {
                capacity: self.cfg.queue_capacity,
                depth: self.queued,
                priority: job.priority,
                retry_after: self.retry_after(self.queued),
            });
        }
        self.stats.submitted += 1;
        self.classes[job.priority.index()].push_back(QueueEntry {
            job,
            submitted: now,
            skips: 0,
            ready_at: SimTime::ZERO,
        });
        self.queued += 1;
        self.schedule(now);
        Ok(())
    }

    /// Accept a job stolen from another shard's queue at virtual instant
    /// `now`. The original admission instant is preserved (latency keeps
    /// counting the donor-queue wait) and `ready_at` is when the payload
    /// lands on this host — a board that starts the job earlier waits
    /// for the data, charged as DMA time. Not counted as a submission:
    /// the donor already did, and the cluster's steal ledger reconciles
    /// the transfer. Returns `false` (job untouched) on a full queue.
    pub fn submit_stolen(&mut self, now: SimTime, stolen: StolenJob, ready_at: SimTime) -> bool {
        if self.queued >= self.cfg.queue_capacity {
            return false;
        }
        self.classes[stolen.job.priority.index()].push_back(QueueEntry {
            job: stolen.job,
            submitted: stolen.submitted,
            skips: 0,
            ready_at,
        });
        self.queued += 1;
        self.schedule(now);
        true
    }

    /// Lift up to `max` queued jobs of `kind` out of this shard's queue
    /// for a thief, least-urgent class first and newest-first within a
    /// class — the jobs that would otherwise wait longest. In-flight
    /// work is never stolen. Queue-bound accounting moves with them;
    /// admission stats stay (the jobs were genuinely admitted here).
    pub fn steal_queued(&mut self, kind: JobKind, max: usize) -> Vec<StolenJob> {
        let mut out = Vec::new();
        for class in self.classes.iter_mut().rev() {
            if out.len() >= max {
                break;
            }
            let mut i = class.len();
            while i > 0 && out.len() < max {
                i -= 1;
                if class[i].job.spec.kind == kind {
                    let e = class.remove(i).expect("index in range");
                    self.queued -= 1;
                    out.push(StolenJob {
                        job: e.job,
                        submitted: e.submitted,
                    });
                }
            }
        }
        out
    }

    /// `(jobs, payload bytes)` of up to `max` queued jobs of `kind`, in
    /// the order [`steal_queued`](Self::steal_queued) would take them —
    /// the thief's cost estimate before committing to a steal.
    pub fn queued_backlog(&self, kind: JobKind, max: usize) -> (usize, u64) {
        let mut n = 0usize;
        let mut bytes = 0u64;
        for class in self.classes.iter().rev() {
            for e in class.iter().rev() {
                if n >= max {
                    return (n, bytes);
                }
                if e.job.spec.kind == kind {
                    n += 1;
                    bytes += e.job.spec.payload_bytes();
                }
            }
        }
        (n, bytes)
    }

    /// The workload kind with the most queued jobs (ties to
    /// [`JobKind::ALL`] order), if anything is queued — the donor-side
    /// answer to "what is worth a design switch to take".
    pub fn dominant_queued_kind(&self) -> Option<JobKind> {
        let mut counts = [0usize; JobKind::COUNT];
        for class in &self.classes {
            for e in class {
                counts[e.job.spec.kind.index()] += 1;
            }
        }
        JobKind::ALL
            .iter()
            .copied()
            .max_by_key(|k| counts[k.index()])
            .filter(|k| counts[k.index()] > 0)
    }

    /// Whether any non-quarantined board is idle at `t` — the thief-side
    /// precondition of a steal.
    pub fn has_idle_board(&self, t: SimTime) -> bool {
        self.boards
            .iter()
            .any(|b| !b.quarantined && b.in_flight.is_none() && b.free_at <= t)
    }

    /// Designs resident on idle boards at `t`, in board order — what a
    /// steal can serve without a reconfiguration (a *warm* steal).
    pub fn idle_resident_kinds(&self, t: SimTime) -> Vec<JobKind> {
        self.boards
            .iter()
            .filter(|b| !b.quarantined && b.in_flight.is_none() && b.free_at <= t)
            .filter_map(|b| b.fabric.loaded)
            .collect()
    }

    /// The measured mean hardware task-switch cost on this shard —
    /// total serving-path reconfiguration time over total switches —
    /// falling back to a full configuration of this fabric before
    /// anything has been measured. Boot preloads increment the switch
    /// counters but record no reconfiguration time (boot precedes the
    /// serving clock), so the conservative full-configuration prior
    /// holds until a switch is actually *paid* mid-campaign. This is
    /// the self-calibrating reconfiguration term of the steal
    /// breakeven test.
    pub fn mean_switch_cost(&self) -> SimDuration {
        let switches = self.stats.full_loads + self.stats.partial_switches;
        if switches == 0 || self.stats.reconfig_time == SimDuration::ZERO {
            self.full_config
        } else {
            self.stats.reconfig_time / switches
        }
    }

    /// The calibrated mean service time (zero until the first
    /// completion) — the per-job term of the steal benefit estimate.
    pub fn service_ewma(&self) -> SimDuration {
        SimDuration::from_picos(self.service_ewma_ps)
    }

    /// Virtual time to move `bytes` over the shard's reserved cluster-hop
    /// backplane connection, were it free now.
    pub fn hop_cost(&self, bytes: u64) -> SimDuration {
        self.aab
            .connection_bandwidth(self.hop_conn)
            .transfer_time(bytes)
    }

    /// Stream `bytes` of stolen payload out over the reserved hop
    /// connection starting at `at` (serialized after previous hops —
    /// back-to-back steals queue on the link) and return the completion
    /// instant. Charged on this (the donor's) backplane, per §2.3: the
    /// payload crosses the donor's AAB on its way to the inter-host
    /// link.
    pub fn hop_transfer(&mut self, at: SimTime, bytes: u64) -> SimTime {
        let (_, done) = self
            .aab
            .transfer(self.hop_conn, at, bytes)
            .expect("hop connection is live");
        done
    }

    /// Estimated virtual time until `depth` queued jobs free one slot.
    pub fn retry_after(&self, depth: usize) -> SimDuration {
        let boards = self.active_boards().max(1) as u64;
        SimDuration::from_picos(self.service_ewma_ps.saturating_mul(depth as u64) / boards)
    }

    /// Retire every completion at or before `now` (cascading freed
    /// boards onto queued work at the exact completion instants) and
    /// return them ordered by `(done, board)`.
    pub fn advance(&mut self, now: SimTime) -> Vec<ShardCompletion> {
        let mut out = Vec::new();
        loop {
            let next = self
                .boards
                .iter()
                .enumerate()
                .filter_map(|(i, b)| b.in_flight.as_ref().map(|f| (f.done, i)))
                .filter(|&(done, _)| done <= now)
                .min();
            let Some((done, i)) = next else { break };
            let fin = self.boards[i].in_flight.take().expect("board has work");
            self.note_completion(&fin);
            out.push(fin);
            self.schedule(done);
        }
        self.schedule(now);
        out
    }

    /// The earliest in-flight completion instant, if any — the shard's
    /// contribution to the cluster's event horizon.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.boards
            .iter()
            .filter_map(|b| b.in_flight.as_ref().map(|f| f.done))
            .min()
    }

    /// Run the shard to idle: retire everything queued and in flight.
    pub fn drain(&mut self) -> Vec<ShardCompletion> {
        let mut out = Vec::new();
        while let Some(t) = self.next_completion() {
            out.extend(self.advance(t));
        }
        out
    }

    /// Boot-time provisioning: configure `board` with `kind`'s design
    /// before serving begins, the way the paper's host software loads
    /// initial configurations at setup (§2.2). The configuration is
    /// counted in the task-switch stats, but the board is free
    /// immediately — boot precedes the serving clock. Returns `false`
    /// for an unknown, busy, or quarantined board.
    pub fn preload(&mut self, board: usize, kind: JobKind) -> bool {
        if board >= self.boards.len()
            || self.boards[board].quarantined
            || self.boards[board].in_flight.is_some()
        {
            return false;
        }
        let _ = self.switch_board(board, kind);
        // The serving batch window starts fresh.
        self.boards[board].fabric.batch_len = 0;
        true
    }

    /// Quarantine a board (a guard capacity delta): it finishes its
    /// in-flight job but is never scheduled again, shrinking the
    /// shard's advertised capacity. Refuses to quarantine the last
    /// active board — a shard always keeps serving. Returns whether the
    /// quarantine took effect.
    pub fn quarantine_board(&mut self, board: usize) -> bool {
        if board >= self.boards.len() || self.boards[board].quarantined {
            return false;
        }
        if self.active_boards() <= 1 {
            return false;
        }
        self.boards[board].quarantined = true;
        self.stats.quarantined += 1;
        true
    }

    /// Boards still serving (total minus quarantined) — the advertised
    /// capacity the router weighs.
    pub fn active_boards(&self) -> usize {
        self.boards.iter().filter(|b| !b.quarantined).count()
    }

    /// Total board pairs, quarantined or not.
    pub fn boards(&self) -> usize {
        self.boards.len()
    }

    /// The fabric family this shard's boards are built from.
    pub fn fabric(&self) -> FabricKind {
        self.cfg.fabric
    }

    /// Jobs queued (excluding in-flight work).
    pub fn queue_depth(&self) -> usize {
        self.queued
    }

    /// The admission bound.
    pub fn queue_capacity(&self) -> usize {
        self.cfg.queue_capacity
    }

    /// Jobs currently executing on boards.
    pub fn in_flight(&self) -> usize {
        self.boards.iter().filter(|b| b.in_flight.is_some()).count()
    }

    /// Outstanding work (queued + in flight) per active board — the
    /// load metric the router's spill decision compares.
    pub fn load(&self) -> f64 {
        (self.queued + self.in_flight()) as f64 / self.active_boards().max(1) as f64
    }

    /// The shard's deterministic counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// The shard's backplane (per-slot accounting lives here).
    pub fn backplane(&self) -> &Aab {
        &self.aab
    }

    // ---- internals -----------------------------------------------------

    fn note_completion(&mut self, fin: &ShardCompletion) {
        let s = &mut self.stats;
        s.completed += 1;
        s.per_kind[fin.spec.kind.index()] += 1;
        if !fin.switched {
            s.affinity_hits += 1;
        }
        s.latency.record_virtual(fin.latency());
        s.queue_wait.record_virtual(fin.queue_wait());
        s.last_done = s.last_done.max(fin.done);
        let v = fin.service().as_picos();
        self.service_ewma_ps = if self.service_ewma_ps == 0 {
            v
        } else {
            self.service_ewma_ps - self.service_ewma_ps / 4 + v / 4
        };
    }

    /// Back-fill every board idle at `t` from the queue. Among idle
    /// boards, prefer one whose fabric already holds the head job's
    /// design (so two designs resident on two boards serve side by
    /// side instead of ping-ponging); otherwise lowest index. Jobs are
    /// then chosen by the pick both engines share ([`policy::pick`]).
    fn schedule(&mut self, t: SimTime) {
        loop {
            let idle = |b: &Board| !b.quarantined && b.in_flight.is_none() && b.free_at <= t;
            let Some(first) = self.boards.iter().position(idle) else {
                break;
            };
            let Some(head) = self.classes.iter().find_map(|c| c.front()) else {
                break;
            };
            let head_kind = head.job.spec.kind;
            let bi = self
                .boards
                .iter()
                .position(|b| idle(b) && b.fabric.loaded == Some(head_kind))
                .unwrap_or(first);
            let fabric = &self.boards[bi].fabric;
            let Some(entry) = policy::pick(
                &mut self.classes,
                self.cfg.policy,
                fabric.loaded,
                fabric.batch_len,
            ) else {
                break;
            };
            self.queued -= 1;
            self.start(bi, t, entry);
        }
    }

    /// Serve `entry` on board `bi` starting at `t`: payload DMA over
    /// the pair's backplane connection, hardware task switch, execute,
    /// result DMA back. The board is occupied for the serial sum — the
    /// shard engine models the paper's base (un-pipelined) serving path.
    fn start(&mut self, bi: usize, t: SimTime, entry: QueueEntry) {
        let spec = entry.job.spec;
        // A stolen job whose payload is still in flight over the hop
        // link stalls the board until it lands; the wait is charged as
        // DMA — the board is blocked on data either way.
        let data_at = if entry.ready_at > t {
            entry.ready_at
        } else {
            t
        };
        let (_, dma_in_done) = self
            .aab
            .transfer(self.boards[bi].conn, data_at, spec.payload_bytes())
            .expect("pair connection is live");
        let dma_in = dma_in_done.since(t);
        let (reconfig, switched) = self.switch_board(bi, spec.kind);
        let outcome = self.ctx.execute(&spec);
        let execute = self.cfg.fabric.scale_execute(outcome.compute);
        let exec_end = dma_in_done + reconfig + execute;
        let (_, done) = self
            .aab
            .transfer(self.boards[bi].conn, exec_end, spec.result_bytes())
            .expect("pair connection is live");
        let dma = dma_in + done.since(exec_end);

        let s = &mut self.stats;
        s.dma_time += dma;
        s.reconfig_time += reconfig;
        s.execute_time += execute;
        s.board_busy[bi] += done.since(t);

        let board = &mut self.boards[bi];
        board.free_at = done;
        board.in_flight = Some(ShardCompletion {
            id: entry.job.id,
            tenant: entry.job.tenant,
            priority: entry.job.priority,
            spec,
            board: bi,
            checksum: outcome.checksum,
            cycles: outcome.cycles,
            submitted: entry.submitted,
            started: t,
            done,
            dma,
            reconfig,
            execute,
            switched,
        });
    }

    /// Switch board `bi` to `kind`'s design ([`Fabric::switch`]) and
    /// fold the load/switch counts into the shard counters (reconfiguration
    /// time is charged by `start`, so boot preloads stay off the clock).
    fn switch_board(&mut self, bi: usize, kind: JobKind) -> (SimDuration, bool) {
        let sw = self.boards[bi]
            .fabric
            .switch(&self.cache, kind)
            .expect("workload designs are prefit for the shard's device family");
        self.stats.full_loads += sw.delta.full_loads;
        self.stats.partial_switches += sw.delta.partial_switches;
        (sw.reconfig, sw.switched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(boards: usize, capacity: usize) -> ShardScheduler {
        let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
        cache.prefit_all().expect("designs fit");
        ShardScheduler::new(
            ShardConfig {
                boards,
                queue_capacity: capacity,
                ..ShardConfig::default()
            },
            cache,
        )
        .expect("boards > 0")
    }

    fn job(id: u64, spec: JobSpec) -> ShardJob {
        ShardJob {
            id,
            tenant: (id % 3) as u32,
            priority: Priority::Normal,
            spec,
        }
    }

    #[test]
    fn refuses_zero_boards() {
        let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
        let r = ShardScheduler::new(
            ShardConfig {
                boards: 0,
                ..ShardConfig::default()
            },
            Arc::clone(&cache),
        );
        assert!(matches!(r, Err(RuntimeError::NoDevices)));
        // A cache fitted for another fabric family is refused up front,
        // not left to panic on the first switch.
        let r = ShardScheduler::new(
            ShardConfig {
                fabric: FabricKind::Virtex,
                ..ShardConfig::default()
            },
            cache,
        );
        assert!(matches!(
            r,
            Err(RuntimeError::Task(TaskError::DeviceMismatch { fitted_for, .. }))
                if fitted_for == "ORCA 3T125"
        ));
    }

    #[test]
    fn serves_a_mixed_workload_deterministically() {
        let run = || {
            let mut s = shard(2, 64);
            let mut t = SimTime::ZERO;
            for i in 0..24u64 {
                s.submit(t, job(i, JobSpec::mixed(i))).unwrap();
                t += SimDuration::from_micros(5);
            }
            let mut fins = s.advance(t);
            fins.extend(s.drain());
            assert_eq!(fins.len(), 24);
            (
                fins.iter().map(|f| (f.id, f.checksum)).collect::<Vec<_>>(),
                s.stats().clone(),
            )
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "completions replay identically");
        assert_eq!(sa, sb, "stats replay identically");
        assert_eq!(sa.completed, 24);
        assert_eq!(sa.per_kind.iter().sum::<u64>(), 24);
        assert!(sa.latency.count() == 24 && sa.queue_wait.count() == 24);
        assert!(sa.last_done > SimTime::ZERO);
    }

    #[test]
    fn checksums_match_the_software_oracle() {
        let mut s = shard(3, 64);
        let specs: Vec<_> = (0..12).map(JobSpec::mixed).collect();
        for (i, &spec) in specs.iter().enumerate() {
            s.submit(SimTime::ZERO, job(i as u64, spec)).unwrap();
        }
        let mut fins = s.drain();
        fins.sort_by_key(|f| f.id);
        let mut oracle = WorkloadContext::new();
        for (f, spec) in fins.iter().zip(&specs) {
            assert_eq!(f.checksum, oracle.execute(spec).checksum);
            assert_eq!(f.service(), f.dma + f.reconfig + f.execute);
            assert!(f.done.since(f.started) == f.service());
        }
    }

    #[test]
    fn overload_sheds_with_context_and_retry_hint() {
        let mut s = shard(1, 4);
        let mut rejected = None;
        for i in 0..16u64 {
            if let Err(r) = s.submit(SimTime::ZERO, job(i, JobSpec::trt(i))) {
                rejected = Some(r);
                break;
            }
        }
        let r = rejected.expect("tiny queue must shed");
        assert_eq!(r.capacity, 4);
        assert!(r.depth >= 4);
        assert_eq!(r.priority, Priority::Normal);
        // No completion yet → the estimate is still uncalibrated.
        assert_eq!(r.retry_after, SimDuration::ZERO);
        s.drain();
        assert!(s.stats().rejected >= 1);
        assert_eq!(
            s.stats().rejected_by_class[Priority::Normal.index()],
            s.stats().rejected
        );
        // After completions the EWMA calibrates and the hint is real.
        assert!(s.retry_after(4) > SimDuration::ZERO);
    }

    #[test]
    fn affinity_batching_beats_fifo_on_switches() {
        let mix: Vec<_> = (0..40).map(JobSpec::mixed).collect();
        let run = |policy| {
            let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
            cache.prefit_all().unwrap();
            let mut s = ShardScheduler::new(
                ShardConfig {
                    boards: 1,
                    queue_capacity: 64,
                    policy,
                    ..ShardConfig::default()
                },
                cache,
            )
            .unwrap();
            for (i, &spec) in mix.iter().enumerate() {
                s.submit(SimTime::ZERO, job(i as u64, spec)).unwrap();
            }
            s.drain();
            s.stats().clone()
        };
        let fifo = run(SchedPolicy::Fifo);
        let aware = run(SchedPolicy::default());
        assert!(
            aware.full_loads + aware.partial_switches < fifo.full_loads + fifo.partial_switches,
            "affinity pick must reduce switches: {} vs {}",
            aware.full_loads + aware.partial_switches,
            fifo.full_loads + fifo.partial_switches
        );
        assert!(aware.affinity_hit_rate() > fifo.affinity_hit_rate());
        assert_eq!(aware.completed, fifo.completed);
    }

    #[test]
    fn quarantine_shrinks_capacity_but_never_kills_the_shard() {
        let mut s = shard(2, 64);
        assert_eq!(s.active_boards(), 2);
        assert!(s.quarantine_board(0));
        assert_eq!(s.active_boards(), 1);
        assert!(!s.quarantine_board(1), "last board must keep serving");
        assert!(!s.quarantine_board(0), "idempotent");
        for i in 0..8u64 {
            s.submit(SimTime::ZERO, job(i, JobSpec::trt(i))).unwrap();
        }
        let fins = s.drain();
        assert_eq!(fins.len(), 8);
        assert!(
            fins.iter().all(|f| f.board == 1),
            "only the live board serves"
        );
        assert_eq!(s.stats().quarantined, 1);
    }

    #[test]
    fn priority_classes_serve_urgent_first() {
        let mut s = shard(1, 64);
        // Fill the board, then queue a Low before a High at the same instant.
        s.submit(SimTime::ZERO, job(0, JobSpec::trt(0))).unwrap();
        let mut low = job(1, JobSpec::image(32, 1));
        low.priority = Priority::Low;
        let mut high = job(2, JobSpec::nbody(32, 2));
        high.priority = Priority::High;
        s.submit(SimTime::ZERO, low).unwrap();
        s.submit(SimTime::ZERO, high).unwrap();
        let fins = s.drain();
        let order: Vec<u64> = fins.iter().map(|f| f.id).collect();
        assert_eq!(order, vec![0, 2, 1], "High overtakes Low: {order:?}");
    }

    #[test]
    fn backplane_accounts_payload_and_result_bytes() {
        let mut s = shard(2, 64);
        let mut moved = 0u64;
        for i in 0..6u64 {
            let spec = JobSpec::volume(64, i);
            moved += spec.payload_bytes() + spec.result_bytes();
            s.submit(SimTime::ZERO, job(i, spec)).unwrap();
        }
        s.drain();
        let total: u64 = (0..2)
            .map(|b| s.backplane().slot_stats(2 * b).bytes_moved)
            .sum();
        assert_eq!(total, moved, "every byte crosses the AAB exactly once");
        assert!(s.backplane().slot_stats(0).busy > SimDuration::ZERO);
    }

    fn fabric_shard(fabric: FabricKind) -> ShardScheduler {
        let cache = Arc::new(BitstreamCache::new(fabric.device()));
        cache.prefit_all().expect("designs fit both families");
        ShardScheduler::new(
            ShardConfig {
                boards: 1,
                fabric,
                ..ShardConfig::default()
            },
            cache,
        )
        .expect("boards > 0")
    }

    #[test]
    fn virtex_fabric_executes_faster_with_identical_checksums() {
        let run = |fabric| {
            let mut s = fabric_shard(fabric);
            for i in 0..8u64 {
                s.submit(SimTime::ZERO, job(i, JobSpec::mixed(i))).unwrap();
            }
            let mut fins = s.drain();
            fins.sort_by_key(|f| f.id);
            (fins, s.stats().clone())
        };
        let (orca, so) = run(FabricKind::Orca);
        let (virtex, sv) = run(FabricKind::Virtex);
        for (o, v) in orca.iter().zip(&virtex) {
            assert_eq!(o.checksum, v.checksum, "fabric never changes results");
            assert_eq!(v.execute, FabricKind::Virtex.scale_execute(o.execute));
            assert!(v.execute < o.execute);
        }
        assert!(sv.execute_time < so.execute_time);
        // The other side of the trade: the paired-Virtex board streams a
        // bigger configuration, so design switches cost more there.
        assert!(
            FabricKind::Virtex.device().full_config_time()
                > FabricKind::Orca.device().full_config_time()
        );
    }

    #[test]
    fn stolen_jobs_keep_their_admission_instant_and_wait_for_data() {
        let mut donor = shard(1, 64);
        let mut thief = shard(1, 64);
        let submitted = SimTime::ZERO;
        // Occupy the donor's board, then queue four more of one kind.
        for i in 0..5u64 {
            donor.submit(submitted, job(i, JobSpec::trt(i))).unwrap();
        }
        assert_eq!(donor.queue_depth(), 4);
        let (n, bytes) = donor.queued_backlog(JobKind::TrtEvent, 8);
        assert_eq!(n, 4);
        assert!(bytes > 0);
        assert_eq!(donor.dominant_queued_kind(), Some(JobKind::TrtEvent));

        let now = SimTime::ZERO + SimDuration::from_micros(3);
        let stolen = donor.steal_queued(JobKind::TrtEvent, 2);
        assert_eq!(stolen.len(), 2);
        assert_eq!(donor.queue_depth(), 2);
        let ready = now + SimDuration::from_millis(1);
        for s in stolen {
            assert_eq!(s.submitted, submitted, "donor-queue wait keeps counting");
            assert!(thief.submit_stolen(now, s, ready));
        }
        let fins = thief.drain();
        assert_eq!(fins.len(), 2);
        for f in &fins {
            assert_eq!(f.submitted, submitted);
            assert_eq!(f.done.since(f.started), f.service());
        }
        // The first board start precedes the payload landing: the stall
        // is charged as DMA, and the service identity still holds.
        assert!(fins[0].started < ready);
        assert!(fins[0].dma >= ready.since(fins[0].started));
        // The thief never counts a stolen job as its own admission.
        assert_eq!(thief.stats().submitted, 0);
        assert_eq!(thief.stats().completed, 2);
        assert_eq!(donor.drain().len(), 3);
    }

    #[test]
    fn switch_cost_estimate_calibrates_from_measurement() {
        let mut s = shard(1, 64);
        // Uncalibrated: fall back to a full configuration of the fabric.
        assert_eq!(
            s.mean_switch_cost(),
            Device::orca_3t125().full_config_time()
        );
        for i in 0..6u64 {
            s.submit(SimTime::ZERO, job(i, JobSpec::mixed(i))).unwrap();
        }
        s.drain();
        let st = s.stats();
        let switches = st.full_loads + st.partial_switches;
        assert!(switches > 0);
        assert_eq!(s.mean_switch_cost(), st.reconfig_time / switches);
    }

    #[test]
    fn hop_transfers_serialize_on_the_reserved_connection() {
        let mut s = shard(2, 64);
        let bytes = 1 << 20;
        let cost = s.hop_cost(bytes);
        assert!(cost > SimDuration::ZERO);
        let a = s.hop_transfer(SimTime::ZERO, bytes);
        let b = s.hop_transfer(SimTime::ZERO, bytes);
        assert!(b >= a + cost, "back-to-back hops queue on the link");
        // The hop link never collides with board-pair DMA slots.
        for i in 0..4u64 {
            s.submit(SimTime::ZERO, job(i, JobSpec::volume(32, i)))
                .unwrap();
        }
        s.drain();
        assert_eq!(s.backplane().slot_stats(2 * 2).bytes_moved, 2 * bytes);
    }
}
