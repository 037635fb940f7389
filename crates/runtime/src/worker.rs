//! Per-device worker: one OS thread owning one ACB.
//!
//! A worker pops jobs from the shared admission queue and serves them
//! on its board through one three-stage software pipeline. While job
//! *N* executes in the FPGA matrix, job *N+1*'s payload streams in on
//! DMA channel 0 (through the real PLX9080/PCI model) and job *N−1*'s
//! result streams out on channel 1. The PLX9080's two channels and the
//! bridge FIFOs make the three phases concurrent on the real board, so
//! each pipeline beat occupies the device for the [overlap
//! window](atlantis_pci::OverlapConfig) of the phases — close to the
//! *max*, not the sum. In-flight jobs land in alternating ping/pong
//! halves of rotating job slots so a prefetch never overwrites a
//! payload still being executed.
//!
//! The no-overlap baseline is this same pipeline under
//! [`OverlapConfig::serial`](atlantis_pci::OverlapConfig::serial), whose
//! window is the *sum* of the phases: the device is then busy for every
//! job's DMA, reconfiguration and execute time added up, as if each job
//! were served end to end.
//!
//! The pipeline only ever holds jobs for the design currently loaded:
//! when the next admitted job needs a different design the worker
//! drains in-flight work first (it must execute under the old design),
//! then switches. Reconfiguration-aware batching makes such drains
//! rare. Payload and result staging buffers come from a shared
//! [`BufferPool`], so steady-state serving performs no per-job heap
//! allocation and the driver streams directly in and out of the pooled
//! buffers. Every stage's virtual cost is attributed to the job, so the
//! serving layer stays observable per job and per device.

use crate::bufpool::BufferPool;
use crate::cache::BitstreamCache;
use crate::error::RuntimeError;
use crate::guard::{GuardConfig, GuardState};
use crate::job::{JobResult, JobTimings, QueuedJob};
use crate::policy::Fabric;
use crate::queue::{JobQueue, Pop};
use crate::stats::{LatencyHistogram, LogHistogram};
use atlantis_apps::jobs::{JobKind, JobOutcome, JobSpec, WorkloadContext};
use atlantis_board::{Acb, SlotHalf};
use atlantis_core::Coprocessor;
use atlantis_fabric::Device;
use atlantis_pci::{DmaChannel, Driver};
use atlantis_simcore::SimDuration;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Aggregated counters all workers write and `Runtime::stats` reads.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    pub completed: u64,
    pub failed: u64,
    pub per_kind: [u64; 4],
    pub full_loads: u64,
    pub partial_switches: u64,
    pub frames_written: u64,
    pub reconfig_time: SimDuration,
    pub dma_time: SimDuration,
    pub execute_time: SimDuration,
    pub device_busy: Vec<SimDuration>,
    pub latency: LatencyHistogram,
    /// Per-job virtual service time in integer picoseconds — the
    /// deterministic twin of `latency`.
    pub virt_latency: LogHistogram,
    pub pipeline_beats: u64,
    pub pipeline_drains: u64,
    /// `[prefetch DMA-in, execute, writeback DMA-out]`.
    pub stage_time: [SimDuration; 3],
    pub window_time: SimDuration,
    pub overlap_saved: SimDuration,
    /// Execute passes that retired ≥ 2 gathered same-design jobs.
    pub laned_passes: u64,
    /// Execute passes that retired a single job.
    pub scalar_passes: u64,
    /// Jobs retired through laned passes.
    pub laned_jobs: u64,
    /// Workers still serving (quarantine decrements; never below 1).
    pub active_workers: usize,
    pub upsets_injected: u64,
    pub upsets_stealthy: u64,
    pub corrupt_executes: u64,
    pub detected_corruptions: u64,
    pub silent_corruptions: u64,
    pub guard_scrubs: u64,
    pub guard_repairs: u64,
    pub scrub_time: SimDuration,
    pub check_time: SimDuration,
    pub wasted_time: SimDuration,
    pub retries: u64,
    pub faulted: u64,
    pub quarantined_devices: u64,
    pub detection_latency: SimDuration,
    pub detected_upsets: u64,
    /// Per-device accumulation of `ScrubReport` frame totals.
    pub device_scrub_frames: Vec<u64>,
}

impl SharedStats {
    pub fn new(devices: usize) -> Self {
        SharedStats {
            device_busy: vec![SimDuration::ZERO; devices],
            device_scrub_frames: vec![0; devices],
            latency: LatencyHistogram::new(),
            active_workers: devices,
            ..Default::default()
        }
    }
}

/// A job admitted to the pipeline this beat: design already loaded,
/// reconfiguration already paid and accounted, outcome already computed
/// by the (possibly laned) dispatch pass.
struct Admitted {
    job: QueuedJob,
    outcome: JobOutcome,
    reconfig: SimDuration,
    switched: bool,
    queue_wait: Duration,
}

/// A job whose payload is on the board (prefetch stage done), waiting to
/// execute next beat.
struct Staged {
    job: QueuedJob,
    outcome: JobOutcome,
    addr: u64,
    dma_in: SimDuration,
    reconfig: SimDuration,
    switched: bool,
    queue_wait: Duration,
    /// Ground truth: the job executed while the device's configuration
    /// was corrupt and its checksum was perturbed accordingly. Used
    /// only for the `silent_corruptions` counter — the detection
    /// ladder never reads it.
    corrupt: bool,
}

pub(crate) struct Worker {
    pub device_index: usize,
    pub driver: Driver<Acb>,
    pub fabric: Fabric,
    pub ctx: WorkloadContext,
    pub queue: Arc<JobQueue>,
    pub cache: Arc<BitstreamCache>,
    pub shared: Arc<Mutex<SharedStats>>,
    pool: Arc<BufferPool>,
    /// Max same-design jobs one execute pass gathers (1 = no gathering).
    lanes: usize,
    /// Next slot *half* in the ping/pong rotation.
    seq: usize,
    staged: Option<Staged>,
    /// Executed job (result ready in its slot half), awaiting writeback.
    executed: Option<Staged>,
    /// A job popped while gathering that needs a different design; it is
    /// dispatched first on the next loop turn, preserving pop order.
    carry: Option<QueuedJob>,
    /// Reliability policy state (injection/scrub schedules, quarantine).
    guard: GuardState,
    /// This device's virtual busy clock — a local mirror of
    /// `shared.device_busy[device_index]` so the guard schedules read
    /// it without taking the stats lock.
    vclock: SimDuration,
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        device_index: usize,
        driver: Driver<Acb>,
        queue: Arc<JobQueue>,
        cache: Arc<BitstreamCache>,
        shared: Arc<Mutex<SharedStats>>,
        pool: Arc<BufferPool>,
        lanes: usize,
        guard: GuardConfig,
    ) -> Self {
        Worker {
            device_index,
            driver,
            fabric: Fabric::new(Coprocessor::new(Device::orca_3t125())),
            ctx: WorkloadContext::new(),
            queue,
            cache,
            shared,
            pool,
            lanes: lanes.max(1),
            seq: 0,
            staged: None,
            executed: None,
            carry: None,
            guard: GuardState::new(guard, device_index),
            vclock: SimDuration::ZERO,
        }
    }

    fn pipeline_empty(&self) -> bool {
        self.staged.is_none() && self.executed.is_none()
    }

    /// Serve until the queue closes and drains, then exit. Every job
    /// popped before the drain completes is answered — accepted work is
    /// never lost.
    ///
    /// The pop discipline is what makes the pipeline deadlock-free: a
    /// worker only *blocks* on the queue when its pipeline is empty.
    /// While it holds in-flight jobs it polls with `try_pop` and, when
    /// nothing is queued, advances a drain beat instead — so a client
    /// that submitted a single job and is waiting on it never waits on
    /// a successor that will not come.
    pub fn run(mut self) {
        loop {
            // A quarantined device stops taking work; its in-flight
            // jobs are handed back to the queue below.
            if self.guard.quarantined {
                break;
            }
            // A job popped during lane gathering but needing a different
            // design goes first — it was taken from the queue in order.
            if let Some(job) = self.carry.take() {
                self.dispatch(job);
                continue;
            }
            let (loaded, batch_len) = (self.fabric.loaded, self.fabric.batch_len);
            if self.pipeline_empty() {
                match self.queue.pop(loaded, batch_len) {
                    Pop::Job(job) => self.dispatch(job),
                    Pop::Drained => break,
                }
            } else {
                match self.queue.try_pop(loaded, batch_len) {
                    Some(job) => self.dispatch(job),
                    None => self.advance(None),
                }
            }
        }
        if self.guard.quarantined {
            self.evacuate();
        } else {
            self.drain_pipeline();
        }
    }

    /// Serve one popped job. The worker first *gathers* up to `lanes`
    /// queued jobs for the same design and precomputes their outcomes in
    /// one batched pass ([`WorkloadContext::execute_batch`] — bit-exact
    /// with per-job execution), then admits each job to the pipeline
    /// individually so every per-beat virtual-time charge is identical to
    /// `lanes = 1`. Lanes change host wall clock only.
    fn dispatch(&mut self, job: QueuedJob) {
        let batch = self.gather(job);
        let specs: Vec<JobSpec> = batch.iter().map(|j| j.request.spec).collect();
        let outcomes = self.ctx.execute_batch(&specs);
        {
            let mut s = self.shared.lock().unwrap();
            if batch.len() > 1 {
                s.laned_passes += 1;
                s.laned_jobs += batch.len() as u64;
            } else {
                s.scalar_passes += 1;
            }
        }
        for (job, outcome) in batch.into_iter().zip(outcomes) {
            self.admit(job, outcome);
        }
    }

    /// Pull up to `lanes − 1` more queued jobs for `first`'s design. The
    /// pick is driven with the batch length the scheduler *would* see if
    /// the gathered jobs were popped one by one (`base + batch.len()`),
    /// so batching-window and aging decisions match the unlaned run
    /// exactly. A popped job for a different design is stashed in
    /// `carry` and dispatched next turn, preserving pop order.
    fn gather(&mut self, first: QueuedJob) -> Vec<QueuedJob> {
        let mut batch = vec![first];
        if self.lanes <= 1 {
            return batch;
        }
        let kind = batch[0].request.spec.kind;
        let base = if self.fabric.loaded == Some(kind) {
            self.fabric.batch_len
        } else {
            0
        };
        while batch.len() < self.lanes {
            match self.queue.try_pop(Some(kind), base + batch.len()) {
                Some(job) if job.request.spec.kind == kind => batch.push(job),
                Some(job) => {
                    self.carry = Some(job);
                    break;
                }
                None => break,
            }
        }
        batch
    }

    // ---- pipeline --------------------------------------------------------

    /// Admit a job to the pipeline: drain if it needs a design switch
    /// (in-flight jobs must execute under the old design), pay and
    /// account the reconfiguration, then advance one beat with the job
    /// entering the prefetch stage.
    fn admit(&mut self, job: QueuedJob, outcome: JobOutcome) {
        // Queue wait ends at admission: the design-switch drain below
        // is service on this job's behalf, not queueing, so it must
        // not inflate the reported wait.
        let queue_wait = job.submitted.elapsed();
        let spec = job.request.spec;
        if self.fabric.loaded != Some(spec.kind) && !self.pipeline_empty() {
            self.drain_pipeline();
        }

        // Reconfiguration cannot overlap the pipeline (the fabric is
        // being rewritten), so it occupies the device serially.
        let (reconfig, switched) = match self.switch_design(spec.kind) {
            Ok(r) => r,
            Err(e) => {
                self.shared.lock().unwrap().failed += 1;
                let _ = job.reply.send(Err(e));
                return;
            }
        };

        self.advance(Some(Admitted {
            job,
            outcome,
            reconfig,
            switched,
            queue_wait,
        }));
    }

    /// One pipeline beat: write back job *N−1* on channel 1, execute job
    /// *N*, prefetch job *N+1* on channel 0 — then charge the device the
    /// overlap window of the three phase times, not their sum.
    fn advance(&mut self, new: Option<Admitted>) {
        // Deliver any SEU arrivals the device's virtual clock has
        // reached — this beat then executes on whatever configuration
        // (clean or corrupt) the campaign left behind.
        self.guard_inject();

        let mut t_in = SimDuration::ZERO;
        let mut t_exec = SimDuration::ZERO;
        let mut t_out = SimDuration::ZERO;

        // Writeback stage (DMA channel 1). The readback bytes are
        // discarded after landing in the pooled buffer: the checksum is
        // computed by the deterministic execution model, and the buffer
        // returns to the pool when it drops.
        let finishing = self.executed.take();
        if let Some(ex) = finishing.as_ref() {
            let len = ex.job.request.spec.result_bytes() as usize;
            let mut out = self.pool.checkout(len);
            t_out = self
                .driver
                .dma_read_into_on(DmaChannel::Ch1, ex.addr, &mut out);
        }

        // Execute stage. The outcome was precomputed by the (possibly
        // laned) dispatch pass; the virtual execute charge is the job's
        // own compute time either way. Executing on a corrupt
        // configuration perturbs the result deterministically — the
        // corruption model the detection ladder is measured against.
        let mut corrupted_now = false;
        if let Some(mut st) = self.staged.take() {
            t_exec = st.outcome.compute;
            if self.guard.is_active() && !self.fabric.coproc.fpga().pending_upsets().is_empty() {
                st.outcome.checksum ^= self.fabric.coproc.fpga().upset_digest();
                st.corrupt = true;
                corrupted_now = true;
            }
            self.executed = Some(st);
        }

        // Prefetch stage (DMA channel 0) into the next free slot half.
        if let Some(ad) = new {
            let spec = ad.job.request.spec;
            let addr = self.next_half_addr();
            let mut payload = self.pool.checkout(spec.payload_bytes() as usize);
            payload.fill((spec.seed as u8) ^ 0x5A);
            t_in = self
                .driver
                .dma_write_from_on(DmaChannel::Ch0, addr, &payload);
            self.staged = Some(Staged {
                job: ad.job,
                outcome: ad.outcome,
                addr,
                dma_in: t_in,
                reconfig: ad.reconfig,
                switched: ad.switched,
                queue_wait: ad.queue_wait,
                corrupt: false,
            });
        }

        // The per-stage times above are authoritative; drop the driver's
        // serial accumulation of the two DMA calls.
        self.driver.take_elapsed();

        let serial = t_in + t_exec + t_out;
        let window = self.driver.overlap_window([t_in, t_exec, t_out]);
        {
            let mut s = self.shared.lock().unwrap();
            s.pipeline_beats += 1;
            s.stage_time[0] += t_in;
            s.stage_time[1] += t_exec;
            s.stage_time[2] += t_out;
            s.window_time += window;
            s.overlap_saved += serial - window;
            s.device_busy[self.device_index] += window;
            s.dma_time += t_in + t_out;
            s.execute_time += t_exec;
            if corrupted_now {
                s.corrupt_executes += 1;
            }
        }
        self.vclock += window;

        // Run the detection ladder; when any detector fires, every
        // in-flight result on this device is suspect — the finishing
        // job is retried instead of completed.
        let dirty = self.guard_post();
        if let Some(ex) = finishing {
            if dirty {
                {
                    let mut s = self.shared.lock().unwrap();
                    s.detected_corruptions += 1;
                    s.wasted_time += ex.dma_in + ex.outcome.compute;
                }
                self.requeue_or_fail(ex.job);
            } else {
                self.complete(ex, t_out);
            }
        }
    }

    /// Flush every in-flight job (at most two drain beats). Called
    /// before a design switch and at shutdown.
    fn drain_pipeline(&mut self) {
        if self.pipeline_empty() {
            return;
        }
        while !self.pipeline_empty() {
            self.advance(None);
        }
        self.shared.lock().unwrap().pipeline_drains += 1;
    }

    /// The next slot half in the ping/pong rotation. With `slots ≥ 2`
    /// whole slots the rotation spans ≥ 4 halves, so the three in-flight
    /// stages always address three distinct halves — a prefetch can
    /// never overwrite a payload that is still executing or a result
    /// still awaiting writeback.
    fn next_half_addr(&mut self) -> u64 {
        let halves = self.driver.target().job_slots() * 2;
        let idx = self.seq % halves;
        self.seq = (self.seq + 1) % halves;
        let half = if idx.is_multiple_of(2) {
            SlotHalf::Ping
        } else {
            SlotHalf::Pong
        };
        self.driver
            .target()
            .job_slot_half_addr(idx / 2, half)
            .expect("slot index in range")
    }

    /// Answer a job whose writeback just finished.
    fn complete(&mut self, st: Staged, dma_out: SimDuration) {
        let spec = st.job.request.spec;
        let timings = JobTimings {
            device: self.device_index,
            queue_wait: st.queue_wait,
            wall: st.job.submitted.elapsed(),
            dma: st.dma_in + dma_out,
            reconfig: st.reconfig,
            execute: st.outcome.compute,
            switched: st.switched,
        };
        let result = JobResult {
            id: st.job.id,
            client: st.job.request.client,
            spec,
            checksum: st.outcome.checksum,
            cycles: st.outcome.cycles,
            timings,
        };
        {
            let mut s = self.shared.lock().unwrap();
            s.completed += 1;
            s.per_kind[spec.kind.index()] += 1;
            s.latency.record(timings.wall);
            s.virt_latency.record_virtual(timings.total_virtual());
            // Ground truth the policy failed to catch: a corrupt result
            // reached the client.
            if st.corrupt {
                s.silent_corruptions += 1;
            }
        }
        // Service time excludes queue wait: the retry-after estimate
        // must reflect drain rate, not current congestion.
        self.queue
            .note_service(timings.wall.saturating_sub(st.queue_wait));
        // A client that dropped its handle just doesn't read the result.
        let _ = st.job.reply.send(Ok(result));
    }

    // ---- reconfiguration -------------------------------------------------

    /// Switch the device to `kind`'s design ([`Fabric::switch`]), fold the
    /// task-stats delta into the shared counters and bill the
    /// reconfiguration to the device. Returns the reconfiguration time
    /// and whether a switch actually happened.
    fn switch_design(&mut self, kind: JobKind) -> Result<(SimDuration, bool), RuntimeError> {
        let sw = self.fabric.switch(&self.cache, kind)?;
        if sw.switched {
            // A (partial) reconfiguration rewrites every differing and
            // corrupted frame, healing pending upsets as a side effect;
            // mirror the fabric tracker, which the config port cleared.
            self.guard.pending.clear();
        }
        {
            let mut s = self.shared.lock().unwrap();
            s.full_loads += sw.delta.full_loads;
            s.partial_switches += sw.delta.partial_switches;
            s.frames_written += sw.delta.frames_written;
            s.reconfig_time += sw.delta.reconfig_time;
            s.device_busy[self.device_index] += sw.reconfig;
        }
        self.vclock += sw.reconfig;
        Ok((sw.reconfig, sw.switched))
    }

    // ---- reliability (atlantis-guard) ----------------------------------

    /// Deliver every SEU whose scheduled arrival the device's virtual
    /// clock has passed. Arrivals are a seeded Poisson process over
    /// virtual busy time, so a fixed seed replays the same campaign
    /// regardless of host scheduling. An upset striking an
    /// unconfigured device flips nothing the machine will ever read;
    /// the draws still advance, keeping the arrival stream independent
    /// of configuration state.
    fn guard_inject(&mut self) {
        if self.guard.cfg.upset_rate <= 0.0 {
            return;
        }
        while let Some(t) = self.guard.next_upset {
            if t > self.vclock {
                break;
            }
            self.guard.schedule_next_upset();
            let stealthy = self.guard.rng.chance(self.guard.cfg.stealth_fraction);
            let dev = self.fabric.coproc.fpga().device();
            let (frames, bytes) = (dev.config_frames as u64, dev.frame_bytes as u64);
            let frame = self.guard.rng.below(frames) as u32;
            let byte = self.guard.rng.below(bytes) as u32;
            let bit = self.guard.rng.below(8) as u8;
            let hit = if stealthy {
                self.fabric
                    .coproc
                    .fpga_mut()
                    .inject_upset_stealthy(frame, byte, bit)
            } else {
                self.fabric.coproc.fpga_mut().inject_upset(frame, byte, bit)
            };
            if hit.is_ok() {
                self.guard.pending.push((t, stealthy));
                let mut s = self.shared.lock().unwrap();
                s.upsets_injected += 1;
                if stealthy {
                    s.upsets_stealthy += 1;
                }
            }
        }
    }

    /// Post-beat reliability work: run the detection ladder; when it flags the just-executed job, requeue
    /// it for a clean re-execution. Returns whether any detector found
    /// corruption this beat (the caller then also discards the
    /// finishing job — a detection invalidates every in-flight result).
    fn guard_post(&mut self) -> bool {
        if !self.guard.is_active() {
            return false;
        }
        self.guard.beats += 1;
        let executed = self
            .executed
            .as_ref()
            .map(|ex| (ex.job.request.spec, ex.outcome.checksum));
        let (dirty, suspect) = self.guard_scan(executed);
        if suspect {
            if let Some(ex) = self.executed.take() {
                {
                    let mut s = self.shared.lock().unwrap();
                    s.detected_corruptions += 1;
                    s.wasted_time += ex.dma_in + ex.outcome.compute;
                }
                self.requeue_or_fail(ex.job);
            }
        }
        dirty
    }

    /// The detection ladder, cheapest first: (a) host re-execution
    /// vote — the RISC half recomputes the job through the
    /// deterministic software model, the only detector that sees
    /// CRC-stealthy corruption without a full read-back; (b) the
    /// configuration port's frame-CRC scan; (c) the periodic deep
    /// scrub against the golden image. Anything found triggers a
    /// targeted frame repair, escalating to a full scrub when a
    /// stealthy remainder survives, and advances the quarantine
    /// counter. Every check and repair is charged to the device in
    /// virtual time. Returns `(dirty, suspect)`: whether the device
    /// was found corrupted, and whether the job in `executed` is
    /// implicated.
    fn guard_scan(&mut self, executed: Option<(JobSpec, u64)>) -> (bool, bool) {
        let cfg = self.guard.cfg;
        let mut check_cost = SimDuration::ZERO;
        let mut scrub_cost = SimDuration::ZERO;
        let mut dirty = false;
        let mut suspect = false;
        let mut checked = false;
        let mut scrubs = 0u64;
        let mut repairs = 0u64;
        let mut frames = 0u64;

        // (a) Re-execution vote.
        if let Some((spec, checksum)) = executed {
            if cfg.vote_every > 0 {
                self.guard.jobs_since_vote += 1;
                if self.guard.jobs_since_vote >= cfg.vote_every {
                    self.guard.jobs_since_vote = 0;
                    checked = true;
                    let (ok, cost) = self.ctx.self_check(&spec, checksum);
                    check_cost += cost;
                    if !ok {
                        dirty = true;
                        suspect = true;
                    }
                }
            }
        }

        // (b) Frame-CRC scan (fails harmlessly on an unconfigured
        // device — there is nothing to corrupt there either).
        if cfg.crc_every > 0 && self.guard.beats.is_multiple_of(cfg.crc_every) {
            if let Ok(c) = self.fabric.coproc.crc_check() {
                checked = true;
                check_cost += c.time;
                if c.stale_frames > 0 {
                    dirty = true;
                    suspect = executed.is_some();
                }
            }
        }

        // (c) Periodic deep scrub.
        if let Some(t) = self.guard.next_scrub {
            if self.vclock + check_cost >= t {
                self.guard.next_scrub = Some(self.vclock + check_cost + cfg.scrub_interval);
                if let Ok(r) = self.fabric.coproc.scrub() {
                    checked = true;
                    scrub_cost += r.time;
                    scrubs += 1;
                    frames += r.frames_repaired as u64;
                    if r.frames_repaired > 0 {
                        dirty = true;
                        suspect = executed.is_some();
                    }
                }
            }
        }

        // Repair: rewrite the frames the CRC scan can identify; a
        // stealthy remainder needs the full golden-image scrub.
        if dirty {
            if !self.fabric.coproc.fpga().pending_upsets().is_empty() {
                if let Ok(r) = self.fabric.coproc.repair_upsets() {
                    scrub_cost += r.time;
                    repairs += 1;
                    frames += r.frames_repaired as u64;
                }
            }
            if !self.fabric.coproc.fpga().pending_upsets().is_empty() {
                if let Ok(r) = self.fabric.coproc.scrub() {
                    scrub_cost += r.time;
                    scrubs += 1;
                    frames += r.frames_repaired as u64;
                }
            }
            self.guard.consecutive_dirty += 1;
        } else if checked {
            self.guard.consecutive_dirty = 0;
        }

        // Detection-latency accounting: after the repairs above the
        // fabric tracker is clean, so everything the guard knew was
        // pending has just been detected and repaired.
        let now = self.vclock + check_cost + scrub_cost;
        let mut settled = 0u64;
        let mut latency = SimDuration::ZERO;
        if dirty && self.fabric.coproc.fpga().pending_upsets().is_empty() {
            for (arrival, _) in self.guard.pending.drain(..) {
                latency += now.saturating_sub(arrival);
                settled += 1;
            }
        }

        // Quarantine: repeated dirty events mean the board keeps
        // re-corrupting faster than it can serve — stop feeding it
        // work. Never the last active device, and not during shutdown
        // (the drain must finish somewhere).
        let wants_quarantine = cfg.quarantine_after > 0
            && self.guard.consecutive_dirty >= cfg.quarantine_after
            && !self.queue.is_closed();

        self.vclock = now;
        {
            let mut s = self.shared.lock().unwrap();
            s.check_time += check_cost;
            s.scrub_time += scrub_cost;
            s.guard_scrubs += scrubs;
            s.guard_repairs += repairs;
            s.device_scrub_frames[self.device_index] += frames;
            s.device_busy[self.device_index] += check_cost + scrub_cost;
            s.detection_latency += latency;
            s.detected_upsets += settled;
            if wants_quarantine && s.active_workers > 1 {
                s.active_workers -= 1;
                s.quarantined_devices += 1;
                self.guard.quarantined = true;
                self.guard.consecutive_dirty = 0;
            }
        }
        (dirty, suspect)
    }

    /// Hand a suspect job back for a clean re-execution, honouring the
    /// bounded retry budget, or answer it with
    /// [`RuntimeError::Faulted`] when the budget is exhausted. The
    /// configured backoff is charged to this device.
    fn requeue_or_fail(&mut self, mut job: QueuedJob) {
        job.retries += 1;
        if job.retries > self.guard.cfg.max_retries {
            {
                let mut s = self.shared.lock().unwrap();
                s.failed += 1;
                s.faulted += 1;
            }
            let _ = job.reply.send(Err(RuntimeError::Faulted {
                retries: job.retries - 1,
            }));
            return;
        }
        let backoff = self.guard.cfg.retry_backoff;
        self.vclock += backoff;
        {
            let mut s = self.shared.lock().unwrap();
            s.retries += 1;
            s.device_busy[self.device_index] += backoff;
            s.wasted_time += backoff;
        }
        self.queue.requeue(job);
    }

    /// Quarantine exit: hand every in-flight job back to the queue so
    /// healthy devices serve it. In-flight work on a board that just
    /// failed repeated integrity checks is suspect by definition.
    fn evacuate(&mut self) {
        let jobs = [
            self.executed.take().map(|e| e.job),
            self.staged.take().map(|s| s.job),
            self.carry.take(),
        ];
        for job in jobs.into_iter().flatten() {
            self.requeue_or_fail(job);
        }
    }
}
