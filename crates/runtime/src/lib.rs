//! atlantis-runtime — a multi-tenant job scheduler for the simulated
//! ATLANTIS machine.
//!
//! The paper's machine (§1–§3) is a farm of reconfigurable coprocessor
//! boards behind a CompactPCI backplane; its economics hinge on
//! *hardware task switching* — swapping the design on an FPGA by
//! partial reconfiguration instead of re-fitting and fully re-loading
//! it. This crate adds the serving layer that exploits that: a job
//! server that accepts heterogeneous requests (TRT trigger events,
//! volume-rendering frames, 2-D image filters, N-body steps) from many
//! concurrent client threads, queues them with priorities under a
//! bounded-capacity admission policy, and schedules them across the
//! system's ACB devices.
//!
//! The scheduler is reconfiguration-aware: each worker tracks the
//! design currently loaded on its FPGA and prefers nearby queued jobs
//! for that design (bounded look-ahead, bounded batch length, bounded
//! skip count — no starvation), so same-design jobs batch and the
//! per-switch configuration cost amortises. Fitted bitstreams are kept
//! in a shared [`BitstreamCache`], so no job ever waits on the fitter
//! after warm-up.
//!
//! Every worker serves through one three-stage pipeline that overlaps
//! the payload DMA, the execution and the result DMA on the PLX9080's
//! two channels (paper §2.1). [`RuntimeConfig::serial`] is the same path
//! with no overlap, the baseline the pipeline is measured against.
//!
//! ```no_run
//! use atlantis_core::AtlantisSystem;
//! use atlantis_runtime::{JobRequest, Runtime, RuntimeConfig};
//! use atlantis_apps::jobs::JobSpec;
//!
//! let system = AtlantisSystem::builder().with_acbs(4).build();
//! let rt = Runtime::serve(system, RuntimeConfig::default()).unwrap();
//! let handle = rt.submit(JobRequest::new(0, JobSpec::trt(42))).unwrap();
//! let result = handle.wait().unwrap();
//! println!("checksum {:016x} in {:?}", result.checksum, result.timings.wall);
//! let stats = rt.shutdown();
//! println!("{} jobs, {:.2} switches/job", stats.completed, stats.switches_per_job());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
mod guard;
mod job;
mod policy;
mod queue;
mod shard;
mod stats;
mod worker;

pub use cache::BitstreamCache;
pub use error::RuntimeError;
pub use guard::GuardConfig;
pub use job::{JobHandle, JobRequest, JobResult, JobTimings, Priority};
pub use policy::SchedPolicy;
pub use shard::{
    FabricKind, ShardCompletion, ShardConfig, ShardJob, ShardReject, ShardScheduler, ShardStats,
    StolenJob,
};
pub use stats::{LatencyHistogram, LogHistogram, RuntimeStats};

use atlantis_core::coprocessor::TaskError;
use atlantis_core::AtlantisSystem;
use atlantis_fabric::Device;
use atlantis_pci::OverlapConfig;
use atlantis_simcore::SimDuration;
use job::QueuedJob;
use queue::JobQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use worker::{Shared, Worker};

/// Tunables for [`Runtime::serve`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Hard bound on queued (not yet running) jobs; submissions beyond
    /// it are rejected with [`RuntimeError::Overloaded`].
    pub queue_capacity: usize,
    /// The scheduling policy: how a worker picks its next job.
    pub policy: SchedPolicy,
    /// Timing model for the pipeline's overlapped phases (prefetch /
    /// execute / writeback on the PLX9080's two DMA channels) — how much
    /// of the non-dominant phases' time local-bus contention serialises.
    /// [`OverlapConfig::serial`] hides nothing: each beat costs the sum
    /// of its phases, the baseline the overlap is measured against.
    pub overlap: OverlapConfig,
    /// Max same-design jobs a worker gathers into one execute pass (`1`
    /// disables gathering). A gathered TRT batch is histogrammed in one
    /// shared traversal of the pattern bank
    /// ([`WorkloadContext::execute_batch`](atlantis_apps::jobs::WorkloadContext::execute_batch),
    /// a software reference model, not the CHDL engine), amortising the
    /// host-side execution cost; other kinds execute job by job.
    /// Virtual-time accounting is unaffected — lanes serialise in
    /// virtual time on the one physical device, so checksums, per-job
    /// timings and every virtual statistic are identical to `lanes = 1`.
    pub lanes: usize,
    /// Reliability policy: fault injection, scrub scheduling, integrity
    /// checks, and the self-healing recovery path. The default,
    /// [`GuardConfig::disabled`], injects nothing and checks nothing —
    /// exactly the pre-guard runtime.
    pub guard: GuardConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            queue_capacity: 256,
            policy: SchedPolicy::default(),
            overlap: OverlapConfig::default(),
            lanes: 8,
            guard: GuardConfig::disabled(),
        }
    }
}

impl RuntimeConfig {
    /// The default configuration but with strict FIFO scheduling — the
    /// baseline the reconfiguration-aware policy is measured against.
    pub fn fifo() -> Self {
        RuntimeConfig {
            policy: SchedPolicy::Fifo,
            ..Self::default()
        }
    }

    /// The default configuration but with no DMA/compute overlap
    /// ([`OverlapConfig::serial`]): every pipeline beat costs the sum of
    /// its phases, so each job is charged as if served end to end — the
    /// baseline the pipeline is measured against.
    pub fn serial() -> Self {
        RuntimeConfig {
            overlap: OverlapConfig::serial(),
            ..Self::default()
        }
    }
}

/// The job server: owns the machine's ACBs (one worker thread each),
/// the admission queue, and the bitstream cache.
#[derive(Debug)]
pub struct Runtime {
    queue: Arc<JobQueue>,
    cache: Arc<BitstreamCache>,
    shared: Arc<Mutex<Shared>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    rejected_by_class: [AtomicU64; 3],
    started: Instant,
    devices: usize,
}

impl Runtime {
    /// Take ownership of `system`'s boards and start serving: one
    /// worker thread per ACB, all workload bitstreams pre-fitted.
    ///
    /// Fails with [`RuntimeError::NoDevices`] when the system has no
    /// ACBs, and propagates fitter errors should a workload design not
    /// fit the device family.
    pub fn serve(mut system: AtlantisSystem, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        // Preflight through the non-panicking accessors before
        // committing to teardown of the system value.
        if system.try_acb(0).is_none() {
            return Err(RuntimeError::NoDevices);
        }
        let (_host, acbs, _aibs) = system.into_boards();
        let devices = acbs.len();

        let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
        cache.prefit_all().map_err(TaskError::Fit)?;

        let queue = Arc::new(JobQueue::new(config.queue_capacity, config.policy, devices));
        let shared = Arc::new(Mutex::new(Shared::new(devices)));

        let mut workers = Vec::with_capacity(devices);
        for (i, mut driver) in acbs.into_iter().enumerate() {
            driver.set_overlap(config.overlap);
            let worker = Worker::new(
                i,
                driver,
                Arc::clone(&queue),
                Arc::clone(&cache),
                Arc::clone(&shared),
                config.lanes,
                config.guard,
            );
            let handle = std::thread::Builder::new()
                .name(format!("atlantis-acb-{i}"))
                .spawn(move || worker.run())
                .expect("spawn worker thread");
            workers.push(handle);
        }

        Ok(Runtime {
            queue,
            cache,
            shared,
            workers,
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rejected_by_class: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            started: Instant::now(),
            devices,
        })
    }

    /// Submit a job. Returns a [`JobHandle`] to await the result, or
    /// [`RuntimeError::Overloaded`] when the admission queue is full —
    /// the backpressure signal; the caller decides whether to retry,
    /// shed, or slow down.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, RuntimeError> {
        let (tx, rx) = mpsc::channel();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let class = request.priority.index();
        let queued = QueuedJob {
            id,
            request,
            submitted: Instant::now(),
            retries: 0,
            reply: tx,
        };
        match self.queue.push(queued) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(JobHandle { id, rx })
            }
            Err(e) => {
                if matches!(e, RuntimeError::Overloaded { .. }) {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    self.rejected_by_class[class].fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Number of ACB devices serving jobs.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The admission queue's capacity bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// A point-in-time snapshot of serving statistics. Cheap enough to
    /// poll from a monitoring thread while the runtime serves.
    pub fn stats(&self) -> RuntimeStats {
        let s = self.shared.lock().unwrap();
        let (cache_hits, cache_misses) = self.cache.counters();
        RuntimeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            rejected_by_class: self
                .rejected_by_class
                .each_ref()
                .map(|n| n.load(Ordering::Relaxed)),
            cache_hits,
            cache_misses,
            virtual_makespan: s
                .device_busy
                .iter()
                .copied()
                .max()
                .unwrap_or(SimDuration::ZERO),
            busy_total: s.device_busy.iter().copied().sum(),
            wall_elapsed: self.started.elapsed(),
            ..s.stats.clone()
        }
    }

    /// Graceful shutdown: stop admissions, drain every accepted job,
    /// join the workers, and return the final statistics. No accepted
    /// job is lost.
    pub fn shutdown(mut self) -> RuntimeStats {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for Runtime {
    /// Dropping the runtime without [`Runtime::shutdown`] still drains
    /// accepted jobs and joins the workers.
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlantis_apps::jobs::JobSpec;

    fn small_system(acbs: usize) -> AtlantisSystem {
        AtlantisSystem::builder().with_acbs(acbs).build()
    }

    #[test]
    fn refuses_a_system_without_acbs() {
        let system = AtlantisSystem::builder().with_acbs(0).with_aibs(1).build();
        match Runtime::serve(system, RuntimeConfig::default()) {
            Err(RuntimeError::NoDevices) => {}
            other => panic!("expected NoDevices, got {other:?}"),
        }
    }

    #[test]
    fn serves_a_mixed_workload_to_completion() {
        let rt = Runtime::serve(small_system(2), RuntimeConfig::default()).unwrap();
        let handles: Vec<_> = (0..24)
            .map(|i| {
                rt.submit(JobRequest::new(i % 3, JobSpec::mixed(u64::from(i))))
                    .unwrap()
            })
            .collect();
        for h in handles {
            let r = h.wait().unwrap();
            assert!(r.timings.total_virtual() > SimDuration::ZERO);
        }
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.per_kind.iter().sum::<u64>(), 24);
        assert!(stats.virtual_makespan > SimDuration::ZERO);
        assert!(stats.latency.count() == 24);
    }

    #[test]
    fn results_are_deterministic_across_policies_and_devices() {
        let specs: Vec<_> = (0..16).map(JobSpec::mixed).collect();
        let run = |config: RuntimeConfig, acbs: usize| -> Vec<(u64, u64)> {
            let rt = Runtime::serve(small_system(acbs), config).unwrap();
            let handles: Vec<_> = specs
                .iter()
                .map(|&s| rt.submit(JobRequest::new(0, s)).unwrap())
                .collect();
            let mut out: Vec<_> = handles
                .into_iter()
                .map(|h| h.wait().unwrap())
                .map(|r| (r.id, r.checksum))
                .collect();
            rt.shutdown();
            out.sort_unstable();
            out
        };
        let fifo = run(RuntimeConfig::fifo(), 1);
        let aware = run(RuntimeConfig::default(), 3);
        assert_eq!(
            fifo, aware,
            "checksums must not depend on policy or device count"
        );
    }

    #[test]
    fn high_priority_jobs_are_tracked_per_kind() {
        let rt = Runtime::serve(small_system(1), RuntimeConfig::default()).unwrap();
        let h = rt
            .submit(JobRequest::new(7, JobSpec::trt(1)).with_priority(Priority::High))
            .unwrap();
        let r = h.wait().unwrap();
        assert_eq!(r.client, 7);
        let stats = rt.shutdown();
        assert_eq!(stats.per_kind[0], 1);
    }

    #[test]
    fn shutdown_then_submit_is_rejected() {
        let rt = Runtime::serve(small_system(1), RuntimeConfig::default()).unwrap();
        let queue = Arc::clone(&rt.queue);
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 0);
        // The queue object itself refuses pushes after close.
        let (tx, _rx) = mpsc::channel();
        let err = queue.push(QueuedJob {
            id: 0,
            request: JobRequest::new(0, JobSpec::trt(0)),
            submitted: Instant::now(),
            retries: 0,
            reply: tx,
        });
        assert!(matches!(err, Err(RuntimeError::ShuttingDown)));
    }
}
