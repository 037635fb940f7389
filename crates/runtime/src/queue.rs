//! The bounded, priority-classed admission queue.
//!
//! Capacity is a hard bound: a full queue rejects new submissions with
//! [`RuntimeError::Overloaded`] instead of growing (no OOM under
//! overload) or blocking the submitter (no convoy of stuck clients).
//! Workers block on a condvar while the queue is empty; closing the
//! queue wakes everyone, and popping keeps returning queued jobs until
//! the queue has fully drained — an accepted job is never dropped.

use crate::error::RuntimeError;
use crate::job::{Priority, QueuedJob};
use crate::policy::{self, Queued, SchedPolicy};
use atlantis_apps::jobs::JobKind;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// What a worker's pop returned.
#[derive(Debug)]
pub(crate) enum Pop {
    /// A job to execute.
    Job(QueuedJob),
    /// The queue is closed and empty — the worker should exit.
    Drained,
}

#[derive(Debug)]
struct Entry {
    job: QueuedJob,
    /// How many times a later same-design job was batched past this one.
    skips: u32,
}

impl Queued for Entry {
    fn kind(&self) -> JobKind {
        self.job.request.spec.kind
    }
    fn skips(&mut self) -> &mut u32 {
        &mut self.skips
    }
}

#[derive(Debug, Default)]
struct Inner {
    classes: [VecDeque<Entry>; Priority::CLASSES],
    len: usize,
    closed: bool,
}

#[derive(Debug)]
pub(crate) struct JobQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    capacity: usize,
    /// The pick every pop applies.
    policy: SchedPolicy,
    /// EWMA of per-job wall service time in nanoseconds, updated by
    /// workers on every completion; zero until the first completion.
    /// Feeds the `retry_after` hint in `Overloaded` rejections.
    service_ewma_ns: AtomicU64,
    /// Worker threads draining the queue — the divisor of the
    /// retry-after estimate.
    workers: usize,
}

impl JobQueue {
    pub fn new(capacity: usize, policy: SchedPolicy, workers: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner::default()),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            service_ewma_ns: AtomicU64::new(0),
            workers: workers.max(1),
        }
    }

    /// Fold one completed job's wall service time into the EWMA that
    /// backs the retry-after hint (weight 1/4 on the new sample — quick
    /// to warm up, stable under bursts).
    pub fn note_service(&self, service: Duration) {
        let ns = service.as_nanos().min(u128::from(u64::MAX)) as u64;
        let prev = self.service_ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            ns
        } else {
            prev - prev / 4 + ns / 4
        };
        self.service_ewma_ns.store(next, Ordering::Relaxed);
    }

    /// Estimated wall time until `depth` queued jobs drain one slot.
    fn retry_after(&self, depth: usize) -> Duration {
        let ewma = self.service_ewma_ns.load(Ordering::Relaxed);
        Duration::from_nanos(ewma.saturating_mul(depth as u64) / self.workers as u64)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (excluding in-flight work on the devices).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// Admit a job, or reject it when the bound is reached.
    pub fn push(&self, job: QueuedJob) -> Result<(), RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(RuntimeError::ShuttingDown);
        }
        if inner.len >= self.capacity {
            return Err(RuntimeError::Overloaded {
                capacity: self.capacity,
                depth: inner.len,
                priority: job.request.priority,
                retry_after: self.retry_after(inner.len),
            });
        }
        inner.classes[job.request.priority.index()].push_back(Entry { job, skips: 0 });
        inner.len += 1;
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Stop admissions; queued jobs still drain.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }

    /// Whether admissions have stopped.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Put an accepted job back at the head of its priority class — the
    /// recovery path for work whose execution is suspect after an
    /// integrity event, and for draining a quarantined device's
    /// in-flight jobs to healthy boards. Bypasses the capacity bound
    /// (the job was already admitted) and works while the queue is
    /// closed (accepted work must still be answered).
    pub fn requeue(&self, job: QueuedJob) {
        let mut inner = self.inner.lock().unwrap();
        inner.classes[job.request.priority.index()].push_front(Entry { job, skips: 0 });
        inner.len += 1;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// Block until a job is available (or the queue is closed *and*
    /// empty), picked for a worker holding `loaded` that has served
    /// `batch_len` consecutive jobs of it under the queue's
    /// [`SchedPolicy`] ([`policy::pick`]).
    pub fn pop(&self, loaded: Option<JobKind>, batch_len: usize) -> Pop {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = self.take(&mut inner, loaded, batch_len) {
                return Pop::Job(job);
            }
            if inner.closed {
                return Pop::Drained;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Non-blocking [`JobQueue::pop`]: take a job if one is queued right
    /// now, otherwise return immediately. A pipelined worker holding
    /// in-flight jobs must never block here — blocking with admitted
    /// work in the pipeline would deadlock a client that submitted a
    /// single job and is waiting on its completion.
    pub fn try_pop(&self, loaded: Option<JobKind>, batch_len: usize) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        self.take(&mut inner, loaded, batch_len)
    }

    fn take(
        &self,
        inner: &mut Inner,
        loaded: Option<JobKind>,
        batch_len: usize,
    ) -> Option<QueuedJob> {
        let entry = policy::pick(&mut inner.classes, self.policy, loaded, batch_len)?;
        inner.len -= 1;
        Some(entry.job)
    }
}
