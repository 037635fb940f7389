//! Errors of the serving runtime.

use crate::job::Priority;
use atlantis_core::coprocessor::TaskError;
use std::fmt;
use std::time::Duration;

/// Why the runtime refused or failed a request.
#[derive(Debug)]
pub enum RuntimeError {
    /// The bounded admission queue is full — the caller must back off
    /// and retry. This is the graceful-degradation path: under overload
    /// the runtime rejects *new* work instead of growing without bound
    /// or stalling accepted jobs. The rejection carries enough context
    /// for the caller to act on it: how deep the rejecting queue was,
    /// which priority class was refused, and an estimate of when a slot
    /// is likely to free up.
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
        /// Jobs queued at the moment of rejection (≥ `capacity`).
        depth: usize,
        /// The refused job's priority class.
        priority: Priority,
        /// Estimated wall time until the queue drains a slot: the
        /// observed per-job service EWMA × depth ÷ workers. Zero until
        /// the first completion calibrates the estimate — treat it as a
        /// hint, not a guarantee.
        retry_after: Duration,
    },
    /// The runtime is shutting down and accepts no new jobs.
    ShuttingDown,
    /// The system handed to [`Runtime::serve`](crate::Runtime::serve)
    /// has no computing boards.
    NoDevices,
    /// A computing board expected at this index is missing.
    NoSuchDevice(usize),
    /// A per-shard setting names a shard index the fleet does not have.
    NoSuchShard(usize),
    /// The coprocessor rejected a task operation (registration fit,
    /// reconfiguration).
    Task(TaskError),
    /// The job repeatedly executed on devices whose configuration was
    /// later found corrupted and exhausted its retry budget (see
    /// [`GuardConfig::max_retries`](crate::GuardConfig::max_retries)).
    Faulted {
        /// Clean re-execution attempts made before giving up.
        retries: u32,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Overloaded {
                capacity,
                depth,
                priority,
                retry_after,
            } => {
                write!(
                    f,
                    "admission queue full ({depth}/{capacity} jobs, {priority:?} class refused, \
                     retry in ~{retry_after:?})"
                )
            }
            RuntimeError::ShuttingDown => write!(f, "runtime is shutting down"),
            RuntimeError::NoDevices => write!(f, "system has no computing boards"),
            RuntimeError::NoSuchDevice(i) => write!(f, "no ACB at index {i}"),
            RuntimeError::NoSuchShard(i) => write!(f, "no shard at index {i}"),
            RuntimeError::Task(e) => write!(f, "coprocessor: {e}"),
            RuntimeError::Faulted { retries } => {
                write!(f, "job failed integrity checks after {retries} retries")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Task(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TaskError> for RuntimeError {
    fn from(e: TaskError) -> Self {
        RuntimeError::Task(e)
    }
}
