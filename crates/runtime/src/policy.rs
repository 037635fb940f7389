//! The scheduling policy both serving engines share.
//!
//! The threaded [`Runtime`](crate::Runtime) and the virtual-time
//! [`ShardScheduler`](crate::ShardScheduler) make the same two decisions,
//! and both make them here:
//!
//! * [`pick`] — which queued job a board serves next: the urgent-most
//!   non-empty priority class; within it, the first job for the board's
//!   loaded design inside the scan window, unless the batch window has
//!   closed or the class head has aged out. Entries passed over age by
//!   one skip each, which bounds starvation.
//! * [`Fabric::switch`] — the hardware task switch serving that job
//!   needs: install the cached fit on first use, switch by (partial)
//!   reconfiguration, report the task-stats delta, and advance the
//!   same-design batch counter the pick's window watches.

use crate::cache::BitstreamCache;
use crate::error::RuntimeError;
use crate::job::Priority;
use atlantis_apps::jobs::JobKind;
use atlantis_core::coprocessor::{TaskError, TaskStats};
use atlantis_core::Coprocessor;
use atlantis_simcore::SimDuration;
use std::collections::VecDeque;

/// The scheduling policy workers follow — how a board picks its next
/// job from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict arrival order within each priority class. Every change of
    /// workload kind pays a reconfiguration.
    Fifo,
    /// Prefer jobs for the design already loaded on the device, looking
    /// at most `scan_depth` entries into the queue, for at most
    /// `batch_window` consecutive jobs (and never past a job that has
    /// already been skipped `aging_limit` times). Amortises configuration
    /// cost across batches — the paper's hardware-task-switch economics.
    ReconfigAware {
        /// Max consecutive same-design jobs before the device must take
        /// the queue head regardless of design.
        batch_window: usize,
        /// Prefer a job for the loaded design within this many entries
        /// of the head of the urgent-most non-empty class.
        scan_depth: usize,
        /// A job skipped this many times must be taken next regardless
        /// of the loaded design (starvation bound).
        aging_limit: u32,
    },
}

impl Default for SchedPolicy {
    /// The shipped pick of both engines: a batch window of 32, a scan
    /// depth of 64 and an aging limit of 8.
    fn default() -> Self {
        SchedPolicy::ReconfigAware {
            batch_window: 32,
            scan_depth: 64,
            aging_limit: 8,
        }
    }
}

/// A queue entry the pick can inspect and age.
pub(crate) trait Queued {
    /// The workload kind — and so the design — the entry needs.
    fn kind(&self) -> JobKind;
    /// How many times a later same-design job was batched past this entry.
    fn skips(&mut self) -> &mut u32;
}

/// Take the next entry for a board holding `loaded` that has served
/// `batch_len` consecutive jobs of it (see the module docs). `None` only
/// when every class is empty.
pub(crate) fn pick<E: Queued>(
    classes: &mut [VecDeque<E>; Priority::CLASSES],
    policy: SchedPolicy,
    loaded: Option<JobKind>,
    batch_len: usize,
) -> Option<E> {
    let class = classes.iter_mut().find(|c| !c.is_empty())?;
    if let (
        SchedPolicy::ReconfigAware {
            batch_window,
            scan_depth,
            aging_limit,
        },
        Some(kind),
    ) = (policy, loaded)
    {
        let head_aged = class.front_mut().is_some_and(|e| *e.skips() >= aging_limit);
        if batch_len < batch_window && !head_aged {
            let j = class.iter().take(scan_depth).position(|e| e.kind() == kind);
            if let Some(j) = j {
                for e in class.iter_mut().take(j) {
                    *e.skips() += 1;
                }
                return class.remove(j);
            }
        }
    }
    class.pop_front()
}

/// One board's reconfigurable fabric as the scheduler sees it: the
/// coprocessor, the design it holds, and how long that design has been
/// batching.
#[derive(Debug)]
pub(crate) struct Fabric {
    pub coproc: Coprocessor,
    /// The design on the fabric (mirrors `coproc.current_task()`).
    pub loaded: Option<JobKind>,
    /// Consecutive jobs served on the loaded design — the batch window's
    /// counter.
    pub batch_len: usize,
}

/// What one [`Fabric::switch`] cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Switch {
    /// Virtual reconfiguration time (zero when the design was loaded).
    pub reconfig: SimDuration,
    /// Whether the fabric was rewritten.
    pub switched: bool,
    /// The coprocessor's task-stats delta across the switch.
    pub delta: TaskStats,
}

impl Fabric {
    /// An unconfigured fabric.
    pub fn new(coproc: Coprocessor) -> Self {
        Fabric {
            coproc,
            loaded: None,
            batch_len: 0,
        }
    }

    /// Switch to `kind`'s design, installing the shared cached fit into
    /// the task library on first use. A switch restarts the batch
    /// counter at 1; serving the loaded design again extends it.
    pub fn switch(
        &mut self,
        cache: &BitstreamCache,
        kind: JobKind,
    ) -> Result<Switch, RuntimeError> {
        let name = kind.design_name();
        if !self.coproc.has_task(name) {
            let fitted = cache
                .get(kind)
                .map_err(|e| RuntimeError::Task(TaskError::Fit(e)))?;
            self.coproc.register_fitted(name, fitted)?;
        }
        let before = self.coproc.stats();
        let reconfig = self.coproc.switch_to(name)?;
        let after = self.coproc.stats();
        let switched = reconfig > SimDuration::ZERO;
        self.loaded = Some(kind);
        self.batch_len = if switched { 1 } else { self.batch_len + 1 };
        Ok(Switch {
            reconfig,
            switched,
            delta: TaskStats {
                full_loads: after.full_loads - before.full_loads,
                partial_switches: after.partial_switches - before.partial_switches,
                frames_written: after.frames_written - before.frames_written,
                reconfig_time: after.reconfig_time - before.reconfig_time,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlantis_fabric::Device;

    const T: JobKind = JobKind::TrtEvent;
    const V: JobKind = JobKind::VolumeFrame;
    const I: JobKind = JobKind::ImageFilter;

    #[derive(Debug)]
    struct Entry {
        id: u32,
        kind: JobKind,
        skips: u32,
    }

    impl Queued for Entry {
        fn kind(&self) -> JobKind {
            self.kind
        }
        fn skips(&mut self) -> &mut u32 {
            &mut self.skips
        }
    }

    /// `(id, kind, skips)` entries per class, most urgent first.
    type Queue = [&'static [(u32, JobKind, u32)]; Priority::CLASSES];

    const AWARE: SchedPolicy = SchedPolicy::ReconfigAware {
        batch_window: 2,
        scan_depth: 4,
        aging_limit: 3,
    };

    struct Case {
        name: &'static str,
        queue: Queue,
        policy: SchedPolicy,
        loaded: Option<JobKind>,
        batch_len: usize,
        /// The id the pick must return.
        want: Option<u32>,
        /// `(id, skips)` of every entry left behind, in queue order.
        left: &'static [(u32, u32)],
    }

    #[test]
    fn pick_table() {
        let cases = [
            Case {
                name: "urgent-most class wins over a loaded-design match",
                queue: [&[(1, T, 0)], &[(2, V, 0)], &[]],
                policy: AWARE,
                loaded: Some(V),
                batch_len: 0,
                want: Some(1),
                left: &[(2, 0)],
            },
            Case {
                name: "loaded design preferred within scan depth; skipped entries age",
                queue: [
                    &[],
                    &[(1, T, 0), (2, I, 1), (3, V, 0), (4, V, 0)],
                    &[(5, V, 0)],
                ],
                policy: AWARE,
                loaded: Some(V),
                batch_len: 1,
                want: Some(3),
                left: &[(1, 1), (2, 2), (4, 0), (5, 0)],
            },
            Case {
                name: "a match beyond scan depth is not seen",
                queue: [
                    &[],
                    &[(1, T, 0), (2, T, 0), (3, T, 0), (4, T, 0), (5, V, 0)],
                    &[],
                ],
                policy: AWARE,
                loaded: Some(V),
                batch_len: 0,
                want: Some(1),
                left: &[(2, 0), (3, 0), (4, 0), (5, 0)],
            },
            Case {
                name: "batch window closed: the head, nothing ages",
                queue: [&[], &[(1, T, 0), (2, V, 0)], &[]],
                policy: AWARE,
                loaded: Some(V),
                batch_len: 2,
                want: Some(1),
                left: &[(2, 0)],
            },
            Case {
                name: "FIFO never prefers",
                queue: [&[], &[(1, T, 0), (2, V, 0)], &[]],
                policy: SchedPolicy::Fifo,
                loaded: Some(V),
                batch_len: 0,
                want: Some(1),
                left: &[(2, 0)],
            },
            Case {
                name: "an aged head is taken",
                queue: [&[], &[(1, T, 3), (2, V, 0)], &[]],
                policy: AWARE,
                loaded: Some(V),
                batch_len: 0,
                want: Some(1),
                left: &[(2, 0)],
            },
            Case {
                name: "an unconfigured board takes the head",
                queue: [&[], &[(1, T, 0), (2, V, 0)], &[]],
                policy: AWARE,
                loaded: None,
                batch_len: 0,
                want: Some(1),
                left: &[(2, 0)],
            },
            Case {
                name: "empty classes return None",
                queue: [&[], &[], &[]],
                policy: AWARE,
                loaded: Some(V),
                batch_len: 0,
                want: None,
                left: &[],
            },
        ];
        for case in cases {
            let mut classes: [VecDeque<Entry>; Priority::CLASSES] = Default::default();
            for (class, entries) in classes.iter_mut().zip(case.queue) {
                class.extend(
                    entries
                        .iter()
                        .map(|&(id, kind, skips)| Entry { id, kind, skips }),
                );
            }
            let got = pick(&mut classes, case.policy, case.loaded, case.batch_len);
            assert_eq!(got.map(|e| e.id), case.want, "{}", case.name);
            let left: Vec<(u32, u32)> = classes.iter().flatten().map(|e| (e.id, e.skips)).collect();
            assert_eq!(left, case.left, "{}", case.name);
        }
    }

    #[test]
    fn switch_accounts_loads_and_batches() {
        let cache = BitstreamCache::new(Device::orca_3t125());
        let mut fabric = Fabric::new(Coprocessor::new(Device::orca_3t125()));

        let first = fabric.switch(&cache, T).unwrap();
        assert!(first.switched && first.reconfig > SimDuration::ZERO);
        assert_eq!(first.delta.full_loads, 1);
        assert_eq!(first.delta.reconfig_time, first.reconfig);
        assert_eq!((fabric.loaded, fabric.batch_len), (Some(T), 1));

        let again = fabric.switch(&cache, T).unwrap();
        assert!(!again.switched);
        assert_eq!(again.delta, TaskStats::default());
        assert_eq!(
            fabric.batch_len, 2,
            "serving the loaded design extends the batch"
        );

        let other = fabric.switch(&cache, V).unwrap();
        assert!(other.switched);
        assert_eq!(other.delta.partial_switches, 1);
        assert!(other.delta.frames_written > 0);
        assert_eq!((fabric.loaded, fabric.batch_len), (Some(V), 1));
        assert_eq!(fabric.coproc.current_task(), Some(V.design_name()));
        assert_eq!(cache.counters(), (0, 2), "each design fitted once");
    }
}
