//! The correctness gate: an independent software oracle and the tally
//! of jobs that failed it.

use atlantis_apps::jobs::{JobOutcome, JobSpec, WorkloadContext};

/// `WorkloadContext::execute` on a context of the benchmark's own,
/// memoized per input index so repetitions of one campaign pay for each
/// job once, outside the timed regions.
#[derive(Debug)]
pub struct Oracle {
    ctx: WorkloadContext,
    memo: Vec<Option<JobOutcome>>,
}

impl Oracle {
    /// An oracle for a campaign of `inputs` jobs.
    pub fn new(inputs: usize) -> Self {
        Oracle {
            ctx: WorkloadContext::new(),
            memo: vec![None; inputs],
        }
    }

    /// The reference outcome of input `index`, whose spec is `spec`.
    pub fn outcome(&mut self, index: usize, spec: &JobSpec) -> JobOutcome {
        let ctx = &mut self.ctx;
        *self.memo[index].get_or_insert_with(|| ctx.execute(spec))
    }
}

/// Jobs that failed the gate in one repetition, by cause.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Admitted jobs never answered.
    pub lost: u64,
    /// Answers whose checksum, cycles or echoed spec disagree with the
    /// oracle and the submitted input.
    pub wrong: u64,
    /// Answers for a job already answered, or for an unknown id.
    pub stray: u64,
    /// Jobs answered with an error other than a designed refusal.
    pub errored: u64,
    /// Jobs the system's own counters do not account for.
    pub unaccounted: u64,
}

impl Failures {
    /// Failed jobs in total.
    pub fn total(&self) -> u64 {
        self.lost + self.wrong + self.stray + self.errored + self.unaccounted
    }
}
