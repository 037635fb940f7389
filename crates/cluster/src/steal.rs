//! Cross-shard work stealing: idle fabric pulls backlog over the AAB.
//!
//! Affinity routing keeps each design's traffic on its home shard — the
//! right call below saturation, and a capacity trap above it: the
//! slowest design family's home fills while faster families' homes
//! idle, capping cluster throughput at `families × boards ×
//! min_k(rate_k)`. The remedy the paper's hardware was built for is to
//! move the *work*, not the traffic: a shard that goes idle with an
//! empty queue pulls queued jobs from the deepest backlog in the fleet.
//!
//! The steal decision is reconfiguration-cost-aware, because
//! configuration latency dominates whether moving work to idle fabric
//! pays off at all (Rissa, Donlin & Luk's SystemC studies make this the
//! central knob). Two cases:
//!
//! * **Warm steal** — the thief has an idle board whose resident
//!   bitstream matches queued donor work. Reconfiguration cost: zero.
//!   The only price is streaming the job payloads across the donor's
//!   backplane hop connection.
//! * **Cold steal** — the thief must accept a design switch. It pays
//!   its own measured mean switch cost (full loads and partial
//!   reconfigurations, self-calibrated from the shard's history) on
//!   top of the transfer.
//!
//! A steal commits only when the donor's backlog, priced at its
//! calibrated service EWMA (queue depth × mean service time), exceeds
//! that cost. Donors are shards at least [`MIN_BACKLOG`] deep — a
//! shallower queue drains faster locally than any transfer completes —
//! and one steal moves at most [`MAX_BATCH`] jobs, enough to amortize a
//! cold switch without stripping the donor bare; both are constants,
//! since no caller ever varied them. A thief that commits a cold steal
//! then sits out further cold steals for an amortization window of
//! several cost-multiples — without it, marginal backlogs make an idle
//! shard thrash between designs, burning its capacity on
//! reconfigurations (warm steals are exempt: they never touch the
//! fabric). Everything runs on the deterministic virtual clock inside
//! [`Cluster::advance`](crate::Cluster::advance), so campaigns with
//! stealing enabled fingerprint byte-identically across replays, and
//! [`StealingPolicy::Off`] leaves the non-stealing path untouched
//! byte-for-byte.

use atlantis_apps::jobs::JobKind;
use atlantis_simcore::{SimDuration, SimTime};

/// Donor queues shallower than this are never stolen from — small
/// backlogs drain faster locally than any transfer completes.
pub const MIN_BACKLOG: usize = 4;

/// Most jobs moved per committed steal. Batching amortizes a cold
/// steal's reconfiguration over several jobs without letting one steal
/// strip a donor bare.
pub const MAX_BATCH: usize = 8;

/// Whether the cluster steals across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealingPolicy {
    /// No stealing: the pre-stealing serving path, byte-for-byte.
    #[default]
    Off,
    /// Steal from donors at least [`MIN_BACKLOG`] deep, at most
    /// [`MAX_BATCH`] jobs per committed steal.
    Enabled,
}

/// Whether a steal rode a resident bitstream or paid for a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealKind {
    /// The thief's idle board already held the design.
    Warm,
    /// The thief accepted a design switch to take the work.
    Cold,
}

/// One committed steal, for observability and the bench ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealPlan {
    /// The virtual instant the steal committed.
    pub at: SimTime,
    /// The idle shard that pulled the work.
    pub thief: usize,
    /// The backlogged shard that gave it up.
    pub donor: usize,
    /// The design family moved.
    pub kind: JobKind,
    /// Warm (resident bitstream) or cold (design switch).
    pub steal: StealKind,
    /// Jobs moved.
    pub jobs: usize,
    /// Payload bytes streamed over the donor's hop connection.
    pub bytes: u64,
    /// The donor's estimated drain time at commit — the benefit side of
    /// the breakeven test.
    pub benefit: SimDuration,
    /// Reconfiguration estimate plus transfer time — the cost side.
    pub cost: SimDuration,
}

/// Deterministic cross-shard stealing counters. Kept separate from
/// [`ClusterStats`](crate::ClusterStats) so a non-stealing cluster's
/// fingerprint is unchanged from the pre-stealing layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Steal scans run (one per drained event batch).
    pub scans: u64,
    /// Thief/donor pairings evaluated against the breakeven test.
    pub attempts: u64,
    /// Pairings rejected because the backlog was worth less than the
    /// reconfiguration plus transfer cost.
    pub below_breakeven: u64,
    /// Committed steals onto a resident bitstream.
    pub warm_steals: u64,
    /// Committed steals that accepted a design switch.
    pub cold_steals: u64,
    /// Jobs moved across shards.
    pub jobs_stolen: u64,
    /// Payload bytes streamed over donors' hop connections.
    pub bytes_moved: u64,
    /// Reconfiguration cost accepted by cold steals (estimate at
    /// commit time).
    pub reconfig_paid: SimDuration,
    /// Queue slots freed on donors (equals `jobs_stolen`; kept as its
    /// own counter so the ledger reads as the backlog it drained).
    pub backlog_drained: u64,
}

impl StealStats {
    /// Committed steals, warm and cold together.
    pub fn committed(&self) -> u64 {
        self.warm_steals + self.cold_steals
    }
}
