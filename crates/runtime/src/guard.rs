//! Reliability policy for the serving runtime (DESIGN.md §11).
//!
//! The ATLANTIS parts were chosen partly for "support for read-back/
//! test" (paper §2): in the radiation-exposed environments the machine
//! targeted, single-event upsets flip configuration bits and silently
//! corrupt the loaded logic. This module holds the *policy* side of the
//! defence — when to inject (for campaigns), when to scan, when to
//! scrub, when to give up on a device — while `fabric::scrub` provides
//! the mechanisms and the worker wires both into the serving loop.
//!
//! Everything is driven by **virtual device time**: upset arrivals are
//! a Poisson process over the device's busy clock, scrubs recur on a
//! virtual-time interval, and every check or repair is charged to the
//! device exactly like DMA or reconfiguration. With the policy
//! disabled (the default) the worker's hot path is untouched.

use atlantis_simcore::rng::WorkloadRng;
use atlantis_simcore::SimDuration;

/// Reliability policy knobs. [`GuardConfig::disabled`] (the default)
/// turns every mechanism off and leaves the serving path exactly as it
/// was; [`GuardConfig::protected`] is the recommended production
/// posture (per-beat CRC scans, periodic deep scrubs, bounded retries).
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig {
    /// Mean SEU arrivals per device-second of *virtual* busy time
    /// (Poisson). `0.0` disables fault injection.
    pub upset_rate: f64,
    /// Fraction of injected upsets that refresh the frame's stored CRC
    /// — corruption a CRC read-back cannot see, only a golden-image
    /// scrub or a host re-execution vote.
    pub stealth_fraction: f64,
    /// Seed of the injection arrival process. Each device forks an
    /// independent stream, so a fixed seed replays the same campaign.
    pub upset_seed: u64,
    /// Virtual-time interval between periodic deep scrubs (full
    /// read-back against the golden image). `ZERO` disables them.
    pub scrub_interval: SimDuration,
    /// Run the configuration port's cheap frame-CRC scan every `N`
    /// pipeline beats. `0` disables it.
    pub crc_every: u64,
    /// Re-execute every `N`-th job's result on the RISC host and vote
    /// against the FPGA's checksum — the detector of last resort for
    /// CRC-stealthy corruption. `0` disables voting.
    pub vote_every: u64,
    /// How many times a suspect job may be requeued before it fails
    /// with [`RuntimeError::Faulted`](crate::RuntimeError::Faulted).
    pub max_retries: u32,
    /// Virtual backoff charged to the device per suspect-job requeue.
    pub retry_backoff: SimDuration,
    /// Consecutive dirty integrity events after which the device is
    /// quarantined and its work drained to healthy boards. `0`
    /// disables quarantine. The last active device is never
    /// quarantined — someone has to keep serving.
    pub quarantine_after: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl GuardConfig {
    /// Everything off — no injection, no scans, no scrubs, no voting,
    /// no quarantine. The worker hot path is byte-identical to a build
    /// without the guard layer.
    pub fn disabled() -> Self {
        GuardConfig {
            upset_rate: 0.0,
            stealth_fraction: 0.0,
            upset_seed: 0,
            scrub_interval: SimDuration::ZERO,
            crc_every: 0,
            vote_every: 0,
            max_retries: 3,
            retry_backoff: SimDuration::ZERO,
            quarantine_after: 0,
        }
    }

    /// The recommended protective posture: a CRC scan after every beat
    /// (≈ 21 µs on the ORCA 3T125 — cheap next to a job), a deep scrub
    /// every 250 ms of virtual time, three retries with 50 µs backoff,
    /// and quarantine after eight consecutive dirty events. Injection
    /// stays off; campaigns set `upset_rate` explicitly.
    pub fn protected() -> Self {
        GuardConfig {
            scrub_interval: SimDuration::from_millis(250),
            crc_every: 1,
            vote_every: 0,
            max_retries: 3,
            retry_backoff: SimDuration::from_micros(50),
            quarantine_after: 8,
            ..Self::disabled()
        }
    }

    /// Whether any mechanism is on. `false` short-circuits every guard
    /// hook in the worker.
    pub fn is_active(&self) -> bool {
        self.upset_rate > 0.0
            || self.scrub_interval > SimDuration::ZERO
            || self.crc_every > 0
            || self.vote_every > 0
    }
}

/// Per-worker guard state: the arrival/scrub schedules over the
/// device's virtual clock and the detection bookkeeping.
#[derive(Debug)]
pub(crate) struct GuardState {
    pub cfg: GuardConfig,
    pub rng: WorkloadRng,
    /// Virtual device time of the next SEU arrival.
    pub next_upset: Option<SimDuration>,
    /// Virtual device time of the next periodic deep scrub.
    pub next_scrub: Option<SimDuration>,
    /// Injected-but-unrepaired upsets: (arrival time, stealthy).
    /// Mirrors the fabric's tracker for detection-latency accounting.
    pub pending: Vec<(SimDuration, bool)>,
    /// Pipeline beats seen — the CRC scan cadence.
    pub beats: u64,
    /// Jobs since the last re-execution vote.
    pub jobs_since_vote: u64,
    /// Consecutive integrity checks that found corruption.
    pub consecutive_dirty: u32,
    /// Set when this device has been quarantined.
    pub quarantined: bool,
}

impl GuardState {
    pub fn new(cfg: GuardConfig, device_index: usize) -> Self {
        // Stream 0 is the parent's own stream; device forks start at 1.
        let mut rng =
            WorkloadRng::seed_from_u64(cfg.upset_seed ^ 0x5E0_5C4AB).fork(device_index as u64 + 1);
        let next_upset =
            (cfg.upset_rate > 0.0).then(|| SimDuration::from_secs_f64(rng.exp_gap(cfg.upset_rate)));
        let next_scrub = (cfg.scrub_interval > SimDuration::ZERO).then_some(cfg.scrub_interval);
        GuardState {
            cfg,
            rng,
            next_upset,
            next_scrub,
            pending: Vec::new(),
            beats: 0,
            jobs_since_vote: 0,
            consecutive_dirty: 0,
            quarantined: false,
        }
    }

    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Advance the arrival schedule by one exponential gap.
    pub fn schedule_next_upset(&mut self) {
        if let Some(t) = self.next_upset {
            self.next_upset =
                Some(t + SimDuration::from_secs_f64(self.rng.exp_gap(self.cfg.upset_rate)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_inert() {
        let cfg = GuardConfig::default();
        assert!(!cfg.is_active());
        let g = GuardState::new(cfg, 0);
        assert!(g.next_upset.is_none());
        assert!(g.next_scrub.is_none());
    }

    #[test]
    fn protected_config_is_active_without_injection() {
        let cfg = GuardConfig::protected();
        assert!(cfg.is_active());
        assert_eq!(cfg.upset_rate, 0.0);
        assert_eq!(cfg.crc_every, 1);
        assert!(cfg.scrub_interval > SimDuration::ZERO);
    }

    #[test]
    fn arrival_schedule_is_deterministic_and_per_device() {
        let cfg = GuardConfig {
            upset_rate: 1000.0,
            ..GuardConfig::disabled()
        };
        let mut a = GuardState::new(cfg, 0);
        let mut b = GuardState::new(cfg, 0);
        let mut c = GuardState::new(cfg, 1);
        for _ in 0..16 {
            assert_eq!(a.next_upset, b.next_upset, "same device, same stream");
            a.schedule_next_upset();
            b.schedule_next_upset();
            c.schedule_next_upset();
        }
        assert_ne!(
            a.next_upset, c.next_upset,
            "devices draw independent streams"
        );
    }
}
