//! Serving-layer statistics: latency histograms and the runtime-wide
//! snapshot.

use atlantis_simcore::SimDuration;
use std::time::Duration;

/// A unit-agnostic log₂-bucketed histogram over `u64` samples — the one
/// percentile implementation shared by the wall-clock serving histogram,
/// the virtual-latency histogram, and the cluster bench. Fixed memory,
/// lock-friendly, good-enough percentiles (each bucket spans a factor of
/// two; the reported percentile is the bucket's upper bound). Record in
/// whatever unit the caller cares about — the serving layers record
/// *integer virtual picoseconds* so two runs of a deterministic campaign
/// produce byte-identical histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`; bucket 0 also
    /// holds zero samples.
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.max(1).leading_zeros() as usize - 1).min(self.buckets.len() - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Record one virtual duration in integer picoseconds.
    pub fn record_virtual(&mut self, d: SimDuration) {
        self.record(d.as_picos());
    }

    /// Fold another histogram into this one (cluster-level aggregation
    /// over per-shard histograms).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `p`-quantile (`p` in
    /// 0..=1), in the recording unit.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 2f64.powi(i as i32 + 1);
            }
        }
        self.max as f64
    }

    /// The median (`p = 0.5`) bucket bound.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// The `p = 0.95` bucket bound.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// The `p = 0.99` bucket bound — the tail the cluster bench sweeps
    /// for its latency knee.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// A log₂-bucketed histogram of wall-clock latencies in microseconds —
/// [`LogHistogram`] recording `Duration`s as integer µs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    inner: LogHistogram,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.inner.record(us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.inner.mean()
    }

    /// The largest recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.inner.max()
    }

    /// Upper bound of the bucket holding the `p`-quantile (`p` in 0..=1),
    /// in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        self.inner.percentile(p)
    }
}

/// A point-in-time snapshot of the whole runtime.
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs fully served.
    pub completed: u64,
    /// Jobs rejected with `Overloaded`.
    pub rejected: u64,
    /// Rejections per priority class (indexed by
    /// [`Priority::index`](crate::Priority::index)) — the per-class shed
    /// ledger overload tooling reports.
    pub rejected_by_class: [u64; 3],
    /// Accepted jobs that failed inside a worker (coprocessor errors —
    /// zero in any healthy configuration).
    pub failed: u64,
    /// Completed jobs per workload kind (indexed like
    /// [`JobKind::ALL`](atlantis_apps::jobs::JobKind::ALL)).
    pub per_kind: [u64; 4],
    /// Full FPGA configurations across all devices.
    pub full_loads: u64,
    /// Partial-reconfiguration task switches across all devices.
    pub partial_switches: u64,
    /// Configuration frames written across all devices.
    pub frames_written: u64,
    /// Virtual time spent reconfiguring, summed over devices.
    pub reconfig_time: SimDuration,
    /// Virtual time spent on payload/result DMA, summed over devices.
    pub dma_time: SimDuration,
    /// Virtual execution time, summed over devices.
    pub execute_time: SimDuration,
    /// The virtual makespan: the busiest device's total virtual time.
    /// Throughput on the simulated machine is `completed /` this.
    pub virtual_makespan: SimDuration,
    /// Pipeline beats advanced across all devices.
    pub pipeline_beats: u64,
    /// Times a device fully drained its pipeline — before a design
    /// switch (in-flight jobs must execute under the old design) or at
    /// shutdown. Idle beats that happen to empty the pipeline while the
    /// queue is momentarily quiet are not counted.
    pub pipeline_drains: u64,
    /// Virtual time each pipeline stage was busy, summed over beats and
    /// devices: `[prefetch DMA-in, execute, writeback DMA-out]`.
    pub stage_time: [SimDuration; 3],
    /// Virtual time the devices actually occupied while pipelining —
    /// the per-beat overlap window, summed. Compare against the sum of
    /// `stage_time` to see the overlap win.
    pub window_time: SimDuration,
    /// Virtual time hidden by DMA/compute overlap: the difference
    /// between serial stage time and the overlap window, summed. Zero
    /// under `OverlapConfig::serial()` timing.
    pub overlap_saved: SimDuration,
    /// Execute passes that gathered ≥ 2 same-design jobs and executed
    /// them in one batched pass.
    pub laned_passes: u64,
    /// Execute passes that retired a single job.
    pub scalar_passes: u64,
    /// Jobs retired through laned passes.
    pub laned_jobs: u64,
    /// DMA staging-buffer checkouts served by recycling a pooled buffer.
    pub pool_hits: u64,
    /// DMA staging-buffer checkouts that had to allocate. Flat at steady
    /// state — the zero-copy invariant.
    pub pool_misses: u64,
    /// Bitstream-cache hits.
    pub cache_hits: u64,
    /// Bitstream-cache misses (fits actually run).
    pub cache_misses: u64,
    /// End-to-end wall latency histogram (submission → completion).
    pub latency: LatencyHistogram,
    /// Per-job *virtual* service-time histogram in integer picoseconds
    /// (`JobTimings::total_virtual` per completed job) — deterministic
    /// across runs of a fixed-seed campaign, unlike the wall histogram,
    /// so it participates in determinism fingerprints and is the
    /// latency surface the cluster bench shares.
    pub virt_latency: LogHistogram,
    /// Wall time since the runtime started.
    pub wall_elapsed: Duration,
    /// Single-event upsets injected across all devices (fault
    /// campaigns; zero in normal serving).
    pub upsets_injected: u64,
    /// Injected upsets that refreshed the frame's stored CRC —
    /// invisible to a CRC read-back, caught only by deep scrubs or
    /// re-execution voting.
    pub upsets_stealthy: u64,
    /// Ground truth: job executions that ran while their device's
    /// configuration was corrupt. The detection ladder exists to keep
    /// these out of `silent_corruptions`.
    pub corrupt_executes: u64,
    /// In-flight jobs discarded and requeued because a detector fired
    /// while they were in flight. Conservative: a detection discards
    /// every in-flight result, so this can exceed `corrupt_executes`.
    pub detected_corruptions: u64,
    /// Ground truth: corrupt results that reached a client. Zero under
    /// [`GuardConfig::protected`](crate::GuardConfig::protected) with
    /// CRC-visible upsets — the end-to-end reliability guarantee.
    pub silent_corruptions: u64,
    /// Full golden-image scrub passes (periodic deep scrubs plus
    /// anti-stealth scrubs after a vote detection).
    pub guard_scrubs: u64,
    /// Targeted frame repairs after a CRC detection (no full
    /// read-back — the fast repair path).
    pub guard_repairs: u64,
    /// Virtual time spent scrubbing and repairing configurations.
    pub scrub_time: SimDuration,
    /// Virtual time spent on CRC scans and re-execution votes.
    pub check_time: SimDuration,
    /// Virtual time wasted on discarded suspect executions and retry
    /// backoff.
    pub wasted_time: SimDuration,
    /// Suspect-job requeues performed.
    pub retries: u64,
    /// Jobs answered with
    /// [`RuntimeError::Faulted`](crate::RuntimeError::Faulted) after
    /// exhausting the retry budget.
    pub faulted: u64,
    /// Devices quarantined after repeated dirty integrity events.
    pub quarantined_devices: u64,
    /// Summed virtual latency from each upset's arrival to its repair.
    pub detection_latency: SimDuration,
    /// Upsets whose detection latency was measured (repaired via the
    /// detection ladder; upsets healed by a task switch don't count).
    pub detected_upsets: u64,
    /// Configuration frames repaired per device by guard scrubs and
    /// repairs — the per-device accumulation of `ScrubReport` totals.
    pub device_scrub_frames: Vec<u64>,
    /// Total busy virtual time summed over all devices (the
    /// denominator of [`RuntimeStats::availability`]).
    pub busy_total: SimDuration,
}

impl RuntimeStats {
    /// Served jobs per second of *virtual* machine time — the number a
    /// deployment of the real hardware would see, independent of how
    /// fast the host simulates it.
    pub fn virtual_jobs_per_sec(&self) -> f64 {
        let t = self.virtual_makespan.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.completed as f64 / t
        }
    }

    /// Served jobs per second of wall time (host simulation speed).
    pub fn wall_jobs_per_sec(&self) -> f64 {
        let t = self.wall_elapsed.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.completed as f64 / t
        }
    }

    /// Fraction of serial stage time hidden by overlapping the DMA-in,
    /// execute, and DMA-out stages: `overlap_saved / Σ stage_time`.
    /// Zero under no-overlap timing ([`crate::RuntimeConfig::serial`]);
    /// approaches `(k−1)/k` for `k` perfectly-balanced stages under zero
    /// contention.
    pub fn overlap_efficiency(&self) -> f64 {
        let serial: SimDuration = self.stage_time.iter().copied().sum();
        let t = serial.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.overlap_saved.as_secs_f64() / t
        }
    }

    /// Per-stage occupancy: the fraction of pipelined device time each
    /// stage kept busy (`stage_time[i] / window_time`). The dominant
    /// stage sits near 1.0; the others measure how much latent overlap
    /// capacity remains.
    pub fn stage_occupancy(&self) -> [f64; 3] {
        let w = self.window_time.as_secs_f64();
        if w <= 0.0 {
            return [0.0; 3];
        }
        self.stage_time.map(|t| t.as_secs_f64() / w)
    }

    /// Mean jobs retired per laned execute pass
    /// (`laned_jobs / laned_passes`) — the host-side SIMD occupancy.
    /// Zero when no pass ever gathered more than one job.
    pub fn lane_occupancy(&self) -> f64 {
        if self.laned_passes == 0 {
            0.0
        } else {
            self.laned_jobs as f64 / self.laned_passes as f64
        }
    }

    /// Fraction of device busy time spent serving jobs rather than on
    /// reliability work: `1 − (scrub + check + wasted) / busy`. `1.0`
    /// with the guard disabled; degrades as the upset rate climbs —
    /// the knee the `guard_campaign` bench sweeps out.
    pub fn availability(&self) -> f64 {
        let busy = self.busy_total.as_secs_f64();
        if busy <= 0.0 {
            return 1.0;
        }
        let overhead = (self.scrub_time + self.check_time + self.wasted_time).as_secs_f64();
        (1.0 - overhead / busy).max(0.0)
    }

    /// Mean virtual busy time between configuration upsets, in
    /// seconds — infinite when no upset was injected.
    pub fn mtbf(&self) -> f64 {
        if self.upsets_injected == 0 {
            f64::INFINITY
        } else {
            self.busy_total.as_secs_f64() / self.upsets_injected as f64
        }
    }

    /// Fraction of device busy time spent on integrity work alone
    /// (scrubs, repairs, CRC scans, votes) — the standing cost of the
    /// protection, independent of whether anything was found.
    pub fn scrub_overhead(&self) -> f64 {
        let busy = self.busy_total.as_secs_f64();
        if busy <= 0.0 {
            0.0
        } else {
            (self.scrub_time + self.check_time).as_secs_f64() / busy
        }
    }

    /// Mean virtual latency from an upset's arrival to its repair, in
    /// microseconds. Zero when nothing was detected.
    pub fn mean_detection_latency_us(&self) -> f64 {
        if self.detected_upsets == 0 {
            0.0
        } else {
            self.detection_latency.as_secs_f64() * 1e6 / self.detected_upsets as f64
        }
    }

    /// The `p`-quantile of per-job *virtual* service time, converted
    /// from the histogram's picosecond buckets to microseconds.
    pub fn virt_percentile_us(&self, p: f64) -> f64 {
        self.virt_latency.percentile(p) / 1e6
    }

    /// Hardware task switches (full + partial) per served job — the
    /// quantity reconfiguration-aware batching minimises.
    pub fn switches_per_job(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            (self.full_loads + self.partial_switches) as f64 / self.completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_the_samples() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 4, 100, 100, 100, 100, 100, 100, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.percentile_us(0.5);
        assert!((64.0..=256.0).contains(&p50), "p50 {p50}");
        let p99 = h.percentile_us(0.99);
        assert!(p99 >= 8192.0, "p99 {p99}");
        assert!(h.mean_us() > 0.0);
        assert_eq!(h.max_us(), 10_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_us(0.5), 0.0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn log_histogram_brackets_picosecond_samples() {
        let mut h = LogHistogram::new();
        // 50 µs in picos = 5e7; the tail sample sits three decades up.
        for _ in 0..90 {
            h.record_virtual(SimDuration::from_micros(50));
        }
        for _ in 0..10 {
            h.record_virtual(SimDuration::from_millis(50));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50();
        assert!(
            (5e7..2e8).contains(&p50),
            "p50 bucket should bracket 50 µs: {p50}"
        );
        assert!(h.p99() >= h.p95() && h.p95() >= h.p50());
        assert!(h.p99() >= 5e10, "p99 must see the 50 ms tail: {}", h.p99());
        assert_eq!(h.max(), SimDuration::from_millis(50).as_picos());
        assert!(h.p95() >= 5e10, "p95 sits at the 5% tail: {}", h.p95());
        assert!(h.mean() > 5e7);
    }

    #[test]
    fn log_histogram_merge_matches_combined_recording() {
        let (mut a, mut b, mut all) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for v in [1u64, 7, 63, 1 << 20, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 2, 4096, 1 << 33] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all, "merge must equal recording into one histogram");
    }

    #[test]
    fn log_histogram_zero_and_max_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) > 0.0);
    }
}
