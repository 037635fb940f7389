//! Measurement helpers: exact percentiles over raw samples, medians of
//! per-repetition figures, peak resident memory, and the metric list a
//! run prints.

use std::fmt::Write as _;
use std::time::Instant;

/// Virtual latency limit of `slo_attainment`: ~15× the steady-state
/// cluster p99, and below one partial reconfiguration (~1.4 ms).
pub const SLO: atlantis_simcore::SimDuration =
    atlantis_simcore::SimDuration::from_picos(1_000_000_000);

/// Call `rep(i)` for i = 0, 1, … until the next call would end past
/// `seconds` of measurement, and at least three times (two when traced:
/// one untraced and one traced repetition). Returns the number of
/// repetitions run.
pub fn repeat(
    seconds: f64,
    trace: bool,
    mut rep: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let min = if trace { 2 } else { 3 };
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut n = 0;
    loop {
        let t = Instant::now();
        rep(n)?;
        n += 1;
        longest = longest.max(t.elapsed().as_secs_f64());
        if n >= min && start.elapsed().as_secs_f64() + longest > seconds {
            return Ok(n);
        }
    }
}

/// FNV-1a over 64-bit words — the replay digest of a campaign's
/// completion records.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p·n` samples at or below it. Exact — no
/// bucketing — so a reported p99 is a latency some job really had.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// `values`, sorted ascending — the raw sample a percentile reads.
pub fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

/// The highest percentile (as a fraction) that still has at least ten
/// samples beyond it — the tail a sample of `n` can support.
pub fn supported_percentile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).max(0.0)
}

/// Median of per-repetition figures (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repetitions");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The host-time figures of a run's untraced repetitions.
///
/// Host speed on a shared machine drifts by ±20 % from one second to the
/// next, while a slow spell never makes the simulator faster. So each
/// throughput and per-job latency figure is its best over the
/// repetitions (highest throughput, lowest percentile), the least
/// disturbed reading; set-up time is the median over repetitions.
#[derive(Debug, Default)]
pub struct HostRuns {
    /// `(jobs per host second, wall p50 ms, wall p95 ms)` per repetition.
    reps: Vec<(f64, f64, f64)>,
    setup: Vec<f64>,
}

impl HostRuns {
    /// Record one repetition: its throughput, its set-up time, and the
    /// raw host latency of each job in nanoseconds.
    pub fn push(&mut self, jobs_per_s: f64, setup: std::time::Duration, wall_ns: Vec<u64>) {
        let wall = sorted(wall_ns.into_iter());
        let p = |q| percentile(&wall, q) as f64 / 1e6;
        self.reps.push((jobs_per_s, p(0.5), p(0.95)));
        self.setup.push(setup.as_secs_f64());
    }

    /// The highest throughput over the repetitions.
    pub fn best_rate(&self) -> f64 {
        self.reps.iter().map(|r| r.0).fold(0.0, f64::max)
    }

    /// Report `jobs_per_s`, `setup_s`, `wall_p50_ms` and `wall_p95_ms`.
    pub fn put(&self, m: &mut Metrics, samples: usize) {
        assert!(!self.reps.is_empty(), "at least one untraced repetition");
        let lowest =
            |f: fn(&(f64, f64, f64)) -> f64| self.reps.iter().map(f).fold(f64::INFINITY, f64::min);
        m.put("jobs_per_s", self.best_rate(), "jobs/s");
        m.put("setup_s", median(&self.setup), "s");
        m.put("wall_p50_ms", lowest(|r| r.1), "ms");
        m.put("wall_p95_ms", lowest(|r| r.2), "ms");
        let rates: Vec<f64> = self.reps.iter().map(|r| r.0.round()).collect();
        m.note(format!(
            "host figures are the best of {} repetitions (jobs_per_s by repetition: {rates:?}); wall_p*_ms exact over a repetition's {samples} samples (highest supported: p{:.3}); setup_s the median",
            self.reps.len(),
            supported_percentile(samples) * 100.0
        ));
    }
}

/// The metrics one run reports, in print order, plus free-form notes
/// (sample counts, supported percentiles) for the human-readable report.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Record an exact percentile of `sorted` raw samples, scaled by
    /// `scale`, with its sample count and supported tail noted.
    pub fn put_percentile(
        &mut self,
        name: &str,
        sorted: &[u64],
        p: f64,
        scale: f64,
        unit: &'static str,
    ) {
        let value = percentile(sorted, p) as f64 * scale;
        self.put(name, value, unit);
        self.note(format!(
            "{name}: exact p{} of {} samples; highest percentile with >=10 samples beyond it: p{:.3}",
            p * 100.0,
            sorted.len(),
            supported_percentile(sorted.len()) * 100.0
        ));
    }

    /// Add a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The recorded `(name, value, unit)` triples.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The report notes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Per-metric medians over `runs`, in the first run's order, with the
    /// first run's notes.
    pub fn median_of(runs: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        let Some(first) = runs.first() else {
            return out;
        };
        for (name, _, unit) in &first.entries {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|m| m.entries.iter().find(|e| e.0 == *name).map(|e| e.1))
                .collect();
            out.put(name.clone(), median(&values), unit);
        }
        out.notes.clone_from(&first.notes);
        out
    }

    /// The `"metrics"` JSON object. Non-finite values are a bug in a
    /// metric definition and are refused rather than printed as invalid
    /// JSON.
    pub fn to_json(&self) -> Result<String, String> {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert!((supported_percentile(1000) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_refuses_non_finite_values() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "s");
        assert_eq!(
            m.to_json().unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        m.put("b", f64::NAN, "s");
        assert!(m.to_json().is_err());
    }
}
