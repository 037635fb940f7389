//! Summary statistics for the benchmark harness.
//!
//! The `table*` binaries in `atlantis-bench` report means, spreads and
//! ratios (speed-ups) over repeated runs; this module keeps that arithmetic
//! in one tested place.

/// Running summary of a sequence of samples (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Summary of a slice of samples.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in samples {
            s.push(x);
        }
        s
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample (`NaN`-free input assumed); 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Speed-up of `baseline` over `accelerated` (e.g. 35 ms / 19.2 ms ≈ 1.8).
/// Panics if `accelerated` is zero.
pub fn speedup(baseline: f64, accelerated: f64) -> f64 {
    assert!(
        accelerated > 0.0,
        "speedup: accelerated time must be positive"
    );
    baseline / accelerated
}

/// Relative error of `measured` vs `expected` as a fraction of `expected`.
pub fn relative_error(measured: f64, expected: f64) -> f64 {
    assert!(expected != 0.0, "relative_error: zero expected value");
    (measured - expected).abs() / expected.abs()
}

/// True when `measured` lies within `tol` relative error of `expected`.
pub fn within(measured: f64, expected: f64, tol: f64) -> bool {
    relative_error(measured, expected) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn speedup_matches_paper_arithmetic() {
        // §3.4: 35 ms on a Pentium-II/300 vs 2.7 ms extrapolated ⇒ 13×.
        let s = speedup(35.0, 2.7);
        assert!((s - 12.96).abs() < 0.01);
    }

    #[test]
    fn within_tolerance() {
        assert!(within(19.2, 19.0, 0.02));
        assert!(!within(25.0, 19.0, 0.02));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn speedup_zero_panics() {
        speedup(1.0, 0.0);
    }
}
