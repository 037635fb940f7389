//! The traced run's span store and per-layer host-time attribution.
//!
//! Host spans wrap each call the benchmark makes into the system under
//! test (`offer`/`advance`/`drain`, `submit`/`wait`, `run_event`).
//! Virtual spans come from each completion record. Both are kept in
//! memory, one job id per request, and written out as Chrome
//! trace-event JSON when the run ends.
//!
//! The layers below the called API are timed by re-driving their public
//! entry points with the inputs the campaign recorded (see `replay`).
//! A layer's self time is its span total minus the part its re-driven
//! children cover.

use atlantis_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clock {
    Host,
    Virtual,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    clock: Clock,
    /// Host: nanoseconds since the tracer's origin. Virtual: picoseconds.
    start: u64,
    dur: u64,
    /// The timeline the span is drawn on (shard board, job, …).
    track: u64,
    job: Option<u64>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    host_total: Duration,
    host_calls: u64,
}

impl Tracer {
    /// An empty recorder whose host clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            host_total: Duration::ZERO,
            host_calls: 0,
        }
    }

    /// Run `f` as one host span named `name`.
    pub fn host<R>(&mut self, name: &'static str, job: Option<u64>, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        self.host_total += dur;
        self.host_calls += 1;
        self.spans.push(Span {
            name,
            clock: Clock::Host,
            start: t0.duration_since(self.origin).as_nanos() as u64,
            dur: dur.as_nanos() as u64,
            track: 0,
            job,
        });
        out
    }

    /// Record a virtual-time span of `job` on timeline `track`.
    pub fn virtual_span(
        &mut self,
        name: &'static str,
        job: u64,
        track: u64,
        start: SimTime,
        dur: SimDuration,
    ) {
        self.spans.push(Span {
            name,
            clock: Clock::Virtual,
            start: start.since(SimTime::ZERO).as_picos(),
            dur: dur.as_picos(),
            track,
            job: Some(job),
        });
    }

    /// Total host time inside recorded host spans.
    pub fn host_total(&self) -> Duration {
        self.host_total
    }

    /// Number of recorded host spans.
    pub fn host_calls(&self) -> u64 {
        self.host_calls
    }

    /// Write the run's spans to `perfbench/traces/<workload>-<seed>.json`
    /// (relative to the working directory) and return that path.
    pub fn write_run(
        &self,
        args: &crate::Args,
        attribution: &Attribution,
    ) -> Result<String, String> {
        let path = format!("perfbench/traces/{}-{}.json", args.workload, args.seed);
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}",
            args.workload, args.seed
        );
        self.write(Path::new(&path), &header, attribution)?;
        Ok(path)
    }

    /// Write every span plus the attribution table as Chrome trace-event
    /// JSON (viewable in Perfetto). Host spans are process 0 in
    /// microseconds of host time; virtual spans are process 1 in
    /// microseconds of virtual time.
    fn write(&self, path: &Path, header: &str, attribution: &Attribution) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let mut line = String::new();
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        write!(
            w,
            "{{\"otherData\":{{{header},\"layers\":{}}},\n\"traceEvents\":[",
            attribution.to_json()
        )
        .map_err(io)?;
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let (pid, scale) = match s.clock {
                Clock::Host => (0, 1e-3),
                Clock::Virtual => (1, 1e-6),
            };
            let _ = write!(
                line,
                "{}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{}",
                if i == 0 { "" } else { "," },
                s.name,
                s.track,
                s.start as f64 * scale,
                s.dur as f64 * scale
            );
            if let Some(job) = s.job {
                let _ = write!(line, ",\"args\":{{\"job\":{job}}}");
            }
            line.push('}');
            w.write_all(line.as_bytes()).map_err(io)?;
        }
        w.write_all(b"\n]}\n").map_err(io)?;
        w.flush().map_err(io)
    }
}

/// Host time of one re-driven layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerTime {
    /// Layer (crate) name.
    pub layer: &'static str,
    /// Total host time of the re-driven calls.
    pub total: Duration,
    /// Re-driven calls.
    pub calls: u64,
}

impl LayerTime {
    /// Mean host microseconds per call (zero when never called).
    pub fn us_per_call(&self) -> f64 {
        crate::measure::ratio(self.total.as_secs_f64() * 1e6, self.calls as f64)
    }
}

/// Host time of the traced campaign split across layers: the spans the
/// benchmark recorded around its own calls, the re-driven children, and
/// the remainder attributed to the called layer itself.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// The layer the benchmark calls directly.
    pub top: &'static str,
    /// Its total span time.
    pub span_total: Duration,
    /// Host spans recorded around the top layer's calls.
    pub span_calls: u64,
    /// Re-driven child layers.
    pub children: Vec<LayerTime>,
}

impl Attribution {
    /// Self time of the top layer: span total minus every child.
    pub fn self_time(&self) -> Duration {
        let covered: Duration = self.children.iter().map(|c| c.total).sum();
        self.span_total.saturating_sub(covered)
    }

    /// A child layer's time, if it was re-driven.
    pub fn child(&self, layer: &str) -> Option<LayerTime> {
        self.children.iter().copied().find(|c| c.layer == layer)
    }

    /// Share of the top span total spent in `layer` (the top layer's
    /// own name gives its self share).
    pub fn share(&self, layer: &str) -> f64 {
        let t = if layer == self.top {
            self.self_time()
        } else {
            self.child(layer).map_or(Duration::ZERO, |c| c.total)
        };
        crate::measure::ratio(t.as_secs_f64(), self.span_total.as_secs_f64())
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"{}\": {{\"span_us\": {}, \"self_us\": {}, \"calls\": {}}}",
            self.top,
            self.span_total.as_secs_f64() * 1e6,
            self.self_time().as_secs_f64() * 1e6,
            self.span_calls
        );
        for c in &self.children {
            let _ = write!(
                s,
                ", \"{}\": {{\"total_us\": {}, \"calls\": {}}}",
                c.layer,
                c.total.as_secs_f64() * 1e6,
                c.calls
            );
        }
        s.push('}');
        s
    }
}

/// Accumulates the host time of repeated calls into one layer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    layer: &'static str,
    total: Duration,
    calls: u64,
}

impl Stopwatch {
    /// A stopwatch for `layer`.
    pub fn new(layer: &'static str) -> Self {
        Stopwatch {
            layer,
            total: Duration::ZERO,
            calls: 0,
        }
    }

    /// Time one call.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.total += t0.elapsed();
        self.calls += 1;
        out
    }

    /// Add `calls` calls that took `total` together (a loop timed as a
    /// whole, for calls too short to time one by one).
    pub fn add(&mut self, total: Duration, calls: u64) {
        self.total += total;
        self.calls += calls;
    }

    /// The accumulated layer time.
    pub fn finish(&self) -> LayerTime {
        LayerTime {
            layer: self.layer,
            total: self.total,
            calls: self.calls,
        }
    }
}
