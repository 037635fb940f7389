//! Served-path benchmark of the ATLANTIS simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs the system's shipped defaults on inputs generated
//! from `--seed`, repeats its campaign for `--seconds`, checks every
//! answer against an independent software oracle, and prints a report
//! on stderr and, as the last line of stdout, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! no tracing; with `--trace 1` they are the per-layer ones from a
//! separate traced campaign, whose spans are written under
//! `perfbench/traces/`. Any correctness or replay mismatch exits 1.
//!
//! Workloads (why each exists, and which layer should dominate its host
//! time, is in `BENCHMARK.json` and `perfbench/README.md`):
//! `cluster_overload`, `runtime_mixed`, `chdl_trt`, and `cluster_steady`,
//! which runs the same way but is not in `BENCHMARK.json` because its
//! host figures swing with the shared machine's speed beyond any bound
//! the benchmark may set.

mod chdl;
mod check;
mod cluster;
mod measure;
mod replay;
mod runtime;
mod trace;

use measure::Metrics;
use std::collections::HashMap;
use std::process::ExitCode;

/// End-to-end metrics, `(name, unit)`: every workload reports all of
/// them, in this order, with tracing off.
pub const END_TO_END: [(&str, &str); 10] = [
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("virt_p50_us", "virt_us"),
    ("virt_p99_us", "virt_us"),
    ("goodput", "ratio"),
    ("slo_attainment", "ratio"),
    ("virt_jobs_per_s", "jobs/virt_s"),
    ("wall_p50_ms", "ms"),
    ("wall_p95_ms", "ms"),
];

/// Per-layer metrics, `(name, unit)`, from the traced run. A layer the
/// workload never crosses reports zero. Host-time figures are per call.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("apps.execute_us.trt", "us"),
    ("apps.execute_us.volume", "us"),
    ("apps.execute_us.image", "us"),
    ("apps.execute_us.nbody", "us"),
    ("apps.lane_occupancy", "jobs/pass"),
    ("core.switch_us", "us"),
    ("fabric.bitstream_us", "us"),
    ("fabric.diff_us", "us"),
    ("core.full_loads", "count"),
    ("core.partial_switches", "count"),
    ("core.frames_written", "count"),
    ("core.reconfig_virt_ms", "virt_ms"),
    ("chdl.build_us.trt_histogrammer", "us"),
    ("chdl.build_us.volume_compositor", "us"),
    ("chdl.build_us.image_sobel", "us"),
    ("chdl.build_us.nbody_force", "us"),
    ("chdl.step_ns_per_cycle", "ns"),
    ("chdl.readback_us_per_event", "us"),
    ("chdl.ops_final", "count"),
    ("chdl.netopt_nodes_after", "count"),
    ("chdl.evals_threaded_share", "ratio"),
    ("cluster.admission.check_us", "us"),
    ("cluster.router.route_us", "us"),
    ("cluster.shed.queue_full", "count"),
    ("cluster.shed.tenant_quota", "count"),
    ("cluster.shed.class_shed", "count"),
    ("cluster.router.spill_share", "ratio"),
    ("runtime.shard.self_us", "us"),
    ("runtime.shard.queue_wait_virt_us.p50", "virt_us"),
    ("runtime.shard.queue_wait_virt_us.p99", "virt_us"),
    ("runtime.shard.affinity_hit_rate", "ratio"),
    ("backplane.transfer_us", "us"),
    ("backplane.dma_virt_us", "virt_us"),
    ("runtime.queue_wait_ms.p50", "ms"),
    ("runtime.queue_wait_ms.p99", "ms"),
    ("runtime.service_ms.p50", "ms"),
    ("runtime.switches_per_job", "ratio"),
    ("runtime.overlap_efficiency", "ratio"),
    ("runtime.bufpool.hit_rate", "ratio"),
    ("pci.dma_us", "us"),
    ("pci.dma_virt_us", "virt_us"),
    ("host_share.apps", "ratio"),
    ("host_share.reconfig", "ratio"),
    ("host_share.chdl_eval", "ratio"),
    ("host_share.cluster", "ratio"),
    ("host_share.runtime_shard", "ratio"),
    ("host_share.backplane", "ratio"),
    ("host_share.runtime", "ratio"),
    ("host_share.pci", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The benchmark's command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Run the traced campaign and report per-layer metrics.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags: HashMap<String, String> = HashMap::new();
        while let Some(flag) = argv.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(key.to_string(), value);
        }
        let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        };
        Ok(Args {
            workload: get("workload")?.clone(),
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace,
        })
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted over every repetition.
    pub attempted: u64,
    /// Jobs that failed the correctness gate.
    pub failed: u64,
    /// Replay or consistency failures that make the run unusable.
    pub errors: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "cluster_steady" => cluster::run(args, cluster::STEADY),
        "cluster_overload" => cluster::run(args, cluster::OVERLOAD),
        "runtime_mixed" => runtime::run(args),
        "chdl_trt" => chdl::run(args),
        w => Err(format!(
            "unknown workload {w:?} (cluster_steady, cluster_overload, runtime_mixed, chdl_trt)"
        )),
    }
}

/// Check the reported names against the metric table of this run kind,
/// fill zeros for per-layer metrics of layers the workload never
/// crossed, and put them in table order.
fn conform(metrics: Metrics, trace: bool) -> Result<Metrics, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut given: HashMap<&str, (f64, &str)> = HashMap::new();
    for (name, value, unit) in metrics.entries() {
        let expected = table
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("metric {name} is not in the benchmark's table"))?;
        if expected.1 != *unit {
            return Err(format!(
                "metric {name} has unit {unit}, table says {}",
                expected.1
            ));
        }
        given.insert(name.as_str(), (*value, unit));
    }
    let mut out = Metrics::default();
    for &(name, unit) in table {
        match given.get(name) {
            Some(&(value, _)) => out.put(name, value, unit),
            None if trace => out.put(name, 0.0, unit),
            None => return Err(format!("workload did not report {name}")),
        }
    }
    for n in metrics.notes() {
        out.note(n.clone());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args).and_then(|mut o| {
        if o.attempted == 0 {
            return Err("no job was attempted".to_string());
        }
        if !args.trace {
            o.metrics
                .put("peak_rss_mb", measure::peak_rss_mib()?, "MiB");
        }
        o.metrics = conform(std::mem::take(&mut o.metrics), args.trace)?;
        let json = o.metrics.to_json()?;
        Ok((o, json))
    });
    let (outcome, json) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench {} seed {} ({}s, trace {}):",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in outcome.metrics.entries() {
        eprintln!("  {name:<40} {value:>16.6} {unit}");
    }
    for n in outcome.metrics.notes() {
        eprintln!("  note: {n}");
    }
    eprintln!(
        "  error_rate {:.6} ({} failed of {} attempted)",
        measure::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for e in &outcome.errors {
        eprintln!("  FAILED: {e}");
    }
    let correct = outcome.failed == 0 && outcome.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn args_reject_unknown_and_bad_values() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload chdl_trt --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, true));
        assert!(parse("--workload x --seed 7 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload x --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 7 --trace 0").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
