//! **Table 12 (new)** — multi-tenant serving on the runtime scheduler.
//!
//! The paper positions ATLANTIS as a shared machine: many applications
//! (trigger algorithms, volume rendering, image processing, N-body)
//! time-share the same reconfigurable boards, and §2 argues partial
//! reconfiguration makes hardware task switches cheap enough to do so.
//! This table measures exactly that claim at the serving layer: a mixed
//! workload submitted by concurrent clients, scheduled across four ACBs
//! under (a) strict FIFO and (b) the reconfiguration-aware batching
//! policy. Both must produce bit-identical results; the aware policy
//! must do so with fewer hardware task switches and a higher virtual
//! (machine-time) throughput. A saturation run then shows bounded-queue
//! backpressure: overload is shed by rejection, never by losing an
//! accepted job.

use atlantis_apps::jobs::JobSpec;
use atlantis_bench::{f, Checker, Table};
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{
    JobRequest, Priority, Runtime, RuntimeConfig, RuntimeError, RuntimeStats, SchedPolicy,
};
use std::sync::Arc;

const CLIENTS: u32 = 8;
const JOBS_PER_CLIENT: u64 = 150;
const ACBS: usize = 4;

struct RunOutput {
    stats: RuntimeStats,
    /// `(seed, checksum)` of every job, sorted — the correctness digest.
    results: Vec<(u64, u64)>,
}

fn run(policy: SchedPolicy) -> RunOutput {
    let config = RuntimeConfig {
        policy,
        // Large enough that admission is not the bottleneck in the
        // throughput experiment; the saturation run exercises the bound.
        queue_capacity: 2048,
        ..RuntimeConfig::default()
    };
    let system = AtlantisSystem::builder().with_acbs(ACBS).build();
    let rt = Arc::new(Runtime::serve(system, config).expect("serve"));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let mut pending = Vec::new();
                for i in 0..JOBS_PER_CLIENT {
                    let n = u64::from(c) * JOBS_PER_CLIENT + i;
                    let spec = JobSpec::mixed(n);
                    let priority = match n % 16 {
                        0 => Priority::High,
                        1..=3 => Priority::Low,
                        _ => Priority::Normal,
                    };
                    let handle = loop {
                        match rt.submit(JobRequest::new(c, spec).with_priority(priority)) {
                            Ok(h) => break h,
                            Err(RuntimeError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("submit: {e}"),
                        }
                    };
                    pending.push((spec.seed, handle));
                }
                pending
                    .into_iter()
                    .map(|(seed, h)| (seed, h.wait().expect("job completes").checksum))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut results = Vec::new();
    for t in clients {
        results.extend(t.join().expect("client thread"));
    }
    results.sort_unstable();
    let rt = Arc::into_inner(rt).expect("clients joined");
    RunOutput {
        stats: rt.shutdown(),
        results,
    }
}

fn saturation() -> RuntimeStats {
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let config = RuntimeConfig {
        queue_capacity: 8,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::serve(system, config).expect("serve");
    let mut handles = Vec::new();
    for i in 0..300u64 {
        match rt.submit(JobRequest::new(0, JobSpec::trt(i))) {
            Ok(h) => handles.push(h),
            Err(RuntimeError::Overloaded { .. }) => {}
            Err(e) => panic!("submit: {e}"),
        }
    }
    for h in handles {
        h.wait().expect("accepted job completes under overload");
    }
    rt.shutdown()
}

fn main() -> std::process::ExitCode {
    let mut c = Checker::new();
    let total = u64::from(CLIENTS) * JOBS_PER_CLIENT;

    println!("mixed workload: {total} jobs from {CLIENTS} clients on {ACBS} ACBs, both policies\n");
    let fifo = run(SchedPolicy::Fifo);
    let aware = run(SchedPolicy::default());

    let mut table = Table::new(
        "Table 12: multi-tenant serving, FIFO vs reconfiguration-aware",
        &[
            "policy",
            "jobs",
            "switches",
            "sw/job",
            "reconfig",
            "virt jobs/s",
            "p50 us",
            "p99 us",
        ],
    );
    for (name, s) in [("FIFO", &fifo.stats), ("reconfig-aware", &aware.stats)] {
        table.row(&[
            name.to_string(),
            s.completed.to_string(),
            (s.full_loads + s.partial_switches).to_string(),
            f(s.switches_per_job(), 3),
            format!("{}", s.reconfig_time),
            f(s.virtual_jobs_per_sec(), 1),
            f(s.latency.percentile_us(0.5), 0),
            f(s.latency.percentile_us(0.99), 0),
        ]);
    }
    table.print();

    c.check(
        "both policies served every job",
        fifo.stats.completed == total && aware.stats.completed == total,
    );
    c.check(
        "both policies produced identical (seed, checksum) sets",
        fifo.results == aware.results,
    );
    c.check(
        "no job failed under either policy",
        fifo.stats.failed == 0 && aware.stats.failed == 0,
    );
    let fifo_switches = fifo.stats.full_loads + fifo.stats.partial_switches;
    let aware_switches = aware.stats.full_loads + aware.stats.partial_switches;
    c.check(
        format!("batching cuts task switches ({aware_switches} vs {fifo_switches})"),
        aware_switches < fifo_switches,
    );
    c.check_band(
        "switch ratio aware/FIFO",
        aware_switches as f64 / fifo_switches as f64,
        0.0,
        0.85,
    );
    c.check_band(
        "virtual throughput speedup aware/FIFO",
        aware.stats.virtual_jobs_per_sec() / fifo.stats.virtual_jobs_per_sec(),
        1.0,
        1e3,
    );
    c.check(
        "bitstream cache absorbed every fit (0 misses after prefit)",
        fifo.stats.cache_misses == 0 && aware.stats.cache_misses == 0,
    );
    // Record the headline serving numbers into the JSON artifact (wide
    // sanity bands — their purpose is the recorded value).
    c.check_band(
        "FIFO switches per job",
        fifo.stats.switches_per_job(),
        0.0,
        2.0,
    );
    c.check_band(
        "aware switches per job",
        aware.stats.switches_per_job(),
        0.0,
        2.0,
    );
    c.check_band(
        "FIFO virtual jobs/sec",
        fifo.stats.virtual_jobs_per_sec(),
        1.0,
        1e9,
    );
    c.check_band(
        "aware virtual jobs/sec",
        aware.stats.virtual_jobs_per_sec(),
        1.0,
        1e9,
    );
    c.check_band(
        "aware p50 latency (us)",
        aware.stats.latency.percentile_us(0.5),
        1.0,
        6e8,
    );
    c.check_band(
        "aware p99 latency (us)",
        aware.stats.latency.percentile_us(0.99),
        1.0,
        6e8,
    );

    println!("saturation: 300 jobs against a capacity-8 queue on one ACB\n");
    let sat = saturation();
    let mut sat_table = Table::new(
        "Table 12b: overload behaviour (bounded admission queue)",
        &["offered", "accepted", "rejected", "completed", "failed"],
    );
    sat_table.row(&[
        300.to_string(),
        sat.submitted.to_string(),
        sat.rejected.to_string(),
        sat.completed.to_string(),
        sat.failed.to_string(),
    ]);
    sat_table.print();
    c.check(
        "overload sheds by rejection (some jobs rejected)",
        sat.rejected > 0,
    );
    c.check(
        "accounting closes: accepted + rejected == offered",
        sat.submitted + sat.rejected == 300,
    );
    c.check(
        "zero lost in-flight jobs: completed == accepted",
        sat.completed == sat.submitted && sat.failed == 0,
    );

    atlantis_bench::conclude("runtime", c)
}
