//! Multi-tenant serving on the ATLANTIS machine (DESIGN.md §8).
//!
//! Three client threads with different workload profiles — an online
//! trigger (high priority), an interactive volume renderer, and a bulk
//! batch tenant mixing image filters and N-body steps — share a
//! four-ACB system through `atlantis-runtime`. The scheduler batches
//! jobs that share the currently-loaded FPGA design, so most jobs skip
//! reconfiguration entirely; a bounded admission queue sheds overload
//! by rejection instead of growing without bound. Each worker serves
//! through the three-stage pipeline (prefetch / execute / writeback on
//! the PLX9080's two DMA channels, DESIGN.md §9) so DMA and compute
//! overlap; pass `--serial` to run it with no overlap (every beat costs
//! the sum of its phases) and compare the overlap counters. The
//! execute stage gathers up to `--lanes N` queued same-design jobs into
//! one lane-batched pass (DESIGN.md §10) — virtual time is unchanged,
//! only host wall clock improves; pass `--lanes 1` to disable lane
//! batching.
//!
//! Pass `--upset-rate R` to bombard the boards with `R` single event
//! upsets per device-second of virtual busy time while they serve
//! (DESIGN.md §11): the runtime switches to the protected posture —
//! per-beat frame-CRC scans, periodic deep scrubs, bounded retries,
//! quarantine — and the final stats show the detection and repair
//! ledger. `--scrub-interval MS` tunes the deep-scrub period.
//!
//! The cluster knobs (DESIGN.md §13): any of `--shards N`,
//! `--tenants N`, or `--offered-load R` switches the demo to the
//! sharded serving layer — `N` simulated hosts behind the affinity
//! router and admission controller, fed an open-loop Poisson stream of
//! `R` jobs per virtual second from `N` tenants — and prints goodput,
//! shed counts per priority class and reason, the latency percentiles,
//! and the cluster cache-affinity hit rate. `--stealing` additionally
//! lets idle shards pull backlog across the backplane (DESIGN.md §15)
//! and prints the steal ledger — warm vs cold steals, jobs and bytes
//! moved, reconfiguration cost accepted. Without those flags the
//! example keeps its original single-node shape.
//!
//! Run with: `cargo run --release --example serving` (overlapped, 8 lanes)
//!       or: `cargo run --release --example serving -- --serial`
//!       or: `cargo run --release --example serving -- --lanes 16`
//!       or: `cargo run --release --example serving -- --upset-rate 2000`
//!       or: `cargo run --release --example serving -- --upset-rate 2000 --scrub-interval 100`
//!       or: `cargo run --release --example serving -- --shards 4 --tenants 12 --offered-load 150000`
//!       or: `cargo run --release --example serving -- --shards 4 --offered-load 150000 --stealing`

use atlantis::apps::jobs::JobSpec;
use atlantis::cluster::{
    Cluster, ClusterConfig, LoadGen, LoadGenConfig, StealConfig, StealingPolicy,
};
use atlantis::core::AtlantisSystem;
use atlantis::runtime::{
    GuardConfig, JobRequest, Priority, Runtime, RuntimeConfig, RuntimeError, ShardConfig,
};
use atlantis::simcore::SimDuration;
use std::sync::Arc;

fn submit_with_backoff(rt: &Runtime, req: JobRequest) -> atlantis::runtime::JobHandle {
    loop {
        match rt.submit(req) {
            Ok(handle) => return handle,
            Err(RuntimeError::Overloaded { .. }) => std::thread::yield_now(),
            Err(e) => panic!("submit failed: {e}"),
        }
    }
}

/// Returns `(served, faulted)` — under fault injection a job may
/// honestly fail after exhausting its retry budget; it never lies.
fn wait_all(handles: Vec<atlantis::runtime::JobHandle>) -> (usize, usize) {
    let (mut served, mut faulted) = (0, 0);
    for h in handles {
        match h.wait() {
            Ok(_) => served += 1,
            Err(RuntimeError::Faulted { .. }) => faulted += 1,
            Err(e) => panic!("job failed unexpectedly: {e}"),
        }
    }
    (served, faulted)
}

/// Parse `--flag value` as an `f64`.
fn flag_value(args: &[String], flag: &str) -> Option<f64> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{flag} takes a number"))
    })
}

/// The sharded serving demo: a cluster of simulated hosts behind the
/// affinity router and admission controller, fed an open-loop Poisson
/// stream on the deterministic virtual clock.
fn cluster_demo(args: &[String]) {
    let shards = flag_value(args, "--shards")
        .map_or(4, |v| v as usize)
        .max(1);
    let tenants = flag_value(args, "--tenants").map_or(8, |v| v as u32).max(1);
    let rate = flag_value(args, "--offered-load").unwrap_or(100_000.0);
    let stealing = args.iter().any(|a| a == "--stealing");
    let jobs = 2_000u64;
    let mut cluster = Cluster::new(ClusterConfig {
        shards,
        shard: ShardConfig {
            boards: 2,
            queue_capacity: 32,
            ..ShardConfig::default()
        },
        stealing: if stealing {
            StealingPolicy::Enabled(StealConfig::default())
        } else {
            StealingPolicy::Off
        },
        ..ClusterConfig::default()
    })
    .expect("at least one shard");
    println!(
        "cluster serving: {shards} shards x 2 boards, {tenants} tenants, {rate:.0} jobs/s offered ({jobs} jobs), stealing {}\n",
        if stealing { "on" } else { "off" }
    );
    cluster.run_open_loop(LoadGen::new(LoadGenConfig {
        rate,
        jobs,
        tenants,
        ..LoadGenConfig::default()
    }));
    let s = cluster.stats();
    println!(
        "offered {} jobs, admitted {}, completed {} (goodput {:.3})",
        s.offered,
        s.admitted,
        s.completed,
        s.goodput()
    );
    println!(
        "  shed {} ({:.3} of offered) by class (high/normal/low): {:?}",
        s.shed,
        s.shed_rate(),
        s.shed_by_class
    );
    println!(
        "  shed by reason (queue-full/tenant-quota/class-watermark): {:?}",
        s.shed_by_reason
    );
    println!(
        "  routing: {} affinity, {} spill; cluster cache hit rate {:.3}",
        s.routed_affinity,
        s.routed_spill,
        cluster.affinity_hit_rate()
    );
    println!(
        "  latency: p50 {:.0} µs, p95 {:.0} µs, p99 {:.0} µs (virtual)",
        cluster.latency_percentile_secs(0.50) * 1e6,
        cluster.latency_percentile_secs(0.95) * 1e6,
        cluster.latency_percentile_secs(0.99) * 1e6,
    );
    println!(
        "  per-shard completions: {:?}; mean retry-after hint {}",
        s.per_shard_completed,
        cluster.mean_retry_after()
    );
    if stealing {
        let st = cluster.steal_stats();
        println!(
            "  stealing: {} warm + {} cold steals ({} jobs, {} bytes moved)",
            st.warm_steals, st.cold_steals, st.jobs_stolen, st.bytes_moved
        );
        println!(
            "    {} scans, {} attempts, {} below breakeven; reconfig cost accepted {}",
            st.scans, st.attempts, st.below_breakeven, st.reconfig_paid
        );
    }
}

fn main() {
    // The overlap knob: the calibrated local-bus contention is the
    // default; `--serial` hides nothing, so every pipeline beat costs the
    // sum of its phases (the measured baseline). `--lanes N` caps the
    // same-design batch the execute stage gathers per pass.
    let args: Vec<String> = std::env::args().collect();
    // Any cluster knob switches the demo to the sharded serving layer.
    if ["--shards", "--tenants", "--offered-load", "--stealing"]
        .iter()
        .any(|f| args.iter().any(|a| a == f))
    {
        return cluster_demo(&args);
    }
    let mut config = if args.iter().any(|a| a == "--serial") {
        RuntimeConfig::serial()
    } else {
        RuntimeConfig::default()
    };
    if let Some(i) = args.iter().position(|a| a == "--lanes") {
        config.lanes = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--lanes takes a positive integer");
    }
    // The reliability knobs: any of them switches the runtime to the
    // protected posture with the requested overrides.
    let upset_rate = flag_value(&args, "--upset-rate");
    let scrub_ms = flag_value(&args, "--scrub-interval");
    if upset_rate.is_some() || scrub_ms.is_some() {
        config.guard = GuardConfig {
            upset_rate: upset_rate.unwrap_or(0.0),
            ..GuardConfig::protected()
        };
        if let Some(ms) = scrub_ms {
            config.guard.scrub_interval = SimDuration::from_secs_f64(ms / 1e3);
        }
    }
    let system = AtlantisSystem::builder().with_acbs(4).build();
    let rt = Arc::new(Runtime::serve(system, config).expect("system has ACBs to serve on"));
    println!(
        "serving on {} ACBs, queue capacity {}, overlap contention {}%, lanes {}{}\n",
        rt.devices(),
        rt.queue_capacity(),
        config.overlap.contention_pct,
        config.lanes,
        if config.guard.is_active() {
            format!(
                ", guard on ({}/s upsets, scrub every {})",
                config.guard.upset_rate, config.guard.scrub_interval
            )
        } else {
            String::new()
        }
    );

    // Tenant 1: the online trigger — many small TRT events, high priority.
    let trigger = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            let handles: Vec<_> = (0..120)
                .map(|i| {
                    let req = JobRequest::new(1, JobSpec::trt(i)).with_priority(Priority::High);
                    submit_with_backoff(&rt, req)
                })
                .collect();
            wait_all(handles)
        })
    };

    // Tenant 2: an interactive renderer — medium-sized volume frames.
    let renderer = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            let handles: Vec<_> = (0..40)
                .map(|i| {
                    let req = JobRequest::new(2, JobSpec::volume(64 + (i % 4) as u32 * 32, i));
                    submit_with_backoff(&rt, req)
                })
                .collect();
            wait_all(handles)
        })
    };

    // Tenant 3: batch work — image filters and N-body steps, low priority.
    let batch = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            let handles: Vec<_> = (0..60)
                .map(|i| {
                    let spec = if i % 2 == 0 {
                        JobSpec::image(32, i)
                    } else {
                        JobSpec::nbody(32, i)
                    };
                    let req = JobRequest::new(3, spec).with_priority(Priority::Low);
                    submit_with_backoff(&rt, req)
                })
                .collect();
            wait_all(handles)
        })
    };

    let tenants = [
        trigger.join().unwrap(),
        renderer.join().unwrap(),
        batch.join().unwrap(),
    ];
    let served: usize = tenants.iter().map(|t| t.0).sum();
    let faulted: usize = tenants.iter().map(|t| t.1).sum();

    let stats = Arc::into_inner(rt).expect("all clients joined").shutdown();
    println!("served {served} jobs across 3 tenants");
    println!("  per kind (trt/volume/image/nbody): {:?}", stats.per_kind);
    println!(
        "  shed {} submissions by class (high/normal/low): {:?} (clients retried)",
        stats.rejected, stats.rejected_by_class
    );
    println!(
        "  task switches: {} full + {} partial = {:.3}/job",
        stats.full_loads,
        stats.partial_switches,
        stats.switches_per_job()
    );
    println!(
        "  virtual machine time: {} reconfig, {} dma, {} execute",
        stats.reconfig_time, stats.dma_time, stats.execute_time
    );
    println!(
        "  throughput: {:.0} jobs/s of virtual machine time ({:.0} jobs/s wall)",
        stats.virtual_jobs_per_sec(),
        stats.wall_jobs_per_sec()
    );
    println!(
        "  latency: p50 {} µs, p99 {} µs, max {} µs",
        stats.latency.percentile_us(0.50),
        stats.latency.percentile_us(0.99),
        stats.latency.max_us()
    );
    println!(
        "  bitstream cache: {} hits, {} misses (all designs pre-fitted)",
        stats.cache_hits, stats.cache_misses
    );
    if stats.pipeline_beats > 0 {
        let occ = stats.stage_occupancy();
        println!(
            "  pipeline: {} beats, {} drains, overlap hid {:.1}% of stage time ({} saved)",
            stats.pipeline_beats,
            stats.pipeline_drains,
            stats.overlap_efficiency() * 100.0,
            stats.overlap_saved
        );
        println!(
            "  stage occupancy: prefetch {:.2}, execute {:.2}, writeback {:.2}",
            occ[0], occ[1], occ[2]
        );
        println!(
            "  buffer pool: {} hits, {} misses (zero-copy steady state)",
            stats.pool_hits, stats.pool_misses
        );
        println!(
            "  lanes: {} laned passes ({} jobs, {:.2} mean occupancy), {} scalar passes",
            stats.laned_passes,
            stats.laned_jobs,
            stats.lane_occupancy(),
            stats.scalar_passes
        );
    }
    if stats.upsets_injected > 0 || stats.guard_scrubs + stats.guard_repairs > 0 {
        println!(
            "  guard: {} upsets injected ({} stealthy), {} detected, {} SILENT",
            stats.upsets_injected,
            stats.upsets_stealthy,
            stats.detected_corruptions,
            stats.silent_corruptions
        );
        println!(
            "  repair: {} deep scrubs + {} targeted repairs, {} retries, {} faulted jobs, {} boards quarantined",
            stats.guard_scrubs,
            stats.guard_repairs,
            stats.retries,
            faulted,
            stats.quarantined_devices
        );
        println!(
            "  reliability: {:.1}% available, {:.1}% scrub overhead, MTBF {:.1} ms, detection latency {:.0} µs",
            stats.availability() * 100.0,
            stats.scrub_overhead() * 100.0,
            stats.mtbf() * 1e3,
            stats.mean_detection_latency_us()
        );
    }
}
