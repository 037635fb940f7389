//! Seed-parameterized determinism guard: two identical closed-loop
//! runs must produce byte-identical statistics.
//!
//! Closed-loop submission (each job awaited before the next is sent) on
//! a single worker pins the beat structure — every job is alone in the
//! pipeline for exactly three beats — so *every* stats field except the
//! two wall-clock ones (`wall_elapsed`, `latency`) is a pure function
//! of the job sequence. Any nondeterminism creeping into the engine,
//! the DMA models, the buffer pool, or the accounting shows up here as
//! a fingerprint mismatch.

use atlantis_apps::jobs::JobSpec;
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{GuardConfig, JobRequest, Runtime, RuntimeConfig, RuntimeStats};

/// Everything in [`RuntimeStats`] except wall time and the latency
/// histogram, Debug-formatted for a byte-exact comparison.
fn fingerprint(s: &RuntimeStats) -> String {
    format!(
        "{:?}",
        (
            (
                s.submitted,
                s.completed,
                s.rejected,
                s.failed,
                s.per_kind,
                s.full_loads,
                s.partial_switches,
                s.frames_written,
                s.reconfig_time,
                s.dma_time,
                s.execute_time,
                s.virtual_makespan,
            ),
            (
                s.pipeline_beats,
                s.pipeline_drains,
                s.stage_time,
                s.window_time,
                s.overlap_saved,
                s.laned_passes,
                s.scalar_passes,
                s.laned_jobs,
                s.pool_hits,
                s.pool_misses,
                s.cache_hits,
                s.cache_misses,
            ),
            (
                s.upsets_injected,
                s.upsets_stealthy,
                s.corrupt_executes,
                s.detected_corruptions,
                s.silent_corruptions,
                s.guard_scrubs,
                s.guard_repairs,
                s.scrub_time,
                s.check_time,
                s.wasted_time,
                (
                    s.retries,
                    s.faulted,
                    s.quarantined_devices,
                    s.detection_latency,
                    s.detected_upsets,
                    &s.device_scrub_frames,
                    s.busy_total,
                ),
            ),
        )
    )
}

/// Closed-loop serve: one device, each job awaited before the next.
fn run_closed_loop(config: RuntimeConfig, seed: u64, jobs: u64) -> (Vec<u64>, String) {
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let rt = Runtime::serve(system, config).unwrap();
    let mut checksums = Vec::with_capacity(jobs as usize);
    for i in 0..jobs {
        let spec = JobSpec::mixed(seed * 10_000 + i);
        let handle = rt.submit(JobRequest::new(0, spec)).unwrap();
        checksums.push(handle.wait().unwrap().checksum);
    }
    let stats = rt.shutdown();
    (checksums, fingerprint(&stats))
}

#[test]
fn closed_loop_stats_are_byte_identical_across_runs() {
    for seed in [1u64, 7, 42] {
        let (sums_a, fp_a) = run_closed_loop(RuntimeConfig::default(), seed, 24);
        let (sums_b, fp_b) = run_closed_loop(RuntimeConfig::default(), seed, 24);
        assert_eq!(sums_a, sums_b, "seed {seed}: checksums diverged");
        assert_eq!(fp_a, fp_b, "seed {seed}: stats fingerprint diverged");
    }
}

/// Closed-loop serve under fault injection: jobs may honestly fail with
/// `Faulted` after exhausting retries; record `None` for those.
fn run_fault_campaign(config: RuntimeConfig, jobs: u64) -> (Vec<Option<u64>>, String) {
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let rt = Runtime::serve(system, config).unwrap();
    let mut checksums = Vec::with_capacity(jobs as usize);
    for i in 0..jobs {
        let spec = JobSpec::mixed(777_000 + i);
        let handle = rt.submit(JobRequest::new(0, spec)).unwrap();
        checksums.push(handle.wait().ok().map(|r| r.checksum));
    }
    let stats = rt.shutdown();
    assert!(
        stats.upsets_injected > 0,
        "a campaign that injects nothing guards nothing"
    );
    (checksums, fingerprint(&stats))
}

#[test]
fn fixed_seed_fault_campaigns_are_byte_identical_across_runs() {
    // Upset arrivals are a seeded Poisson process over the device's
    // *virtual* clock, so a closed-loop run replays the same campaign —
    // injections, detections, retries, scrub times — byte for byte. The
    // `serial` arm replays it under no-overlap timing (the same pipeline
    // with `OverlapConfig::serial()`), where every beat costs the sum of
    // its phases and the virtual clock the arrivals follow runs slower.
    let guard = GuardConfig {
        upset_rate: 3_000.0,
        stealth_fraction: 0.25,
        upset_seed: 9,
        vote_every: 4,
        ..GuardConfig::protected()
    };
    for (name, base) in [
        ("pipelined", RuntimeConfig::default()),
        ("serial", RuntimeConfig::serial()),
    ] {
        let config = RuntimeConfig { guard, ..base };
        let (sums_a, fp_a) = run_fault_campaign(config, 20);
        let (sums_b, fp_b) = run_fault_campaign(config, 20);
        assert_eq!(sums_a, sums_b, "{name}: campaign checksums diverged");
        assert_eq!(fp_a, fp_b, "{name}: campaign stats fingerprint diverged");
    }
}

/// The closure-compiler ledger for one streamed run of the TRT netlist
/// under forced threaded dispatch: every [`atlantis_chdl::EngineStats`]
/// compile counter except `compile_ns`, which is wall-clock time and
/// deliberately excluded — build duration varies run to run, but *what*
/// was built and *which* tier every eval took must not.
fn compile_ledger_fingerprint(seed: u64) -> String {
    use atlantis_chdl::{DispatchMode, EngineConfig, ExecMode, Sim};
    let design = atlantis_apps::trt::fpga::build_external_design(512, 4, 16);
    let config = EngineConfig {
        dispatch: DispatchMode::Threaded,
        ..EngineConfig::default()
    };
    let mut sim = Sim::with_config(&design, ExecMode::Compiled, config);
    sim.set("valid", 1);
    sim.set("clear", 0);
    sim.set("pass", 1);
    sim.set("threshold", 5);
    sim.set("counter_sel", 3);
    let hit = design.signal("hit").unwrap();
    let mut x = seed | 1;
    for _ in 0..64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sim.set_signal(hit, x % 512);
        sim.step();
    }
    let s = sim.engine_stats().unwrap();
    format!(
        "{:?}",
        (
            s.compiles,
            s.blocks_built,
            s.closures_specialized,
            s.evals_threaded,
            s.evals_match,
        )
    )
}

#[test]
fn threaded_compile_ledger_is_independent_of_seed_and_run() {
    // The compile ledger is a pure function of the netlist and the
    // dispatch config: stimulus values change *what flows through* the
    // compiled blocks but may not change how many blocks were built, how
    // many closures were specialized, or which tier each eval dispatched
    // to. (The adaptive sweep heuristics switch paths on dirty density,
    // so any stimulus leak into the counters would surface here too.)
    let base = compile_ledger_fingerprint(1);
    for seed in [1u64, 99, 42, 7] {
        let fp = compile_ledger_fingerprint(seed);
        assert_eq!(fp, base, "compile ledger diverged at seed {seed}");
    }
}

#[test]
fn closed_loop_serial_stats_are_byte_identical_across_runs() {
    // `RuntimeConfig::serial()` is the same pipeline under no-overlap
    // timing (`OverlapConfig::serial()`); its fingerprint pins that every
    // beat is charged the sum of its phases, deterministically.
    for seed in [3u64, 11] {
        let (sums_a, fp_a) = run_closed_loop(RuntimeConfig::serial(), seed, 16);
        let (sums_b, fp_b) = run_closed_loop(RuntimeConfig::serial(), seed, 16);
        assert_eq!(sums_a, sums_b, "seed {seed}: checksums diverged");
        assert_eq!(fp_a, fp_b, "seed {seed}: stats fingerprint diverged");
    }
}
