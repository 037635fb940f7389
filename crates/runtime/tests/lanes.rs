//! Lane-batched execution must be an *optimisation*, not a behaviour
//! change: gathering same-design jobs into one laned execute pass may
//! only change host wall clock. Per-job checksums, cycle counts, and
//! every arrival-order-deterministic virtual statistic must match the
//! unlaned run exactly — lanes serialise in virtual time on the one
//! physical device.

use atlantis_apps::jobs::JobSpec;
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{JobRequest, Runtime, RuntimeConfig, RuntimeStats};

/// Serve the given specs on one device under strict FIFO and return the
/// per-job results (sorted by id) plus final stats. One worker plus
/// FIFO makes the pop *order* — and with it every virtual-time
/// statistic below — independent of how the worker's pops race the
/// submitting thread. (Beat structure, and so `pipeline_beats` /
/// `window_time` / `overlap_saved`, stays racy under live submission;
/// those fields are deliberately not compared.)
fn run(lanes: usize, specs: &[JobSpec]) -> (Vec<(u64, u64, u64)>, RuntimeStats) {
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let config = RuntimeConfig {
        lanes,
        ..RuntimeConfig::fifo()
    };
    let rt = Runtime::serve(system, config).unwrap();
    let handles: Vec<_> = specs
        .iter()
        .map(|&s| rt.submit(JobRequest::new(0, s)).unwrap())
        .collect();
    let mut results: Vec<(u64, u64, u64)> = handles
        .into_iter()
        .map(|h| h.wait().unwrap())
        .map(|r| (r.id, r.checksum, r.cycles))
        .collect();
    let stats = rt.shutdown();
    results.sort_unstable();
    (results, stats)
}

fn assert_virtual_equivalence(scalar: &RuntimeStats, laned: &RuntimeStats) {
    assert_eq!(scalar.completed, laned.completed);
    assert_eq!(scalar.failed, laned.failed);
    assert_eq!(scalar.per_kind, laned.per_kind);
    assert_eq!(scalar.full_loads, laned.full_loads);
    assert_eq!(scalar.partial_switches, laned.partial_switches);
    assert_eq!(scalar.frames_written, laned.frames_written);
    assert_eq!(scalar.reconfig_time, laned.reconfig_time);
    assert_eq!(scalar.dma_time, laned.dma_time);
    assert_eq!(scalar.execute_time, laned.execute_time);
    // virtual_makespan is deliberately absent: it sums per-beat overlap
    // windows, and the *beat structure* depends on how worker pops race
    // the submitting thread — racy in both runs, laned or not.
}

#[test]
fn laned_trt_serving_matches_scalar_virtual_time_exactly() {
    // A same-design burst: the best case for gathering — the laned run
    // must actually batch (occupancy > 1) yet change nothing virtual.
    let specs: Vec<JobSpec> = (0..200).map(JobSpec::trt).collect();
    let (scalar_results, scalar) = run(1, &specs);
    let (laned_results, laned) = run(8, &specs);

    assert_eq!(
        scalar_results, laned_results,
        "per-job checksums and cycles must not depend on lanes"
    );
    assert_virtual_equivalence(&scalar, &laned);

    assert_eq!(scalar.laned_passes, 0, "lanes = 1 must never gather");
    assert_eq!(scalar.laned_jobs, 0);
    assert!(
        laned.laned_passes >= 1,
        "an upfront same-design burst must produce laned passes"
    );
    assert!(
        laned.lane_occupancy() > 1.0,
        "laned passes must average more than one job ({:.2})",
        laned.lane_occupancy()
    );
    assert_eq!(
        laned.laned_jobs + laned.scalar_passes,
        laned.completed,
        "every completed job is retired by exactly one pass"
    );
}

#[test]
fn laned_mixed_serving_matches_scalar_virtual_time_exactly() {
    // Mixed kinds exercise the carry path: a gather that pops a job for
    // another design must stash it and serve it next, in order.
    let specs: Vec<JobSpec> = (0..96).map(JobSpec::mixed).collect();
    let (scalar_results, scalar) = run(1, &specs);
    let (laned_results, laned) = run(8, &specs);

    assert_eq!(scalar_results, laned_results);
    assert_virtual_equivalence(&scalar, &laned);
}
