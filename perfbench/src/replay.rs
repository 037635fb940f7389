//! Re-drivers: each lower layer's public entry point, called again with
//! the inputs a traced campaign recorded, and timed.
//!
//! The served path calls these layers from inside the scheduler, where
//! the benchmark cannot place a span. Replaying the recorded inputs in
//! isolation gives each layer's host cost per call; the attribution in
//! `trace` subtracts those totals from the span of the call the
//! benchmark made. A replay that does not reproduce the recorded
//! virtual outcome is reported as a divergence, because its timings
//! would then describe different work.

use crate::measure::Metrics;
use crate::trace::{LayerTime, Stopwatch};
use atlantis_apps::jobs::{JobKind, JobSpec, WorkloadContext};
use atlantis_backplane::{Aab, BackplaneKind};
use atlantis_board::SlotHalf;
use atlantis_chdl::Sim;
use atlantis_core::{AtlantisSystem, Coprocessor, TaskStats};
use atlantis_fabric::Device;
use atlantis_pci::DmaChannel;
use atlantis_runtime::BitstreamCache;
use atlantis_simcore::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// One `switch_to` call a board made, in order.
#[derive(Debug, Clone, Copy)]
pub struct SwitchCall {
    /// The design the job needed.
    pub kind: JobKind,
    /// Whether the served path reported a reconfiguration.
    pub switched: bool,
    /// `false` for boot preloads, which belong to set-up rather than to
    /// the campaign.
    pub campaign: bool,
}

/// Host cost of the reconfiguration path (`core` + `fabric` + the
/// `chdl` engine build paid inside every switch).
#[derive(Debug)]
pub struct ReconfigReplay {
    /// Every campaign `switch_to` call, no-ops included — the child
    /// covered by the campaign's spans.
    pub campaign_switch: LayerTime,
    /// `switch_to` calls that reconfigured (boot preloads included).
    pub reconfiguring: LayerTime,
    /// `FittedDesign::bitstream` per reconfiguration.
    pub bitstream: LayerTime,
    /// `Bitstream::diff` per partial reconfiguration.
    pub diff: LayerTime,
    /// `Sim::new` per reconfiguration, by design in [`JobKind::ALL`]
    /// order.
    pub build: [LayerTime; JobKind::COUNT],
    /// Compiled-engine ops and post-netopt nodes summed over the
    /// distinct designs built.
    pub ops_final: usize,
    /// See `ops_final`.
    pub netopt_nodes_after: usize,
    /// Task-switch counters summed over every replayed board.
    pub stats: TaskStats,
    /// Calls whose replayed switch/no-switch disagreed with the record.
    pub divergences: u64,
}

/// At most this many reconfigurations have their components re-driven
/// (evenly spaced through the campaign); every `switch_to` call itself
/// is always re-driven.
const COMPONENT_SAMPLES: usize = 512;

impl ReconfigReplay {
    /// Report the host-time figures of the reconfiguration path.
    pub fn put(&self, m: &mut Metrics) {
        m.put("core.switch_us", self.reconfiguring.us_per_call(), "us");
        m.put("fabric.bitstream_us", self.bitstream.us_per_call(), "us");
        m.put("fabric.diff_us", self.diff.us_per_call(), "us");
        for (k, b) in JobKind::ALL.iter().zip(&self.build) {
            m.put(
                format!("chdl.build_us.{}", k.design_name()),
                b.us_per_call(),
                "us",
            );
        }
        m.put("chdl.ops_final", self.ops_final as f64, "count");
        m.put(
            "chdl.netopt_nodes_after",
            self.netopt_nodes_after as f64,
            "count",
        );
    }
}

/// Replay each board's `switch_to` sequence on a fresh coprocessor of
/// `device`, installing fits from `cache` on first use exactly as the
/// schedulers do, and time every call; then time the switch's
/// components (`bitstream`, `diff`, `Sim::new`) on reconfiguring calls.
pub fn reconfig(
    device: &Device,
    cache: &BitstreamCache,
    boards: &[Vec<SwitchCall>],
) -> ReconfigReplay {
    let mut campaign = Stopwatch::new("core");
    let mut reconfiguring = Stopwatch::new("core");
    let mut stats = TaskStats::default();
    let mut divergences = 0;
    let mut done: Vec<(JobKind, Option<JobKind>)> = Vec::new();
    for seq in boards {
        let mut coproc = Coprocessor::new(device.clone());
        let mut loaded: Option<JobKind> = None;
        for call in seq {
            let name = call.kind.design_name();
            let t0 = Instant::now();
            if !coproc.has_task(name) {
                let fitted = cache.get(call.kind).expect("workload designs fit");
                coproc
                    .register_fitted(name, (*fitted).clone())
                    .expect("cache fits match the device");
            }
            let reconfig = coproc.switch_to(name).expect("registered task switches");
            let dt = t0.elapsed();
            let switched = reconfig > SimDuration::ZERO;
            if call.campaign {
                campaign.add(dt, 1);
            }
            if switched {
                reconfiguring.add(dt, 1);
                done.push((call.kind, loaded));
            }
            divergences += u64::from(switched != call.switched);
            loaded = Some(call.kind);
        }
        let s = coproc.stats();
        stats.full_loads += s.full_loads;
        stats.partial_switches += s.partial_switches;
        stats.frames_written += s.frames_written;
        stats.reconfig_time += s.reconfig_time;
    }

    let mut bitstream = Stopwatch::new("fabric");
    let mut diff = Stopwatch::new("fabric");
    let mut build = JobKind::ALL.map(|_| Stopwatch::new("chdl"));
    let mut engines: [Option<(usize, usize)>; JobKind::COUNT] = [None; JobKind::COUNT];
    for &(kind, prev) in done
        .iter()
        .step_by(done.len().div_ceil(COMPONENT_SAMPLES).max(1))
    {
        let fitted = cache.get(kind).expect("workload designs fit");
        let target = bitstream.time(|| fitted.bitstream());
        if let Some(prev) = prev {
            let base = cache.get(prev).expect("workload designs fit").bitstream();
            std::hint::black_box(diff.time(|| base.diff(&target)));
        }
        let sim = build[kind.index()].time(|| Sim::new(fitted.design()));
        if let Some(e) = sim.engine_stats() {
            engines[kind.index()] = Some((e.ops_final, e.netopt_nodes_after));
        }
    }
    ReconfigReplay {
        campaign_switch: campaign.finish(),
        reconfiguring: reconfiguring.finish(),
        bitstream: bitstream.finish(),
        diff: diff.finish(),
        build: build.map(|b| b.finish()),
        ops_final: engines.iter().flatten().map(|e| e.0).sum(),
        netopt_nodes_after: engines.iter().flatten().map(|e| e.1).sum(),
        stats,
        divergences,
    }
}

/// Host cost of `WorkloadContext` execution, per job kind.
#[derive(Debug)]
pub struct AppsReplay {
    /// All calls together — the child covered by the campaign's spans.
    pub total: LayerTime,
    /// Per kind, in [`JobKind::ALL`] order: total time and jobs.
    pub per_kind: [LayerTime; JobKind::COUNT],
}

impl AppsReplay {
    /// Report mean host microseconds per job, by kind.
    pub fn put(&self, m: &mut Metrics) {
        for (k, name) in self
            .per_kind
            .iter()
            .zip(["trt", "volume", "image", "nbody"])
        {
            m.put(format!("apps.execute_us.{name}"), k.us_per_call(), "us");
        }
    }
}

/// Replay execution batches on a fresh `WorkloadContext`: single-spec
/// batches through `execute` (the virtual-time shard's call), longer
/// ones through `execute_batch` (the threaded runtime's laned call).
/// Batches are single-kind; a batch's time is charged to its jobs.
pub fn apps(batches: &[Vec<JobSpec>]) -> AppsReplay {
    let mut ctx = WorkloadContext::new();
    let mut total = Stopwatch::new("apps");
    let mut per_kind = JobKind::ALL.map(|_| (Duration::ZERO, 0u64));
    for batch in batches {
        let Some(first) = batch.first() else { continue };
        let t0 = Instant::now();
        if batch.len() == 1 {
            std::hint::black_box(ctx.execute(first));
        } else {
            std::hint::black_box(ctx.execute_batch(batch));
        }
        let dt = t0.elapsed();
        total.add(dt, 1);
        let k = &mut per_kind[first.kind.index()];
        k.0 += dt;
        k.1 += batch.len() as u64;
    }
    AppsReplay {
        total: total.finish(),
        per_kind: per_kind.map(|(t, n)| {
            let mut s = Stopwatch::new("apps");
            s.add(t, n);
            s.finish()
        }),
    }
}

/// One board's served job, as the backplane saw it.
#[derive(Debug, Clone, Copy)]
pub struct BoardJob {
    /// Board index within the shard.
    pub board: usize,
    /// When the board started the job.
    pub started: SimTime,
    /// Payload bytes in.
    pub payload: u64,
    /// Result bytes out.
    pub result: u64,
    /// Reconfiguration plus execute time between the two transfers.
    pub busy: SimDuration,
    /// The recorded completion instant.
    pub done: SimTime,
}

/// Replay one shard's board transfers on a fresh backplane wired like
/// the shard's (ACB `2i` to AIB `2i+1`, full width, plus the reserved
/// hop connection), in start order. Returns the layer time and each
/// job's payload-landed instant, and counts jobs whose replayed result
/// transfer does not end at the recorded completion.
pub fn backplane(boards: usize, jobs: &[BoardJob]) -> (LayerTime, Vec<SimTime>, u64) {
    let mut aab = Aab::new(BackplaneKind::Configurable, 2 * boards + 2);
    let conns: Vec<_> = (0..boards)
        .map(|i| {
            aab.connect(2 * i, 2 * i + 1, aab.config().channels())
                .expect("fresh backplane has free channels")
        })
        .collect();
    aab.connect(2 * boards, 2 * boards + 1, aab.config().channels())
        .expect("fresh backplane has free channels");
    let mut landed = Vec::with_capacity(jobs.len());
    let mut divergences = 0;
    let t0 = Instant::now();
    for j in jobs {
        let (_, data_in) = aab
            .transfer(conns[j.board], j.started, j.payload)
            .expect("live connection");
        let (_, done) = aab
            .transfer(conns[j.board], data_in + j.busy, j.result)
            .expect("live connection");
        landed.push(data_in);
        divergences += u64::from(done != j.done);
    }
    let mut sw = Stopwatch::new("backplane");
    sw.add(t0.elapsed(), 2 * jobs.len() as u64);
    (sw.finish(), landed, divergences)
}

/// Replay the threaded runtime's per-job PCI transfers (payload in on
/// channel 0, result out on channel 1, rotating job-slot halves) on a
/// fresh ACB driver built the way `Runtime::serve` receives it. Returns
/// the layer time and the virtual DMA time of each job.
pub fn pci(specs: &[JobSpec]) -> (LayerTime, Vec<SimDuration>) {
    let (_, mut acbs, _) = AtlantisSystem::builder().with_acbs(1).build().into_boards();
    let mut driver = acbs.pop().expect("one ACB");
    let halves = driver.target().job_slots() * 2;
    let addrs: Vec<u64> = (0..halves)
        .map(|i| {
            let half = if i % 2 == 0 {
                SlotHalf::Ping
            } else {
                SlotHalf::Pong
            };
            driver
                .target()
                .job_slot_half_addr(i / 2, half)
                .expect("slot in range")
        })
        .collect();
    let max = specs
        .iter()
        .map(|s| s.payload_bytes().max(s.result_bytes()))
        .max()
        .unwrap_or(0) as usize;
    let mut buf = vec![0u8; max];
    let mut virt = Vec::with_capacity(specs.len());
    let t0 = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let addr = addrs[i % halves];
        let t_in =
            driver.dma_write_from_on(DmaChannel::Ch0, addr, &buf[..spec.payload_bytes() as usize]);
        let t_out = driver.dma_read_into_on(
            DmaChannel::Ch1,
            addr,
            &mut buf[..spec.result_bytes() as usize],
        );
        virt.push(t_in + t_out);
    }
    let elapsed = t0.elapsed();
    driver.take_elapsed();
    let mut sw = Stopwatch::new("pci");
    sw.add(elapsed, 2 * specs.len() as u64);
    (sw.finish(), virt)
}
