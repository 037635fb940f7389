//! Job adapters — uniform wrappers around the four §3 workloads.
//!
//! The paper's point is that one ATLANTIS machine serves *many*
//! applications back to back via hardware task switches (§2, §4). The
//! serving runtime therefore needs every workload behind one interface:
//! what FPGA design does a job need, how many bytes does its payload DMA
//! move, and — given a deterministic spec — what result does it produce
//! and how much virtual FPGA time does it burn. This module provides
//! exactly that, scaled down so a single job executes in microseconds of
//! host time while keeping the *virtual* cost model of the full
//! workload.
//!
//! Determinism matters: two schedulers processing the same job specs in
//! different orders must produce identical per-job checksums, which is
//! how the benchmarks prove "equal correctness" between scheduling
//! policies.

use crate::image2d::{fpga::build_sobel_engine, Image2d};
use crate::nbody::{
    pipeline::{build_force_pipeline, FixedPointSpec},
    NBodySystem,
};
use crate::trt::{fpga::build_external_design, EventGenerator, PatternBank, TrtGeometry};
use crate::volume::{fpga::build_compositor, pipeline::simulate_frame, PipelineConfig};
use atlantis_board::{CpuClass, HostCpu};
use atlantis_chdl::Design;
use atlantis_simcore::rng::WorkloadRng;
use atlantis_simcore::{Frequency, SimDuration};

/// Straws in the serving-scale TRT geometry (64 φ-bins × 32 layers).
pub const TRT_STRAWS: u32 = 64 * 32;
/// Patterns in the serving-scale TRT bank.
pub const TRT_PATTERNS: usize = 256;

/// The workload families a job can belong to — §3's four application
/// domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// TRT trigger: histogram one detector event (§3.1).
    TrtEvent,
    /// Volume rendering: one frame through the ray pipeline (§3.2).
    VolumeFrame,
    /// 2-D image processing: one Sobel-filtered frame (§3).
    ImageFilter,
    /// Astronomy: one N-body force evaluation (§3.3).
    NBodyStep,
}

impl JobKind {
    /// Every kind, in declaration (discriminant) order — the order mixed
    /// workloads are dealt in and per-kind counters are indexed by.
    pub const ALL: [JobKind; 4] = [
        JobKind::TrtEvent,
        JobKind::VolumeFrame,
        JobKind::ImageFilter,
        JobKind::NBodyStep,
    ];

    /// Number of workload kinds. Size maps and tables with this instead
    /// of a literal `4`, so adding a kind grows every consumer.
    pub const COUNT: usize = Self::ALL.len();

    /// The position of this kind in [`ALL`](Self::ALL) — a stable index
    /// for per-kind counters and maps.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The name of the FPGA design this workload needs loaded. This is
    /// the key of the runtime's bitstream cache and of the coprocessor
    /// task library.
    pub fn design_name(self) -> &'static str {
        match self {
            JobKind::TrtEvent => "trt_histogrammer",
            JobKind::VolumeFrame => "volume_compositor",
            JobKind::ImageFilter => "image_sobel",
            JobKind::NBodyStep => "nbody_force",
        }
    }

    /// Elaborate the workload's FPGA design (serving-scale parameters;
    /// every one fits the ACB's ORCA 3T125). Deterministic: repeated
    /// calls produce identical netlists, so bitstream diffs between two
    /// kinds are stable.
    pub fn build_design(self) -> Design {
        match self {
            JobKind::TrtEvent => build_external_design(1024, 2, 16),
            JobKind::VolumeFrame => {
                let mut d = Design::new("volume_compositor");
                build_compositor(&mut d);
                d
            }
            JobKind::ImageFilter => {
                let mut d = Design::new("image_sobel");
                build_sobel_engine(&mut d, 64);
                d
            }
            JobKind::NBodyStep => {
                let mut d = Design::new("nbody_force");
                build_force_pipeline(&mut d, &FixedPointSpec::new(0.05));
                d
            }
        }
    }
}

/// A deterministic description of one job: everything a worker needs to
/// reproduce the computation, independent of which device runs it or
/// when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload family.
    pub kind: JobKind,
    /// Scale knob: tracks per TRT event, rays per volume frame, image
    /// side length, or body count.
    pub size: u32,
    /// Seed for the job's synthetic input data.
    pub seed: u64,
}

impl JobSpec {
    /// A TRT event job embedding `1 + seed % 4` tracks.
    pub fn trt(seed: u64) -> Self {
        JobSpec {
            kind: JobKind::TrtEvent,
            size: 4,
            seed,
        }
    }

    /// A volume frame of `rays` rays (clamped to 8..=512).
    pub fn volume(rays: u32, seed: u64) -> Self {
        JobSpec {
            kind: JobKind::VolumeFrame,
            size: rays.clamp(8, 512),
            seed,
        }
    }

    /// A Sobel filter over a `side`×`side` image (clamped to 8..=256).
    pub fn image(side: u32, seed: u64) -> Self {
        JobSpec {
            kind: JobKind::ImageFilter,
            size: side.clamp(8, 256),
            seed,
        }
    }

    /// An N-body force evaluation over `bodies` bodies (clamped to
    /// 4..=256).
    pub fn nbody(bodies: u32, seed: u64) -> Self {
        JobSpec {
            kind: JobKind::NBodyStep,
            size: bodies.clamp(4, 256),
            seed,
        }
    }

    /// Job `i` of the canonical mixed-workload stream: kinds interleave
    /// in runs (several same-kind jobs arrive together, as real clients
    /// produce them), sizes and seeds vary deterministically with `i`.
    pub fn mixed(i: u64) -> Self {
        let kind = JobKind::ALL[((i / 4) % 4) as usize];
        match kind {
            JobKind::TrtEvent => Self::trt(i),
            JobKind::VolumeFrame => Self::volume(32 + (i % 5) as u32 * 16, i),
            JobKind::ImageFilter => Self::image(24 + (i % 3) as u32 * 8, i),
            JobKind::NBodyStep => Self::nbody(16 + (i % 4) as u32 * 8, i),
        }
    }

    /// Bytes of input payload the host DMAs to the board for this job.
    pub fn payload_bytes(&self) -> u64 {
        match self.kind {
            // Hit list at the generator's ~25 % occupancy, 4 B per hit.
            JobKind::TrtEvent => TRT_STRAWS as u64,
            // 16-byte ray descriptors plus a tile parameter block.
            JobKind::VolumeFrame => self.size as u64 * 16 + 4096,
            // The raw 8-bit image.
            JobKind::ImageFilter => self.size as u64 * self.size as u64,
            // Position (3×8 B) + mass (8 B) per body.
            JobKind::NBodyStep => self.size as u64 * 32,
        }
    }

    /// Bytes of result the host DMAs back after execution.
    pub fn result_bytes(&self) -> u64 {
        match self.kind {
            JobKind::TrtEvent => TRT_PATTERNS as u64 * 4,
            JobKind::VolumeFrame => 64,
            JobKind::ImageFilter => self.size as u64 * self.size as u64,
            JobKind::NBodyStep => self.size as u64 * 24,
        }
    }
}

/// What executing a job produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// Digest of the job's full output (deterministic per spec).
    pub checksum: u64,
    /// FPGA cycles the job consumed.
    pub cycles: u64,
    /// Virtual execution time at the workload's design clock.
    pub compute: SimDuration,
}

/// Per-worker execution context: the expensive, shared inputs every job
/// of a kind reuses (pattern bank, event generator, CPU model). Build
/// one per worker thread; `execute` is then cheap and deterministic.
#[derive(Debug)]
pub struct WorkloadContext {
    bank: PatternBank,
    generator: EventGenerator,
    pipeline: PipelineConfig,
    cpu: HostCpu,
    trt_clock: Frequency,
}

impl Default for WorkloadContext {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadContext {
    /// Build the shared workload inputs (a few milliseconds, once per
    /// worker).
    pub fn new() -> Self {
        let geometry = TrtGeometry {
            phi_bins: 64,
            layers: 32,
        };
        let mut rng = WorkloadRng::seed_from_u64(0xA7_1A_57_15);
        let bank = PatternBank::generate(geometry, TRT_PATTERNS, &mut rng);
        let mut generator = EventGenerator::new(geometry);
        generator.noise_occupancy = 0.05;
        WorkloadContext {
            bank,
            generator,
            pipeline: PipelineConfig::atlantis_parallel(),
            cpu: HostCpu::new(CpuClass::Celeron450),
            trt_clock: Frequency::from_mhz(40),
        }
    }

    /// Execute a batch of jobs in one laned pass where the workload
    /// supports it, falling back to per-spec [`WorkloadContext::execute`]
    /// otherwise. **Bit-exact** with executing each spec serially — same
    /// checksums, same cycles, same virtual compute time — the batched
    /// path only changes host wall clock.
    ///
    /// TRT events batch: every event's histogramming shares one traversal
    /// of the pattern bank
    /// ([`PatternBank::reference_histogram_lanes`]), which is where the
    /// serial path spends nearly all its time. The other kinds have no
    /// shared large operand, so they execute per spec.
    pub fn execute_batch(&mut self, specs: &[JobSpec]) -> Vec<JobOutcome> {
        if specs.len() < 2 || !specs.iter().all(|s| s.kind == JobKind::TrtEvent) {
            return specs.iter().map(|s| self.execute(s)).collect();
        }
        // Generate every lane's event exactly as the serial path would.
        let events: Vec<_> = specs
            .iter()
            .map(|spec| {
                let mut rng = WorkloadRng::seed_from_u64(spec.seed ^ 0x0B5E55ED);
                let mut generator = self.generator.clone();
                generator.tracks_per_event = 1 + (spec.seed % 4) as usize;
                generator.generate(&self.bank, &mut rng)
            })
            .collect();
        let lanes: Vec<&[bool]> = events.iter().map(|e| e.active.as_slice()).collect();
        let histograms = self.bank.reference_histogram_lanes(&lanes);
        events
            .iter()
            .zip(&histograms)
            .map(|(event, histogram)| {
                let tracks = self.bank.find_tracks(histogram, 24);
                let mut h = Fnv::new();
                for v in histogram {
                    h.push(*v as u64);
                }
                for t in &tracks {
                    h.push(*t as u64);
                }
                let cycles = 2 * (event.hits.len() as u64 + 2);
                JobOutcome {
                    checksum: h.finish(),
                    cycles,
                    compute: self.trt_clock.cycles(cycles),
                }
            })
            .collect()
    }

    /// Execute a job: produce its output digest and virtual cost.
    /// Deterministic in `spec` — the same spec gives the same outcome on
    /// any worker, in any order, under any scheduling policy.
    pub fn execute(&mut self, spec: &JobSpec) -> JobOutcome {
        let mut rng = WorkloadRng::seed_from_u64(spec.seed ^ 0x0B5E55ED);
        match spec.kind {
            JobKind::TrtEvent => {
                let mut generator = self.generator.clone();
                generator.tracks_per_event = 1 + (spec.seed % 4) as usize;
                let event = generator.generate(&self.bank, &mut rng);
                let histogram = self.bank.reference_histogram(&event.active);
                let tracks = self.bank.find_tracks(&histogram, 24);
                let mut h = Fnv::new();
                for v in &histogram {
                    h.push(*v as u64);
                }
                for t in &tracks {
                    h.push(*t as u64);
                }
                // Per pass: 1 clear + one hit per cycle + 1 drain; the
                // serving bank needs 2 passes at 176-bit module width.
                let cycles = 2 * (event.hits.len() as u64 + 2);
                JobOutcome {
                    checksum: h.finish(),
                    cycles,
                    compute: self.trt_clock.cycles(cycles),
                }
            }
            JobKind::VolumeFrame => {
                let samples: Vec<u32> = (0..spec.size).map(|_| rng.below(40) as u32).collect();
                let stats = simulate_frame(&self.pipeline, &samples);
                let mut h = Fnv::new();
                h.push(stats.cycles);
                h.push(stats.issued);
                h.push(stats.stalls);
                JobOutcome {
                    checksum: h.finish(),
                    cycles: stats.cycles,
                    compute: stats.frame_time,
                }
            }
            JobKind::ImageFilter => {
                let img = Image2d::synthetic(spec.size, spec.size, &mut rng);
                let run = img.sobel(&mut self.cpu);
                let mut h = Fnv::new();
                for &p in run.output.pixels() {
                    h.push(p as u64);
                }
                // Streaming engine: one pixel per cycle plus the window
                // fill latency (one full row + the 3×3 delay chain).
                let cycles = img.len() as u64 + spec.size as u64 + 4;
                JobOutcome {
                    checksum: h.finish(),
                    cycles,
                    compute: self.trt_clock.cycles(cycles),
                }
            }
            JobKind::NBodyStep => {
                let sys = NBodySystem::plummer(spec.size as usize, &mut rng);
                let acc = sys.accelerations();
                let mut h = Fnv::new();
                for a in &acc {
                    for &c in a {
                        // Quantize so the digest is a stable function of
                        // the physics, not of float formatting.
                        h.push((c * 1e9).round() as i64 as u64);
                    }
                }
                // GRAPE-style pipeline: one pair per cycle + drain.
                let cycles = sys.pairs() + 16;
                JobOutcome {
                    checksum: h.finish(),
                    cycles,
                    compute: self.trt_clock.cycles(cycles),
                }
            }
        }
    }
}

impl WorkloadContext {
    /// Verify a result checksum against the deterministic software
    /// model — the RISC half of the hybrid machine recomputing what the
    /// FPGA claims it produced. Returns whether the checksum matches,
    /// plus the virtual host time the check costs. This is the detector
    /// of last resort for configuration upsets a CRC read-back cannot
    /// see: a corrupted design produces a wrong digest, the software
    /// model never does.
    ///
    /// TRT events self-check cheaply (the histogram totals are
    /// re-derivable from the hit list at roughly the engine's own
    /// cost); the other workloads pay a full software re-execution,
    /// modelled at a fixed slowdown over the FPGA pipeline.
    pub fn self_check(&mut self, spec: &JobSpec, checksum: u64) -> (bool, SimDuration) {
        let oracle = self.execute(spec);
        let cost = match spec.kind {
            JobKind::TrtEvent => oracle.compute,
            _ => oracle.compute * 20,
        };
        (oracle.checksum == checksum, cost)
    }
}

/// FNV-1a, 64-bit — a tiny stable digest for job outputs.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlantis_fabric::{fit, Device};

    #[test]
    fn every_design_fits_the_acb_fpga() {
        for kind in JobKind::ALL {
            let d = kind.build_design();
            let fitted = fit(&d, &Device::orca_3t125())
                .unwrap_or_else(|e| panic!("{:?} design must fit: {e}", kind));
            assert!(fitted.report().gates > 0);
        }
    }

    #[test]
    fn kind_index_is_the_position_in_all() {
        for kind in JobKind::ALL {
            assert_eq!(JobKind::ALL[kind.index()], kind);
        }
    }

    #[test]
    fn design_names_are_distinct() {
        let mut names: Vec<&str> = JobKind::ALL.iter().map(|k| k.design_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn execution_is_deterministic_across_contexts() {
        let mut a = WorkloadContext::new();
        let mut b = WorkloadContext::new();
        for i in 0..16u64 {
            let spec = JobSpec::mixed(i);
            let ra = a.execute(&spec);
            // Execute in a scrambled order on the second context.
            let rb = b.execute(&JobSpec::mixed(15 - i));
            let ra2 = b.execute(&spec);
            assert_eq!(ra, ra2, "job {i} must not depend on order");
            let _ = (ra, rb);
        }
    }

    #[test]
    fn outcomes_have_positive_cost_and_distinct_checksums() {
        let mut ctx = WorkloadContext::new();
        let mut sums = Vec::new();
        for i in 0..32u64 {
            let out = ctx.execute(&JobSpec::mixed(i));
            assert!(out.cycles > 0);
            assert!(out.compute > SimDuration::ZERO);
            sums.push(out.checksum);
        }
        sums.sort_unstable();
        sums.dedup();
        assert!(sums.len() >= 30, "checksums should almost never collide");
    }

    #[test]
    fn batched_execution_is_bit_exact_with_serial() {
        let mut serial = WorkloadContext::new();
        let mut batched = WorkloadContext::new();
        // Homogeneous TRT batch: the laned bank traversal path.
        let trt: Vec<JobSpec> = (0..12).map(JobSpec::trt).collect();
        let batch = batched.execute_batch(&trt);
        for (spec, out) in trt.iter().zip(&batch) {
            assert_eq!(*out, serial.execute(spec), "spec {spec:?}");
        }
        // Mixed batch: falls back per spec, still bit-exact.
        let mixed: Vec<JobSpec> = (0..8).map(JobSpec::mixed).collect();
        let batch = batched.execute_batch(&mixed);
        for (spec, out) in mixed.iter().zip(&batch) {
            assert_eq!(*out, serial.execute(spec), "spec {spec:?}");
        }
        // Degenerate batches.
        assert!(batched.execute_batch(&[]).is_empty());
        let one = batched.execute_batch(&[JobSpec::trt(99)]);
        assert_eq!(one[0], serial.execute(&JobSpec::trt(99)));
    }

    #[test]
    fn self_check_accepts_honest_results_and_rejects_corrupt_ones() {
        let mut exec = WorkloadContext::new();
        let mut check = WorkloadContext::new();
        for i in 0..8u64 {
            let spec = JobSpec::mixed(i);
            let out = exec.execute(&spec);
            let (ok, cost) = check.self_check(&spec, out.checksum);
            assert!(ok, "honest checksum for {spec:?}");
            assert!(cost >= out.compute, "verification is never free");
            let (ok, _) = check.self_check(&spec, out.checksum ^ 1);
            assert!(!ok, "a flipped digest must be caught");
        }
        // The TRT fast path is cheaper than a software re-execution.
        let spec = JobSpec::trt(3);
        let out = exec.execute(&spec);
        let (_, trt_cost) = check.self_check(&spec, out.checksum);
        assert_eq!(trt_cost, out.compute);
        let vol = JobSpec::volume(64, 3);
        let vol_out = exec.execute(&vol);
        let (_, vol_cost) = check.self_check(&vol, vol_out.checksum);
        assert_eq!(vol_cost, vol_out.compute * 20);
    }

    #[test]
    fn payloads_fit_a_job_slot_half() {
        // Half, not whole: the pipelined serving path double-buffers
        // jobs in ping/pong slot halves, so every payload and result
        // must fit a half-slot window.
        for i in 0..64u64 {
            let spec = JobSpec::mixed(i);
            assert!(spec.payload_bytes() <= atlantis_board::JOB_SLOT_HALF_BYTES);
            assert!(spec.result_bytes() <= atlantis_board::JOB_SLOT_HALF_BYTES);
            assert!(spec.payload_bytes() > 0);
        }
    }

    #[test]
    fn mixed_stream_covers_all_kinds_in_runs() {
        let kinds: Vec<JobKind> = (0..16).map(|i| JobSpec::mixed(i).kind).collect();
        for kind in JobKind::ALL {
            assert!(kinds.contains(&kind));
        }
        // Runs of four: batching-friendly arrival order.
        assert_eq!(kinds[0], kinds[3]);
        assert_ne!(kinds[3], kinds[4]);
    }
}
