//! The FPGA histogrammer as a CHDL design.
//!
//! The hardware algorithm of §3.1: stream the hit list; for every hit
//! fetch its LUT word (one bit per pattern lane) and increment the lane
//! counters in parallel; after a pass, compare against the threshold.
//! A memory module of width `W` serves `W` pattern lanes per cycle, so a
//! bank of `P` patterns takes `⌈P/W⌉` passes over the hit list — the
//! relation behind all of §3.4's TRT numbers.
//!
//! Two design variants are generated by the same code path:
//!
//! * [`FpgaHistogrammer`] — self-contained (LUT in on-chip RAM), small
//!   scale, simulated cycle-accurately and checked bit-exactly against
//!   the CPU reference; it also *validates the cycle model* that
//!   [`system`](super::system) applies at full scale.
//! * [`build_external_design`] — the full-scale 176-lane datapath whose
//!   LUT words arrive through the memory-interconnect port from the
//!   mezzanine SSRAM. It is not simulated at full scale (the LUT exceeds
//!   on-chip RAM by design) but is *fitted* against the ORCA 3T125 budget
//!   to show the datapath is realisable.

use super::patterns::PatternBank;
use atlantis_chdl::signal::bits_for;
use atlantis_chdl::{Design, MemId, Sim};

/// Width of the per-pattern counters (8 bits: layer counts stay ≤ 160…
/// at full geometry a pattern has at most 160 straws, so 8 bits suffice).
pub const COUNTER_BITS: u8 = 8;

/// Build the histogrammer datapath into `d`.
///
/// Inputs: `hit` (straw id), `valid`, `clear`, `pass`, `threshold`,
/// `counter_sel`. Outputs: `counter_out` (selected lane counter),
/// `found<k>` (threshold bitmap in 64-bit chunks), and — for the external
/// variant — `mem_addr` towards the memory module.
///
/// When `bank` is `Some`, the LUT is an on-chip memory initialised from
/// the bank (self-contained variant) and its `MemId` is returned;
/// otherwise LUT words arrive via `mem_data<j>` inputs.
pub fn build_histogrammer(
    d: &mut Design,
    straws: u32,
    passes: u32,
    lanes: u32,
    bank: Option<&PatternBank>,
) -> Option<MemId> {
    assert!(lanes >= 1);
    let hit_w = bits_for(straws as u64);
    let pass_w = bits_for(passes as u64);
    let addr_w = bits_for(straws as u64 * passes as u64);

    let hit = d.input("hit", hit_w);
    let valid = d.input("valid", 1);
    let clear = d.input("clear", 1);
    let pass = d.input("pass", pass_w);
    let threshold = d.input("threshold", COUNTER_BITS);
    let sel_w = bits_for(lanes as u64);
    let counter_sel = d.input("counter_sel", sel_w);

    // addr = hit * passes + pass.
    let addr = d.scoped("addr", |d| {
        let hit_x = d.zext(hit, addr_w);
        let k = d.lit(passes as u64, addr_w);
        let scaled = d.mul(hit_x, k);
        let pass_x = d.zext(pass, addr_w);
        d.add(scaled, pass_x)
    });
    d.expose_output("mem_addr", addr);

    // LUT word for this (hit, pass): one bit per lane. Arrives one cycle
    // after the address (synchronous SSRAM), matching `valid_d`.
    let lut_mem;
    let mut lane_bits: Vec<atlantis_chdl::Signal> = Vec::with_capacity(lanes as usize);
    if let Some(bank) = bank {
        let lut = bank.lut(lanes);
        assert_eq!(lut.passes(), passes, "bank passes must match the datapath");
        assert_eq!(lut.straws(), straws);
        // Pack the wide LUT into 64-bit-lane on-chip memories.
        let mem_lanes = (lanes as usize).div_ceil(64);
        let mut mems = Vec::with_capacity(mem_lanes);
        for j in 0..mem_lanes {
            let w = (lanes as usize - j * 64).min(64) as u8;
            let contents: Vec<u64> = (0..straws * passes)
                .map(|i| {
                    let word = lut.word(i / passes, i % passes);
                    let lo = (j * 64) as u32;
                    let take = w as u32;
                    word.extract(lo, take)
                })
                .collect();
            mems.push((d.rom(format!("lut{j}"), w, &contents), w));
        }
        for (j, (mem, w)) in mems.iter().enumerate() {
            let data = d.read_sync(*mem, addr);
            for b in 0..*w {
                let bit = d.bit(data, b);
                d.label(format!("lutbit_{}_{}", j, b), bit);
                lane_bits.push(bit);
            }
        }
        lut_mem = Some(mems[0].0);
    } else {
        // External memory module: data inputs in 64-bit groups. The module
        // registers its output, so the timing matches the sync read above.
        let mem_lanes = (lanes as usize).div_ceil(64);
        for j in 0..mem_lanes {
            let w = (lanes as usize - j * 64).min(64) as u8;
            let data_in = d.input(format!("mem_data{j}"), w);
            let data = d.reg(format!("mem_data_r{j}"), data_in);
            for b in 0..w {
                lane_bits.push(d.bit(data, b));
            }
        }
        lut_mem = None;
    }

    // Valid travels with the LUT read latency.
    let valid_d = d.reg("valid_d", valid);

    // One counter per lane; cleared synchronously at pass start.
    let mut counters = Vec::with_capacity(lanes as usize);
    let mut found_bits = Vec::with_capacity(lanes as usize);
    d.push_scope("counters");
    for (i, &bit) in lane_bits.iter().enumerate() {
        let en = d.and(valid_d, bit);
        let slot = d.reg_slot(format!("cnt{i}"), COUNTER_BITS, 0);
        let q = slot.q;
        let next = d.inc(q);
        d.set_reg_controls(&slot, Some(en), Some(clear));
        d.drive_reg(slot, next);
        counters.push(q);
        let hit_thr = d.ge(q, threshold);
        found_bits.push(hit_thr);
    }
    d.pop_scope();

    // The full threshold bitmap only fits the pin budget at small lane
    // counts; at 176 lanes the hardware reads results out serially
    // through `counter_sel`, so expose the bitmap in chunks only when it
    // is pin-affordable (the cycle-accurate test variant).
    if lanes <= 64 {
        for (k, chunk) in found_bits.chunks(64).enumerate() {
            let rev: Vec<_> = chunk.iter().rev().copied().collect();
            let word = d.cat(&rev);
            d.expose_output(format!("found{k}"), word);
        }
    }
    // Any-track flag (drives the trigger accept line).
    let any = d.scoped("found_any", |d| {
        let mut acc = found_bits[0];
        for &b in &found_bits[1..] {
            acc = d.or(acc, b);
        }
        acc
    });
    d.expose_output("found_any", any);

    // Host read-out of one counter and its threshold flag.
    let out = d.select(counter_sel, &counters);
    d.expose_output("counter_out", out);
    let fsel = d.select(counter_sel, &found_bits);
    d.expose_output("found_sel", fsel);

    lut_mem
}

/// Build the full-scale external-LUT design (176 lanes, 80 000 straws,
/// the given pass count) for fitting studies.
pub fn build_external_design(straws: u32, passes: u32, lanes: u32) -> Design {
    let mut d = Design::new(format!("trt_hist_{lanes}x{passes}"));
    build_histogrammer(&mut d, straws, passes, lanes, None);
    d
}

/// A runnable, self-contained histogrammer instance.
#[derive(Debug)]
pub struct FpgaHistogrammer {
    sim: Sim,
    straws: u32,
    passes: u32,
    lanes: u32,
    n_patterns: usize,
    design: Design,
}

impl FpgaHistogrammer {
    /// Elaborate the design for `bank` with a RAM width of `lanes` bits.
    pub fn new(bank: &PatternBank, lanes: u32) -> Self {
        Self::with_sim(bank, lanes, Sim::new)
    }

    /// [`FpgaHistogrammer::new`], simulating the design on the `Sim` that
    /// `build` returns for it (engine-tier ablations pass a tuned engine
    /// or an optimized copy of the design; its ports keep their names).
    pub fn with_sim(bank: &PatternBank, lanes: u32, build: impl FnOnce(&Design) -> Sim) -> Self {
        let straws = bank.geometry().straws();
        let passes = (bank.len() as u32).div_ceil(lanes);
        let mut d = Design::new(format!("trt_hist_small_{lanes}"));
        build_histogrammer(&mut d, straws, passes, lanes, Some(bank));
        let sim = build(&d);
        FpgaHistogrammer {
            sim,
            straws,
            passes,
            lanes,
            n_patterns: bank.len(),
            design: d,
        }
    }

    /// The elaborated design (for fitting/statistics).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Number of passes over the hit list per event.
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Run one event; returns `(histogram, track list, cycles consumed)`.
    ///
    /// Cycle structure per pass: 1 clear cycle + one cycle per hit + 1
    /// drain cycle (the LUT read latency) — which is what the analytic
    /// model in [`system`](super::system) assumes.
    pub fn run_event(&mut self, hits: &[u32], threshold: u32) -> (Vec<u32>, Vec<usize>, u64) {
        assert!(threshold < (1 << COUNTER_BITS));
        let start = self.sim.cycle();
        let mut histogram = vec![0u32; self.n_patterns];
        let mut tracks = Vec::new();
        self.sim.set("threshold", threshold as u64);
        for pass in 0..self.passes {
            self.sim.set("pass", pass as u64);
            // Clear the lane counters.
            self.sim.set("clear", 1);
            self.sim.set("valid", 0);
            self.sim.step();
            self.sim.set("clear", 0);
            // Stream the hit list.
            for &h in hits {
                assert!(h < self.straws);
                self.sim.set("hit", h as u64);
                self.sim.set("valid", 1);
                self.sim.step();
            }
            // Drain the read pipeline.
            self.sim.set("valid", 0);
            self.sim.step();
            // Read the lane counters back.
            for lane in 0..self.lanes {
                let p = (pass * self.lanes + lane) as usize;
                if p >= self.n_patterns {
                    break;
                }
                self.sim.set("counter_sel", lane as u64);
                let v = self.sim.get("counter_out") as u32;
                histogram[p] = v;
                if v >= threshold {
                    tracks.push(p);
                }
            }
        }
        (histogram, tracks, self.sim.cycle() - start)
    }

    /// The cycle count the analytic model predicts for `n_hits`.
    pub fn predicted_cycles(&self, n_hits: u64) -> u64 {
        self.passes as u64 * (n_hits + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trt::cpu::CpuHistogrammer;
    use crate::trt::event::{EventGenerator, TrtGeometry};
    use atlantis_fabric::{fit, Device};
    use atlantis_simcore::rng::WorkloadRng;

    fn small_setup() -> (PatternBank, crate::trt::event::Event) {
        let g = TrtGeometry::small();
        let mut rng = WorkloadRng::seed_from_u64(17);
        let bank = PatternBank::generate(g, 48, &mut rng);
        let gen = EventGenerator::new(g);
        let ev = gen.generate(&bank, &mut rng);
        (bank, ev)
    }

    #[test]
    fn fpga_matches_cpu_reference_exactly() {
        let (bank, ev) = small_setup();
        let mut hw = FpgaHistogrammer::new(&bank, 16); // 3 passes
        let (hist_hw, tracks_hw, _) = hw.run_event(&ev.hits, 9);
        let sw = CpuHistogrammer::new(&bank, 9);
        let run = sw.run_on_pentium_ii(&ev);
        assert_eq!(hist_hw, run.histogram, "bit-exact agreement");
        assert_eq!(tracks_hw, run.tracks);
    }

    #[test]
    fn single_pass_when_lanes_cover_bank() {
        let (bank, ev) = small_setup();
        let mut hw = FpgaHistogrammer::new(&bank, 48);
        assert_eq!(hw.passes(), 1);
        let (hist, _, cycles) = hw.run_event(&ev.hits, 9);
        assert_eq!(hist, bank.reference_histogram(&ev.active));
        assert_eq!(cycles, hw.predicted_cycles(ev.hits.len() as u64));
    }

    #[test]
    fn cycle_count_matches_the_analytic_model() {
        let (bank, ev) = small_setup();
        for lanes in [8u32, 16, 24, 48] {
            let mut hw = FpgaHistogrammer::new(&bank, lanes);
            let (_, _, cycles) = hw.run_event(&ev.hits, 9);
            assert_eq!(
                cycles,
                hw.predicted_cycles(ev.hits.len() as u64),
                "lanes={lanes}: the system model's cycle formula must hold"
            );
        }
    }

    #[test]
    fn found_bitmap_matches_threshold() {
        let (bank, ev) = small_setup();
        let mut hw = FpgaHistogrammer::new(&bank, 48);
        let threshold = 9;
        let (hist, tracks, _) = hw.run_event(&ev.hits, threshold);
        for (p, &h) in hist.iter().enumerate() {
            assert_eq!(tracks.contains(&p), h >= threshold);
        }
    }

    #[test]
    fn readback_tree_collapses_to_select() {
        // The counter-readback mux tree reaches the engine unshared, so
        // fusion folds its selector slices into `MUX_BIT` and collapses
        // the tree into one `SELECT` lookup, leaving no plain mux.
        let (bank, _) = small_setup();
        for lanes in [8u32, 16, 48] {
            let hw = FpgaHistogrammer::new(&bank, lanes);
            let sim = Sim::new(hw.design());
            let ops = &sim.engine_stats().expect("compiled engine").opcodes;
            let count = |name| ops.iter().find(|(n, _)| *n == name).map_or(0, |&(_, c)| c);
            assert!(count("select") >= 1, "lanes={lanes}: no select: {ops:?}");
            assert_eq!(count("mux"), 0, "lanes={lanes}: plain muxes left: {ops:?}");
        }
    }

    #[test]
    fn full_scale_datapath_fits_the_orca() {
        // 176 lanes, 80 000 straws, 50 passes: the single-module §3.4
        // configuration. The LUT itself lives off-chip.
        let d = build_external_design(80_000, 50, 176);
        let fitted = fit(&d, &Device::orca_3t125()).expect("datapath must fit the ORCA 3T125");
        let rep = fitted.report();
        assert!(rep.gate_utilization < 0.5, "comfortable fit: {rep:?}");
        assert!(rep.io_pins <= 422, "within the ACB's per-FPGA pin budget");
    }

    #[test]
    fn oversized_onchip_lut_is_rejected_by_the_fitter() {
        // The same design with the LUT on-chip must NOT fit — this is why
        // the ACB has mezzanine memory modules at all.
        let g = TrtGeometry::default();
        let mut rng = WorkloadRng::seed_from_u64(3);
        let bank = PatternBank::generate(g, 352, &mut rng); // 2 passes @176
        let mut d = Design::new("trt_onchip_fullscale");
        build_histogrammer(&mut d, g.straws(), 2, 176, Some(&bank));
        let err = fit(&d, &Device::orca_3t125()).unwrap_err();
        assert!(
            matches!(err, atlantis_fabric::FitError::RamBits { .. }),
            "{err:?}"
        );
    }
}
