//! The pattern bank and its look-up-table layout.
//!
//! A *pattern* is a track template: the set of straws a straight or
//! slightly curved track crosses, one straw per layer. The bank is
//! transposed into the LUT the hardware uses: for every straw, a bit
//! vector over patterns (“every data bit representing one pattern”,
//! §3.1), laid out in wide mezzanine-SSRAM words so that one memory read
//! serves `ram_width` patterns simultaneously.

use super::event::TrtGeometry;
use atlantis_mem::WideWord;
use atlantis_simcore::rng::WorkloadRng;

/// A bank of track templates.
#[derive(Debug, Clone)]
pub struct PatternBank {
    geometry: TrtGeometry,
    /// `patterns[p]` = ascending straw ids the template crosses.
    patterns: Vec<Vec<u32>>,
}

impl PatternBank {
    /// Generate `count` templates: straight and curved tracks entering at
    /// a random φ with bounded slope and curvature (§3.1: “straight or
    /// curved tracks”).
    pub fn generate(geometry: TrtGeometry, count: usize, rng: &mut WorkloadRng) -> Self {
        let mut patterns = Vec::with_capacity(count);
        for _ in 0..count {
            let phi0 = rng.uniform(0.0, geometry.phi_bins as f64);
            let slope = rng.uniform(-0.8, 0.8);
            // Curvature bounded so the sagitta stays inside the image.
            let max_curv = 1.2 / geometry.layers as f64;
            let curv = rng.uniform(-max_curv, max_curv) / geometry.layers as f64;
            let mut straws = Vec::with_capacity(geometry.layers as usize);
            for layer in 0..geometry.layers {
                let l = layer as f64;
                let phi = phi0 + slope * l + curv * l * l;
                let bin = phi.rem_euclid(geometry.phi_bins as f64) as u32;
                straws.push(geometry.straw_id(bin.min(geometry.phi_bins - 1), layer));
            }
            straws.sort_unstable();
            straws.dedup();
            patterns.push(straws);
        }
        PatternBank { geometry, patterns }
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The geometry the bank was generated for.
    pub fn geometry(&self) -> TrtGeometry {
        self.geometry
    }

    /// The straw set of pattern `p`.
    pub fn pattern(&self, p: usize) -> &[u32] {
        &self.patterns[p]
    }

    /// Transpose into per-straw pattern lists: `rows[s]` = ascending
    /// pattern indices containing straw `s` (the sparse form the CPU
    /// baseline walks).
    pub fn straw_rows(&self) -> Vec<Vec<u32>> {
        let mut rows = vec![Vec::new(); self.geometry.straws() as usize];
        for (p, straws) in self.patterns.iter().enumerate() {
            for &s in straws {
                rows[s as usize].push(p as u32);
            }
        }
        rows
    }

    /// Reference histogramming: count active straws per pattern and apply
    /// `threshold`. This is the specification both the CPU baseline and
    /// the FPGA design must match.
    pub fn reference_histogram(&self, active: &[bool]) -> Vec<u32> {
        assert_eq!(active.len(), self.geometry.straws() as usize);
        self.patterns
            .iter()
            .map(|straws| straws.iter().filter(|&&s| active[s as usize]).count() as u32)
            .collect()
    }

    /// Lane-batched reference histogramming: one traversal of the
    /// pattern bank serves every lane. `lanes[l]` is lane `l`'s straw
    /// activation map; the result is one histogram per lane, bit-exact
    /// with [`PatternBank::reference_histogram`] applied lane by lane.
    ///
    /// The bank (patterns × straws) is the large, shared operand; the
    /// per-lane activations are small. Walking the bank once and
    /// accumulating all lanes in the inner loop amortizes the traversal
    /// across the batch — the same amortization a configured FPGA gets
    /// from streaming many events through one design.
    pub fn reference_histogram_lanes(&self, lanes: &[&[bool]]) -> Vec<Vec<u32>> {
        for active in lanes {
            assert_eq!(active.len(), self.geometry.straws() as usize);
        }
        let straws = self.geometry.straws() as usize;
        let mut hists = vec![vec![0u32; self.patterns.len()]; lanes.len()];
        if self.geometry.layers >= 256 {
            // A pattern crosses at most one straw per layer, so per-lane
            // byte counters are safe only below 256 layers; beyond that,
            // fall back to the per-lane walk.
            for (hist, active) in hists.iter_mut().zip(lanes) {
                for (p, pat) in self.patterns.iter().enumerate() {
                    hist[p] = pat.iter().filter(|&&s| active[s as usize]).count() as u32;
                }
            }
            return hists;
        }
        // SWAR over lane groups of 8: pack each straw's activations into
        // one u64 (one byte per lane), then a pattern's histogram value
        // for all 8 lanes is a single chain of u64 adds — the bank is
        // traversed once per group instead of once per lane.
        for (g, group) in lanes.chunks(8).enumerate() {
            let mut packed = vec![0u64; straws];
            for (l, active) in group.iter().enumerate() {
                let shift = 8 * l;
                for (slot, &a) in packed.iter_mut().zip(*active) {
                    *slot |= u64::from(a) << shift;
                }
            }
            for (p, pat) in self.patterns.iter().enumerate() {
                let mut acc = 0u64;
                for &s in pat {
                    acc += packed[s as usize];
                }
                for (l, hist) in hists[g * 8..].iter_mut().take(group.len()).enumerate() {
                    hist[p] = ((acc >> (8 * l)) & 0xFF) as u32;
                }
            }
        }
        hists
    }

    /// Patterns whose histogram value reaches `threshold`.
    pub fn find_tracks(&self, histogram: &[u32], threshold: u32) -> Vec<usize> {
        histogram
            .iter()
            .enumerate()
            .filter_map(|(p, &h)| (h >= threshold).then_some(p))
            .collect()
    }

    /// Build the hardware LUT for a RAM access width of `ram_width` bits.
    pub fn lut(&self, ram_width: u32) -> PatternLut {
        PatternLut::build(self, ram_width)
    }
}

/// The LUT as the ACB memory modules store it: for each straw and each
/// `ram_width`-bit group of patterns, one wide word whose bit `i` says
/// “pattern `group·width + i` contains this straw”.
#[derive(Debug, Clone)]
pub struct PatternLut {
    ram_width: u32,
    passes: u32,
    straws: u32,
    /// `words[straw as usize * passes + pass]`.
    words: Vec<WideWord>,
}

impl PatternLut {
    fn build(bank: &PatternBank, ram_width: u32) -> Self {
        assert!(ram_width > 0);
        let straws = bank.geometry.straws();
        let passes = (bank.len() as u32).div_ceil(ram_width);
        let mut words = vec![WideWord::zero(ram_width); straws as usize * passes as usize];
        for (p, pattern) in bank.patterns.iter().enumerate() {
            let pass = p as u32 / ram_width;
            let bit = p as u32 % ram_width;
            for &s in pattern {
                words[(s * passes + pass) as usize].set_bit(bit, true);
            }
        }
        PatternLut {
            ram_width,
            passes,
            straws,
            words,
        }
    }

    /// RAM access width in bits.
    pub fn ram_width(&self) -> u32 {
        self.ram_width
    }

    /// Number of passes over the hit list needed to cover all patterns
    /// (= LUT words per straw).
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Number of straw rows.
    pub fn straws(&self) -> u32 {
        self.straws
    }

    /// The LUT word for `(straw, pass)`.
    pub fn word(&self, straw: u32, pass: u32) -> &WideWord {
        &self.words[(straw * self.passes + pass) as usize]
    }

    /// Total LUT size in bits (what must fit the mezzanine SSRAM).
    pub fn total_bits(&self) -> u64 {
        self.words.len() as u64 * self.ram_width as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_bank() -> PatternBank {
        PatternBank::generate(TrtGeometry::small(), 24, &mut WorkloadRng::seed_from_u64(9))
    }

    #[test]
    fn patterns_have_one_straw_per_layer() {
        let bank = small_bank();
        for p in 0..bank.len() {
            let straws = bank.pattern(p);
            assert!(!straws.is_empty());
            assert!(straws.len() <= 16, "at most one straw per layer");
            // All layers distinct.
            let mut layers: Vec<u32> = straws.iter().map(|s| s % 16).collect();
            layers.sort_unstable();
            layers.dedup();
            assert_eq!(layers.len(), straws.len());
        }
    }

    #[test]
    fn straw_rows_transpose_correctly() {
        let bank = small_bank();
        let rows = bank.straw_rows();
        for (p, pattern) in (0..bank.len()).map(|p| (p, bank.pattern(p))) {
            for &s in pattern {
                assert!(
                    rows[s as usize].contains(&(p as u32)),
                    "straw {s} row lists {p}"
                );
            }
        }
        let total: usize = rows.iter().map(Vec::len).sum();
        let expected: usize = (0..bank.len()).map(|p| bank.pattern(p).len()).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn reference_histogram_counts_active_straws() {
        let bank = small_bank();
        // Activate exactly the straws of pattern 3.
        let mut active = vec![false; 256];
        for &s in bank.pattern(3) {
            active[s as usize] = true;
        }
        let hist = bank.reference_histogram(&active);
        assert_eq!(hist[3] as usize, bank.pattern(3).len());
        let tracks = bank.find_tracks(&hist, bank.pattern(3).len() as u32);
        assert!(tracks.contains(&3));
    }

    #[test]
    fn lane_histograms_match_serial() {
        let bank = small_bank();
        let mut rng = WorkloadRng::seed_from_u64(77);
        // Random activation maps, one per lane.
        let actives: Vec<Vec<bool>> = (0..5)
            .map(|_| (0..256).map(|_| rng.below(4) == 0).collect())
            .collect();
        let lanes: Vec<&[bool]> = actives.iter().map(Vec::as_slice).collect();
        let batched = bank.reference_histogram_lanes(&lanes);
        for (lane, active) in actives.iter().enumerate() {
            assert_eq!(
                batched[lane],
                bank.reference_histogram(active),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn lut_matches_straw_rows() {
        let bank = small_bank();
        let lut = bank.lut(8);
        assert_eq!(lut.passes(), 3, "24 patterns at 8 lanes = 3 passes");
        let rows = bank.straw_rows();
        for straw in 0..256u32 {
            let mut from_lut = Vec::new();
            for pass in 0..lut.passes() {
                let w = lut.word(straw, pass);
                for bit in w.iter_ones() {
                    from_lut.push(pass * 8 + bit);
                }
            }
            assert_eq!(from_lut, rows[straw as usize], "straw {straw}");
        }
    }

    #[test]
    fn paper_scale_lut_fits_the_mezzanine_module() {
        // Full scale: 80 000 straws × 50 passes of 176 bits (8 800
        // patterns) = 704 Mbit — 8 modules of 512k × 176 bits provide
        // 738 Mbit, so the B-physics full-scan bank fits 2 ACBs' modules;
        // a single module holds the LUT slice for its own 176 lanes
        // (80 000 words of 512k available).
        let g = TrtGeometry::default();
        assert!(g.straws() <= 512 * 1024, "one straw row per SSRAM word");
    }

    #[test]
    fn full_width_lut_is_single_pass() {
        let bank = small_bank();
        let lut = bank.lut(24);
        assert_eq!(lut.passes(), 1);
        assert_eq!(lut.total_bits(), 256 * 24);
    }
}
