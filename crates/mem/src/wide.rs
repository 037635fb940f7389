//! Wide data words, stored as little-endian lanes of `u64`.
//!
//! The ATLANTIS memory interconnect reaches widths far beyond a machine
//! word — 176 bits per module for the TRT trigger, 1408 bits across a
//! 2-ACB system. A [`WideWord`] is a fixed-width bit vector with cheap
//! lane-level access, masked so that bits beyond the declared width are
//! always zero.

/// A `width`-bit word stored as ⌈width/64⌉ little-endian `u64` lanes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WideWord {
    width: u32,
    lanes: Vec<u64>,
}

/// Number of `u64` lanes needed for `width` bits.
pub fn lanes_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

impl WideWord {
    /// The all-zero word of the given width.
    pub fn zero(width: u32) -> Self {
        assert!(width > 0, "zero-width word");
        WideWord {
            width,
            lanes: vec![0; lanes_for(width)],
        }
    }

    /// A word built from lanes (must match the lane count; the top lane is
    /// masked to the declared width).
    pub fn from_lanes(width: u32, lanes: Vec<u64>) -> Self {
        assert_eq!(lanes.len(), lanes_for(width), "lane count mismatch");
        let mut w = WideWord { width, lanes };
        w.mask_top();
        w
    }

    fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let last = self.lanes.len() - 1;
            self.lanes[last] &= (1u64 << rem) - 1;
        }
    }

    /// The declared width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The lanes, little-endian (lane 0 holds bits 63..0).
    pub fn lanes(&self) -> &[u64] {
        &self.lanes
    }

    /// Read one bit.
    pub fn bit(&self, index: u32) -> bool {
        assert!(index < self.width, "bit {index} out of {} bits", self.width);
        (self.lanes[(index / 64) as usize] >> (index % 64)) & 1 == 1
    }

    /// Set one bit.
    pub fn set_bit(&mut self, index: u32, value: bool) {
        assert!(index < self.width, "bit {index} out of {} bits", self.width);
        let lane = &mut self.lanes[(index / 64) as usize];
        let mask = 1u64 << (index % 64);
        if value {
            *lane |= mask;
        } else {
            *lane &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.lanes.iter().map(|l| l.count_ones()).sum()
    }

    /// True when every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.lanes.iter().all(|&l| l == 0)
    }

    /// Iterate the indices of all set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.lanes.iter().enumerate().flat_map(move |(li, &lane)| {
            let mut l = lane;
            std::iter::from_fn(move || {
                if l == 0 {
                    None
                } else {
                    let bit = l.trailing_zeros();
                    l &= l - 1;
                    Some(li as u32 * 64 + bit)
                }
            })
        })
    }

    /// Bitwise OR with another word of the same width.
    pub fn or_assign(&mut self, other: &WideWord) {
        assert_eq!(self.width, other.width, "width mismatch");
        for (a, b) in self.lanes.iter_mut().zip(&other.lanes) {
            *a |= b;
        }
    }

    /// Extract a 64-bit-or-narrower field starting at `lo`.
    pub fn extract(&self, lo: u32, width: u32) -> u64 {
        assert!((1..=64).contains(&width), "extract width out of range");
        assert!(lo + width <= self.width, "extract out of range");
        let lane = (lo / 64) as usize;
        let off = lo % 64;
        let mut v = self.lanes[lane] >> off;
        if off + width > 64 {
            v |= self.lanes[lane + 1] << (64 - off);
        }
        if width < 64 {
            v &= (1u64 << width) - 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_for_boundaries() {
        assert_eq!(lanes_for(1), 1);
        assert_eq!(lanes_for(64), 1);
        assert_eq!(lanes_for(65), 2);
        assert_eq!(lanes_for(176), 3);
        assert_eq!(lanes_for(1408), 22);
    }

    #[test]
    fn bit_get_set_round_trip() {
        let mut w = WideWord::zero(176);
        for i in [0u32, 63, 64, 127, 128, 175] {
            assert!(!w.bit(i));
            w.set_bit(i, true);
            assert!(w.bit(i));
        }
        assert_eq!(w.count_ones(), 6);
        w.set_bit(64, false);
        assert_eq!(w.count_ones(), 5);
    }

    #[test]
    fn top_lane_masked_on_construction() {
        let w = WideWord::from_lanes(68, vec![u64::MAX, u64::MAX]);
        assert_eq!(w.lanes()[1], 0xF, "bits above width are cleared");
        assert_eq!(w.count_ones(), 68);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut w = WideWord::zero(176);
        let set = [3u32, 64, 100, 175];
        for &i in &set {
            w.set_bit(i, true);
        }
        let got: Vec<u32> = w.iter_ones().collect();
        assert_eq!(got, set);
    }

    #[test]
    fn extract_within_lane_and_across() {
        let mut w = WideWord::zero(128);
        w.set_bit(4, true);
        w.set_bit(5, true);
        assert_eq!(w.extract(4, 4), 0b0011);
        // Cross-lane: bits 62..=65 set
        let mut x = WideWord::zero(128);
        for i in 62..=65 {
            x.set_bit(i, true);
        }
        assert_eq!(x.extract(62, 4), 0b1111);
        assert_eq!(x.extract(60, 8), 0b0011_1100);
    }

    #[test]
    fn or_assign_merges() {
        let mut a = WideWord::zero(100);
        let mut b = WideWord::zero(100);
        a.set_bit(1, true);
        b.set_bit(99, true);
        a.or_assign(&b);
        assert!(a.bit(1) && a.bit(99));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn oob_bit_panics() {
        let w = WideWord::zero(64);
        w.bit(64);
    }

    #[test]
    fn is_zero() {
        let mut w = WideWord::zero(70);
        assert!(w.is_zero());
        w.set_bit(69, true);
        assert!(!w.is_zero());
    }
}
