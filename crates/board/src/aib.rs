//! The ATLANTIS I/O Board (AIB), §2.2.
//!
//! “Every AIB is able to carry up to four mezzanine I/O daughter-boards.
//! Two Xilinx VIRTEX XCV600 FPGAs control the four I/O ports. […] The
//! default capacity of any of the four channels is data 66 MHz (or
//! 264 MB/s ignoring the 4 extra bits). Thus the four I/O channels
//! provide the same bandwidth as the 2 backplane ports: 1 GB/s. To
//! provide a sustained and high I/O bandwidth even at small block sizes
//! buffering of data can be done in two stages: a 32k × 36 FIFO-style
//! buffer connected directly to the I/O port, implemented with
//! dual-ported memory … \[and\] a 1M × 36 general purpose buffer implemented
//! with synchronous SRAM.”

use crate::clocks::ClockTree;
use atlantis_fabric::{Device, Fpga};
use atlantis_mem::{HwFifo, WideWord};
use atlantis_simcore::{Bandwidth, Frequency, SimDuration};

/// A mezzanine I/O daughter-board type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoDaughter {
    /// CERN S-Link interface (FIFO-like point-to-point link).
    SLink,
    /// Parallel LVDS link.
    Lvds,
    /// Any other custom interface.
    Custom(String),
}

/// One of the four buffered I/O channels.
#[derive(Debug)]
pub struct IoChannel {
    /// First buffering stage: 32k × 36 DP-RAM FIFO at the I/O port.
    stage1: HwFifo,
    /// Second stage: 1M × 36 SSRAM buffer.
    stage2: HwFifo,
    daughter: Option<IoDaughter>,
    clock: Frequency,
    words_in: u64,
    words_dropped: u64,
}

/// Data bits per channel word (36 lines carry 32 data + 4 tag bits).
pub const CHANNEL_DATA_BITS: u32 = 32;

impl IoChannel {
    fn new() -> Self {
        IoChannel {
            stage1: HwFifo::aib_stage1(),
            stage2: HwFifo::aib_stage2(),
            daughter: None,
            clock: Frequency::from_mhz(66),
            words_in: 0,
            words_dropped: 0,
        }
    }

    /// The channel's payload bandwidth: 32 bits × 66 MHz = 264 MB/s.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::of_bus(self.clock, CHANNEL_DATA_BITS)
    }

    /// Attach a daughter-board.
    pub fn attach(&mut self, daughter: IoDaughter) {
        self.daughter = Some(daughter);
    }

    /// The attached daughter-board, if any.
    pub fn daughter(&self) -> Option<&IoDaughter> {
        self.daughter.as_ref()
    }

    /// Offer one word from the external link into stage 1. Words arriving
    /// while both buffers are full are lost (and counted) — exactly the
    /// situation the two-stage buffering is sized to prevent.
    pub fn offer(&mut self, word: WideWord) -> bool {
        self.words_in += 1;
        if self.stage1.push(word) {
            true
        } else {
            self.words_dropped += 1;
            false
        }
    }

    /// Move up to `n` words from stage 1 to stage 2 (the FPGA pumps this
    /// continuously at channel rate).
    pub fn pump(&mut self, n: usize) -> usize {
        let mut moved = 0;
        for _ in 0..n {
            if self.stage2.is_full() {
                break;
            }
            match self.stage1.pop() {
                Some(w) => {
                    self.stage2.push(w);
                    moved += 1;
                }
                None => break,
            }
        }
        moved
    }

    /// Drain up to `n` words from stage 2 towards the backplane.
    pub fn drain(&mut self, n: usize) -> Vec<WideWord> {
        let mut out = Vec::new();
        for _ in 0..n {
            match self.stage2.pop() {
                Some(w) => out.push(w),
                None => break,
            }
        }
        out
    }

    /// Total buffered capacity in words (both stages).
    pub fn buffer_capacity_words(&self) -> usize {
        self.stage1.depth() + self.stage2.depth()
    }

    /// Words currently buffered across both stages.
    pub fn buffered(&self) -> usize {
        self.stage1.len() + self.stage2.len()
    }

    /// `(offered, dropped)` word counts.
    pub fn loss_stats(&self) -> (u64, u64) {
        (self.words_in, self.words_dropped)
    }

    /// Time for the channel to accept `words` from the link at full rate.
    pub fn ingest_time(&self, words: u64) -> SimDuration {
        self.clock.cycles(words)
    }

    /// High-water marks of the two stages.
    pub fn high_water(&self) -> (usize, usize) {
        (self.stage1.high_water(), self.stage2.high_water())
    }
}

/// One ATLANTIS I/O Board.
#[derive(Debug)]
pub struct Aib {
    fpgas: Vec<Fpga>,
    channels: Vec<IoChannel>,
    clock_tree: ClockTree,
}

impl Default for Aib {
    fn default() -> Self {
        Self::new()
    }
}

impl Aib {
    /// A bare board: two Virtex XCV600s and four empty channels.
    pub fn new() -> Self {
        Aib {
            fpgas: (0..2).map(|_| Fpga::new(Device::virtex_xcv600())).collect(),
            channels: (0..4).map(|_| IoChannel::new()).collect(),
            clock_tree: ClockTree::new(4),
        }
    }

    /// Access one of the two Virtex FPGAs.
    pub fn fpga(&self, idx: usize) -> &Fpga {
        &self.fpgas[idx]
    }

    /// Mutable access to an FPGA. Each FPGA controls two channels
    /// (FPGA 0 → channels 0, 1; FPGA 1 → channels 2, 3); both also sit on
    /// the PLX local bus for synchronisation and loop-back (§2.2).
    pub fn fpga_mut(&mut self, idx: usize) -> &mut Fpga {
        &mut self.fpgas[idx]
    }

    /// The FPGA controlling a given channel.
    pub fn controlling_fpga(channel: usize) -> usize {
        channel / 2
    }

    /// Access a channel.
    pub fn channel(&self, idx: usize) -> &IoChannel {
        &self.channels[idx]
    }

    /// Mutable channel access.
    pub fn channel_mut(&mut self, idx: usize) -> &mut IoChannel {
        &mut self.channels[idx]
    }

    /// The board clock tree.
    pub fn clocks_mut(&mut self) -> &mut ClockTree {
        &mut self.clock_tree
    }

    /// Aggregate input bandwidth of the four channels — the paper's
    /// “1 GB/s”, matching the two backplane ports.
    pub fn aggregate_bandwidth(&self) -> Bandwidth {
        let total: u64 = self
            .channels
            .iter()
            .map(|c| c.bandwidth().as_bytes_per_sec())
            .sum();
        Bandwidth::from_bytes_per_sec(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: u64) -> WideWord {
        WideWord::from_lanes(36, vec![v])
    }

    #[test]
    fn channel_bandwidth_is_264mbs() {
        let aib = Aib::new();
        assert_eq!(aib.channel(0).bandwidth().as_bytes_per_sec(), 264_000_000);
    }

    #[test]
    fn aggregate_matches_backplane_1gbs() {
        let aib = Aib::new();
        // 4 × 264 MB/s = 1056 MB/s — the same as the 2 backplane ports.
        assert_eq!(aib.aggregate_bandwidth().as_bytes_per_sec(), 1_056_000_000);
    }

    #[test]
    fn two_virtex_fpgas_control_four_channels() {
        let aib = Aib::new();
        assert_eq!(aib.fpga(0).device().name, "Virtex XCV600");
        assert_eq!(aib.fpga(1).device().name, "Virtex XCV600");
        assert_eq!(Aib::controlling_fpga(0), 0);
        assert_eq!(Aib::controlling_fpga(1), 0);
        assert_eq!(Aib::controlling_fpga(2), 1);
        assert_eq!(Aib::controlling_fpga(3), 1);
    }

    #[test]
    fn two_stage_buffering_absorbs_bursts() {
        let mut aib = Aib::new();
        let ch = aib.channel_mut(0);
        // A burst larger than stage 1 alone, with the FPGA pumping.
        let burst = 40_000usize;
        let mut accepted = 0;
        for i in 0..burst {
            if ch.offer(w(i as u64)) {
                accepted += 1;
            }
            // The FPGA moves words onward at (at least) line rate.
            ch.pump(1);
        }
        assert_eq!(accepted, burst, "no loss while stage 2 has room");
        let (s1_hw, _s2_hw) = ch.high_water();
        assert!(s1_hw <= 2, "stage 1 never backs up when pumped at rate");
        assert_eq!(ch.buffered(), burst);
    }

    #[test]
    fn unpumped_channel_eventually_drops() {
        let mut aib = Aib::new();
        let ch = aib.channel_mut(0);
        let cap = ch.stage1.depth();
        for i in 0..cap + 10 {
            ch.offer(w(i as u64));
        }
        let (offered, dropped) = ch.loss_stats();
        assert_eq!(offered, (cap + 10) as u64);
        assert_eq!(dropped, 10, "overflow only past stage-1 capacity");
    }

    #[test]
    fn drain_preserves_order() {
        let mut aib = Aib::new();
        let ch = aib.channel_mut(2);
        for i in 0..10 {
            ch.offer(w(i));
        }
        ch.pump(10);
        let words = ch.drain(10);
        let vals: Vec<u64> = words.iter().map(|x| x.lanes()[0]).collect();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
        assert_eq!(ch.buffered(), 0);
    }

    #[test]
    fn buffer_capacity_matches_paper() {
        let aib = Aib::new();
        // 32k + 1M words of 36 bits per channel.
        assert_eq!(
            aib.channel(0).buffer_capacity_words(),
            32 * 1024 + 1024 * 1024
        );
    }

    #[test]
    fn daughter_boards_attach_per_channel() {
        let mut aib = Aib::new();
        aib.channel_mut(0).attach(IoDaughter::SLink);
        aib.channel_mut(1).attach(IoDaughter::Lvds);
        assert_eq!(aib.channel(0).daughter(), Some(&IoDaughter::SLink));
        assert_eq!(aib.channel(1).daughter(), Some(&IoDaughter::Lvds));
        assert_eq!(aib.channel(2).daughter(), None);
    }

    #[test]
    fn ingest_time_at_line_rate() {
        let aib = Aib::new();
        let t = aib.channel(0).ingest_time(66_000_000);
        assert_eq!(t, SimDuration::from_secs(1));
    }
}
