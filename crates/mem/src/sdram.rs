//! Banked SDRAM with row-activation timing.
//!
//! The volume-rendering module is “a single module of triple width with
//! 512 MB of SDRAM organized in 8 simultaneously accessible banks” (§2.1).
//! SDRAM pays an activate/precharge penalty when an access leaves the open
//! row; the renderer hides it by interleaving independent rays across the
//! 8 banks — exactly the behaviour this model exposes.

use atlantis_simcore::{Frequency, SimDuration};

/// SDRAM timing parameters, in cycles of the memory clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdramTiming {
    /// RAS-to-CAS delay (activate → read/write).
    pub t_rcd: u32,
    /// Row-precharge time.
    pub t_rp: u32,
    /// CAS latency.
    pub cas: u32,
}

impl SdramTiming {
    /// Timing of a PC100-class part (the paper assumes 100 MHz devices).
    pub fn pc100() -> Self {
        SdramTiming {
            t_rcd: 2,
            t_rp: 2,
            cas: 2,
        }
    }
}

#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u32>,
    /// Cycle at which this bank finishes its current operation.
    busy_until: u64,
}

/// A banked SDRAM device (behavioural storage plus cycle accounting).
#[derive(Debug, Clone)]
pub struct Sdram {
    banks: usize,
    rows_per_bank: u32,
    cols_per_row: u32,
    width: u32,
    clock: Frequency,
    timing: SdramTiming,
    bank_state: Vec<Bank>,
    data: Vec<u64>,
    now_cycles: u64,
    row_hits: u64,
    row_misses: u64,
}

impl Sdram {
    /// A device of `banks` × `rows` × `cols` words of `width` ≤ 64 bits.
    pub fn new(
        banks: usize,
        rows_per_bank: u32,
        cols_per_row: u32,
        width: u32,
        clock: Frequency,
        timing: SdramTiming,
    ) -> Self {
        assert!(banks > 0 && rows_per_bank > 0 && cols_per_row > 0);
        assert!((1..=64).contains(&width));
        let words = banks * rows_per_bank as usize * cols_per_row as usize;
        Sdram {
            banks,
            rows_per_bank,
            cols_per_row,
            width,
            clock,
            timing,
            bank_state: vec![
                Bank {
                    open_row: None,
                    busy_until: 0
                };
                banks
            ],
            data: vec![0; words],
            now_cycles: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The renderer's module: 512 MB in 8 banks (§2.1). Words are 64 bit;
    /// 8 banks × 8192 rows × 1024 cols × 8 B = 512 MB.
    pub fn render_module_device() -> Sdram {
        Sdram::new(
            8,
            8192,
            1024,
            64,
            Frequency::from_mhz(100),
            SdramTiming::pc100(),
        )
    }

    /// Total words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.words() as u64 * self.width as u64 / 8
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Device geometry as `(banks, rows_per_bank, cols_per_row)`.
    pub fn geometry(&self) -> (usize, u32, u32) {
        (self.banks, self.rows_per_bank, self.cols_per_row)
    }

    /// Map a flat word address to `(bank, row, col)`. Consecutive addresses
    /// walk columns first, then **banks** (bank-interleaved), then rows, so
    /// sequential streams spread across all banks.
    pub fn map_addr(&self, addr: usize) -> (usize, u32, u32) {
        assert!(addr < self.words(), "SDRAM address out of range");
        let col = (addr % self.cols_per_row as usize) as u32;
        let chunk = addr / self.cols_per_row as usize;
        let bank = chunk % self.banks;
        let row = (chunk / self.banks) as u32;
        (bank, row, col)
    }

    /// Advance the device clock reference (e.g. when the controller idles).
    pub fn advance_to(&mut self, cycle: u64) {
        self.now_cycles = self.now_cycles.max(cycle);
    }

    /// Perform one access and return the cycle at which data is available.
    /// `write` stores `value` (masked to the width); reads return the word.
    ///
    /// The model charges CAS on a row hit and tRP+tRCD+CAS on a row miss,
    /// and lets accesses to *different* banks overlap: a bank busy with an
    /// activation does not block the others.
    pub fn access(&mut self, addr: usize, write: Option<u64>) -> (u64, u64) {
        let (bank_idx, row, _col) = self.map_addr(addr);
        let bank = &mut self.bank_state[bank_idx];
        let start = self.now_cycles.max(bank.busy_until);
        let done;
        if bank.open_row == Some(row) {
            // Row hit: CAS latency; column accesses pipeline at one per
            // cycle, so the bank can accept the next command immediately.
            self.row_hits += 1;
            done = start + self.timing.cas as u64;
            bank.busy_until = start + 1;
        } else {
            // Row miss: (precharge +) activate, then CAS. The bank is
            // blocked until the activation completes; other banks are not.
            self.row_misses += 1;
            let penalty = if bank.open_row.is_some() {
                self.timing.t_rp
            } else {
                0
            };
            bank.open_row = Some(row);
            let activate_done = start + (penalty + self.timing.t_rcd) as u64;
            done = activate_done + self.timing.cas as u64;
            bank.busy_until = activate_done;
        }
        // The command bus serialises at one command per cycle.
        self.now_cycles = start + 1;
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        let value = match write {
            Some(v) => {
                self.data[addr] = v & mask;
                v & mask
            }
            None => self.data[addr],
        };
        (value, done)
    }

    /// Run a sequence of read addresses through the bank scheduler and
    /// return `(values, total_time)` — the time until the last word is out.
    pub fn read_burst(&mut self, addrs: &[usize]) -> (Vec<u64>, SimDuration) {
        let mut vals = Vec::with_capacity(addrs.len());
        let mut last_done = self.now_cycles;
        for &a in addrs {
            let (v, done) = self.access(a, None);
            vals.push(v);
            last_done = last_done.max(done);
        }
        (vals, self.clock.cycles(last_done))
    }

    /// `(row_hits, row_misses)` so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.row_hits, self.row_misses)
    }

    /// Reset the cycle reference and bank states (not the data).
    pub fn reset_timing(&mut self) {
        self.now_cycles = 0;
        self.row_hits = 0;
        self.row_misses = 0;
        for b in &mut self.bank_state {
            b.open_row = None;
            b.busy_until = 0;
        }
    }

    /// The memory clock.
    pub fn clock(&self) -> Frequency {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Sdram {
        Sdram::new(4, 16, 8, 32, Frequency::from_mhz(100), SdramTiming::pc100())
    }

    #[test]
    fn render_module_is_512mb_8_banks() {
        let d = Sdram::render_module_device();
        assert_eq!(d.capacity_bytes(), 512 << 20);
        assert_eq!(d.banks(), 8);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = small();
        d.access(100, Some(0xDEAD_BEEF));
        let (v, _) = d.access(100, None);
        assert_eq!(v, 0xDEAD_BEEF);
    }

    #[test]
    fn value_masked_to_width() {
        let mut d = Sdram::new(1, 4, 4, 16, Frequency::from_mhz(100), SdramTiming::pc100());
        d.access(0, Some(0x12345));
        let (v, _) = d.access(0, None);
        assert_eq!(v, 0x2345);
    }

    #[test]
    fn sequential_addresses_interleave_banks() {
        let d = small();
        // cols_per_row = 8 ⇒ addresses 0..8 in bank 0, 8..16 in bank 1 …
        assert_eq!(d.map_addr(0).0, 0);
        assert_eq!(d.map_addr(8).0, 1);
        assert_eq!(d.map_addr(16).0, 2);
        assert_eq!(d.map_addr(24).0, 3);
        assert_eq!(d.map_addr(32).0, 0, "wraps to bank 0, next row");
        assert_eq!(d.map_addr(32).1, 1);
    }

    #[test]
    fn row_hits_are_faster_than_misses() {
        let t = SdramTiming::pc100();
        let mut d = small();
        // Cold access: activate (tRCD) + CAS.
        let (_, done_cold) = d.access(0, None);
        assert_eq!(done_cold, (t.t_rcd + t.cas) as u64);
        // Back-to-back row hits pipeline at one per cycle: the k-th hit
        // completes at issue-cycle + CAS.
        let (_, h1) = d.access(1, None);
        let (_, h2) = d.access(2, None);
        assert_eq!(h2, h1 + 1, "hits stream one per cycle");
        // Switching rows in the same bank pays precharge + activate again.
        let row_stride = 8 * 4; // cols × banks ⇒ next row, same bank
        let (_, miss) = d.access(row_stride, None);
        assert!(miss > h2 + t.cas as u64, "row miss costs more than a hit");
        let (hits, misses) = d.hit_stats();
        assert_eq!((hits, misses), (2, 2));
    }

    #[test]
    fn bank_parallelism_beats_single_bank_conflicts() {
        // Eight accesses that all hit different rows of ONE bank …
        let mut d1 = small();
        let bank0_rows: Vec<usize> = (0..8).map(|r| r * 8 * 4).collect(); // same bank, new row each
        let (_, t_conflict) = d1.read_burst(&bank0_rows);

        // … versus eight accesses spread across the four banks.
        let mut d2 = small();
        let spread: Vec<usize> = (0..8).map(|i| i * 8).collect(); // consecutive banks
        let (_, t_spread) = d2.read_burst(&spread);

        assert!(
            t_spread < t_conflict,
            "bank interleaving must hide activation latency: {t_spread} vs {t_conflict}"
        );
    }

    #[test]
    fn hit_stats_track() {
        let mut d = small();
        d.access(0, None);
        d.access(1, None);
        d.access(2, None);
        let (hits, misses) = d.hit_stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn read_burst_returns_values_in_order() {
        let mut d = small();
        for i in 0..16 {
            d.access(i, Some(i as u64 * 7));
        }
        d.reset_timing();
        let (vals, _) = d.read_burst(&[3, 1, 15]);
        assert_eq!(vals, vec![21, 7, 105]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_access_panics() {
        let mut d = small();
        let n = d.words();
        d.access(n, None);
    }
}
