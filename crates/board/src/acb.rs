//! The ATLANTIS Computing Board (ACB), §2.1.
//!
//! “The core of the main processing unit of the ATLANTIS system consists
//! of a 2*2 FPGA matrix.” Each ORCA 3T125 exposes four ports:
//!
//! * 2 × 72 lines to the neighbouring FPGAs (vertical and horizontal),
//! * 1 logical I/O port of 72 lines,
//! * 1 memory interconnect of 206 lines (two 124-pin mezzanine
//!   connectors),
//!
//! for a total of 422 I/O signals per FPGA. The logical I/O port serves a
//! different role per chip: one FPGA talks to the PLX9080 (host I/O), two
//! drive the private backplane, and one carries two LVDS connectors for
//! external I/O (S-Link et al.). Mezzanine memory modules plug onto the
//! memory ports — one standard module per FPGA connector pair, or the
//! triple-width SDRAM module spanning three.

use crate::clocks::ClockTree;
use atlantis_fabric::{Device, Fpga};
use atlantis_mem::MemoryModule;
use atlantis_pci::LocalBusTarget;
use atlantis_simcore::{Bandwidth, Frequency, SimDuration};
use std::fmt;

/// Lines per inter-FPGA neighbour link.
pub const NEIGHBOR_LINK_LINES: u32 = 72;
/// Lines of the logical I/O port.
pub const IO_PORT_LINES: u32 = 72;
/// Lines of the memory interconnect port.
pub const MEM_PORT_LINES: u32 = 206;
/// Mezzanine connector slots on the board (2 per FPGA).
pub const MEZZANINE_SLOTS: usize = 8;

/// What each FPGA's logical I/O port is wired to (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpgaRole {
    /// Connected to the PLX9080 — the host-I/O FPGA.
    HostIo,
    /// First backplane port (64 bits at 66 MHz).
    BackplaneA,
    /// Second backplane port.
    BackplaneB,
    /// Two parallel LVDS connectors for external I/O.
    ExternalIo,
}

/// The fixed role assignment of the 2×2 matrix.
pub const FPGA_ROLES: [FpgaRole; 4] = [
    FpgaRole::HostIo,
    FpgaRole::BackplaneA,
    FpgaRole::BackplaneB,
    FpgaRole::ExternalIo,
];

/// ACB configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcbError {
    /// Mezzanine slot index out of range.
    BadSlot(usize),
    /// A required mezzanine slot is already occupied.
    SlotOccupied(usize),
    /// The module would extend past the last slot.
    ModuleOverhangs {
        /// First requested slot.
        first_slot: usize,
        /// Slots the module needs.
        needs: usize,
    },
    /// FPGA index out of range (0–3).
    BadFpga(usize),
    /// The FPGAs are not adjacent in the 2×2 matrix.
    NotAdjacent(usize, usize),
}

impl fmt::Display for AcbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcbError::BadSlot(s) => write!(f, "mezzanine slot {s} out of range"),
            AcbError::SlotOccupied(s) => write!(f, "mezzanine slot {s} occupied"),
            AcbError::ModuleOverhangs { first_slot, needs } => {
                write!(
                    f,
                    "module of {needs} slots does not fit at slot {first_slot}"
                )
            }
            AcbError::BadFpga(i) => write!(f, "FPGA index {i} out of range"),
            AcbError::NotAdjacent(a, b) => {
                write!(f, "FPGAs {a} and {b} share no neighbour link")
            }
        }
    }
}

impl std::error::Error for AcbError {}

/// Handle to an attached memory module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleId(usize);

/// One ATLANTIS Computing Board.
#[derive(Debug)]
pub struct Acb {
    fpgas: Vec<Fpga>,
    clock_tree: ClockTree,
    modules: Vec<MemoryModule>,
    /// For each mezzanine slot: index into `modules`, if occupied.
    slot_map: [Option<usize>; MEZZANINE_SLOTS],
    /// Host-visible local-bus window behind the PLX9080.
    local_ram: Vec<u8>,
    local_clock: Frequency,
}

impl Default for Acb {
    fn default() -> Self {
        Self::new()
    }
}

impl Acb {
    /// A bare board: four unconfigured ORCA 3T125s, no memory modules,
    /// a 4 MB host-visible local RAM window.
    pub fn new() -> Self {
        Acb {
            fpgas: (0..4).map(|_| Fpga::new(Device::orca_3t125())).collect(),
            clock_tree: ClockTree::new(4),
            modules: Vec::new(),
            slot_map: [None; MEZZANINE_SLOTS],
            local_ram: vec![0; 4 << 20],
            local_clock: Frequency::from_mhz(40),
        }
    }

    /// The paper's total: 4 × ~186k = 744k FPGA gates.
    pub fn total_gates(&self) -> u64 {
        self.fpgas.iter().map(|f| f.device().system_gates).sum()
    }

    /// I/O signals used per FPGA: 2 neighbour links + logical I/O +
    /// memory port = 422 (§2.1).
    pub fn io_signals_per_fpga() -> u32 {
        2 * NEIGHBOR_LINK_LINES + IO_PORT_LINES + MEM_PORT_LINES
    }

    /// Access an FPGA by matrix index (row-major: 0 1 / 2 3).
    pub fn fpga(&self, idx: usize) -> &Fpga {
        &self.fpgas[idx]
    }

    /// Mutable access to an FPGA.
    pub fn fpga_mut(&mut self, idx: usize) -> &mut Fpga {
        &mut self.fpgas[idx]
    }

    /// The role of an FPGA's logical I/O port.
    pub fn role(idx: usize) -> FpgaRole {
        FPGA_ROLES[idx]
    }

    /// Configuration integrity of every FPGA in matrix order:
    /// `Some(true)` when the live image matches its golden bitstream,
    /// `Some(false)` when corrupted, `None` for unconfigured devices.
    pub fn integrity_all(&self) -> Vec<Option<bool>> {
        self.fpgas.iter().map(|f| f.integrity_ok().ok()).collect()
    }

    /// Scrub every configured FPGA (read-back, golden compare, frame
    /// repair — see [`Fpga::scrub`]) and return one report per device in
    /// matrix order; unconfigured devices report `None`. Returns the
    /// total virtual time of the pass, as the board's configuration
    /// ports operate sequentially from the host's perspective.
    pub fn scrub_all(&mut self) -> (Vec<Option<atlantis_fabric::ScrubReport>>, SimDuration) {
        let mut total = SimDuration::ZERO;
        let reports = self
            .fpgas
            .iter_mut()
            .map(|f| {
                let r = f.scrub().ok();
                if let Some(r) = &r {
                    total += r.time;
                }
                r
            })
            .collect();
        (reports, total)
    }

    /// The board clock tree.
    pub fn clocks(&self) -> &ClockTree {
        &self.clock_tree
    }

    /// Mutable clock tree.
    pub fn clocks_mut(&mut self) -> &mut ClockTree {
        &mut self.clock_tree
    }

    /// Whether two FPGAs share a 72-line neighbour link (2×2 matrix: the
    /// diagonals do not).
    pub fn adjacent(a: usize, b: usize) -> bool {
        matches!((a.min(b), a.max(b)), (0, 1) | (0, 2) | (1, 3) | (2, 3))
    }

    /// Move `bytes` over the neighbour link between two adjacent FPGAs at
    /// the local clock: 72 lines wide, one transfer per cycle.
    pub fn link_transfer(&self, a: usize, b: usize, bytes: u64) -> Result<SimDuration, AcbError> {
        if a >= 4 {
            return Err(AcbError::BadFpga(a));
        }
        if b >= 4 {
            return Err(AcbError::BadFpga(b));
        }
        if !Self::adjacent(a, b) {
            return Err(AcbError::NotAdjacent(a, b));
        }
        let bits = bytes * 8;
        let cycles = bits.div_ceil(NEIGHBOR_LINK_LINES as u64);
        Ok(self.local_clock.cycles(cycles))
    }

    /// Peak neighbour-link bandwidth at the current local clock.
    pub fn link_bandwidth(&self) -> Bandwidth {
        Bandwidth::of_bus(self.local_clock, NEIGHBOR_LINK_LINES)
    }

    /// Attach a memory module starting at mezzanine `first_slot`. Standard
    /// modules occupy one slot; the triple-width render module occupies
    /// three consecutive slots.
    pub fn attach_module(
        &mut self,
        first_slot: usize,
        module: MemoryModule,
    ) -> Result<ModuleId, AcbError> {
        let needs = module.slots() as usize;
        if first_slot >= MEZZANINE_SLOTS {
            return Err(AcbError::BadSlot(first_slot));
        }
        if first_slot + needs > MEZZANINE_SLOTS {
            return Err(AcbError::ModuleOverhangs { first_slot, needs });
        }
        for s in first_slot..first_slot + needs {
            if self.slot_map[s].is_some() {
                return Err(AcbError::SlotOccupied(s));
            }
        }
        let idx = self.modules.len();
        self.modules.push(module);
        for s in first_slot..first_slot + needs {
            self.slot_map[s] = Some(idx);
        }
        Ok(ModuleId(idx))
    }

    /// Access an attached module.
    pub fn module(&self, id: ModuleId) -> &MemoryModule {
        &self.modules[id.0]
    }

    /// Mutable access to an attached module.
    pub fn module_mut(&mut self, id: ModuleId) -> &mut MemoryModule {
        &mut self.modules[id.0]
    }

    /// All attached modules.
    pub fn modules(&self) -> &[MemoryModule] {
        &self.modules
    }

    /// The module (if any) reachable from a given FPGA's memory port
    /// (slots `2·fpga` and `2·fpga + 1`).
    pub fn module_at_fpga(&self, fpga: usize) -> Option<ModuleId> {
        let s = fpga * 2;
        self.slot_map[s].or(self.slot_map[s + 1]).map(ModuleId)
    }

    /// Total attached memory capacity in bytes.
    pub fn memory_capacity(&self) -> u64 {
        self.modules.iter().map(MemoryModule::capacity_bytes).sum()
    }

    /// Combined RAM access width of all attached modules in bits —
    /// the paper's headline figure (176 for one TRT module, 704 for four).
    pub fn total_ram_access_bits(&self) -> u32 {
        self.modules
            .iter()
            .map(MemoryModule::access_width_bits)
            .sum()
    }

    /// The host-visible local RAM window size.
    pub fn local_ram_len(&self) -> usize {
        self.local_ram.len()
    }

    /// Job-payload staging slots in the local RAM window. The serving
    /// runtime DMAs each job's payload into its own fixed-size slot, so
    /// transfers for consecutive jobs never alias while a result is
    /// still being read back.
    pub fn job_slots(&self) -> usize {
        self.local_ram.len() / JOB_SLOT_BYTES as usize
    }

    /// Local-bus address of staging slot `slot`, or `None` when the slot
    /// does not exist in this board's RAM window.
    pub fn job_slot_addr(&self, slot: usize) -> Option<u64> {
        if slot < self.job_slots() {
            Some(slot as u64 * JOB_SLOT_BYTES)
        } else {
            None
        }
    }

    /// Local-bus address of one double-buffered *half* of staging slot
    /// `slot`, or `None` when the slot does not exist. The pipelined
    /// serving path ping/pongs between halves so job *N+1*'s input DMA
    /// lands in one half while job *N* executes out of the other — the
    /// transfers never alias.
    pub fn job_slot_half_addr(&self, slot: usize, half: SlotHalf) -> Option<u64> {
        self.job_slot_addr(slot).map(|base| base + half.offset())
    }
}

/// Size of one job-payload staging slot in the host-visible local RAM
/// window (256 kB holds the largest adapter payload with headroom).
pub const JOB_SLOT_BYTES: u64 = 256 * 1024;

/// Size of one double-buffered half of a job slot (128 kB — still
/// larger than any adapter payload or result).
pub const JOB_SLOT_HALF_BYTES: u64 = JOB_SLOT_BYTES / 2;

/// Which half of a double-buffered job slot a transfer targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotHalf {
    /// The lower half of the slot window.
    Ping,
    /// The upper half of the slot window.
    Pong,
}

impl SlotHalf {
    /// Byte offset of this half inside its slot.
    pub fn offset(self) -> u64 {
        match self {
            SlotHalf::Ping => 0,
            SlotHalf::Pong => JOB_SLOT_HALF_BYTES,
        }
    }

    /// The other half — what the pipeline flips to for the next job.
    pub fn flipped(self) -> SlotHalf {
        match self {
            SlotHalf::Ping => SlotHalf::Pong,
            SlotHalf::Pong => SlotHalf::Ping,
        }
    }
}

impl LocalBusTarget for Acb {
    fn local_write(&mut self, addr: u64, data: &[u8]) {
        let start = addr as usize;
        self.local_ram[start..start + data.len()].copy_from_slice(data);
    }

    fn local_read(&mut self, addr: u64, buf: &mut [u8]) {
        let start = addr as usize;
        buf.copy_from_slice(&self.local_ram[start..start + buf.len()]);
    }

    fn local_clock(&self) -> Frequency {
        self.local_clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlantis_mem::ModuleKind;

    #[test]
    fn paper_resource_figures() {
        let acb = Acb::new();
        assert_eq!(acb.total_gates(), 744_000, "§2.1: 744k FPGA gates");
        assert_eq!(
            Acb::io_signals_per_fpga(),
            422,
            "§2.1: 422 I/O signals per FPGA"
        );
    }

    #[test]
    fn matrix_adjacency_is_a_square() {
        assert!(Acb::adjacent(0, 1));
        assert!(Acb::adjacent(0, 2));
        assert!(Acb::adjacent(1, 3));
        assert!(Acb::adjacent(2, 3));
        assert!(!Acb::adjacent(0, 3), "diagonal");
        assert!(!Acb::adjacent(1, 2), "diagonal");
        assert!(!Acb::adjacent(2, 2));
    }

    #[test]
    fn link_transfer_timing() {
        let acb = Acb::new();
        // 72 lines at 40 MHz = 360 MB/s.
        assert_eq!(acb.link_bandwidth().as_bytes_per_sec(), 360_000_000);
        let t = acb.link_transfer(0, 1, 9_000).unwrap(); // 72000 bits = 1000 cycles
        assert_eq!(t, Frequency::from_mhz(40).cycles(1000));
        assert_eq!(
            acb.link_transfer(0, 3, 8).unwrap_err(),
            AcbError::NotAdjacent(0, 3)
        );
    }

    #[test]
    fn four_trt_modules_attach() {
        let mut acb = Acb::new();
        let f40 = Frequency::from_mhz(40);
        for fpga in 0..4 {
            acb.attach_module(fpga * 2, MemoryModule::trt(f40)).unwrap();
        }
        assert_eq!(acb.modules().len(), 4);
        assert_eq!(acb.total_ram_access_bits(), 704, "4 × 176 bits");
        assert!(acb.memory_capacity() >= 44 << 20, "≈44 MB per ACB");
        for fpga in 0..4 {
            assert!(acb.module_at_fpga(fpga).is_some());
        }
    }

    #[test]
    fn triple_width_module_spans_three_slots() {
        let mut acb = Acb::new();
        let id = acb.attach_module(2, MemoryModule::render()).unwrap();
        assert_eq!(acb.module(id).kind(), ModuleKind::RenderSdram);
        // Slots 2,3,4 now taken.
        let err = acb
            .attach_module(3, MemoryModule::trt(Frequency::from_mhz(40)))
            .unwrap_err();
        assert_eq!(err, AcbError::SlotOccupied(3));
        let err = acb
            .attach_module(4, MemoryModule::trt(Frequency::from_mhz(40)))
            .unwrap_err();
        assert_eq!(err, AcbError::SlotOccupied(4));
        acb.attach_module(5, MemoryModule::trt(Frequency::from_mhz(40)))
            .unwrap();
    }

    #[test]
    fn module_overhang_rejected() {
        let mut acb = Acb::new();
        let err = acb.attach_module(6, MemoryModule::render()).unwrap_err();
        assert_eq!(
            err,
            AcbError::ModuleOverhangs {
                first_slot: 6,
                needs: 3
            }
        );
        let err = acb.attach_module(8, MemoryModule::render()).unwrap_err();
        assert_eq!(err, AcbError::BadSlot(8));
    }

    #[test]
    fn job_slots_tile_the_local_ram_window() {
        let acb = Acb::new();
        // 4 MB window / 256 kB slots = 16 slots.
        assert_eq!(acb.job_slots(), 16);
        assert_eq!(acb.job_slot_addr(0), Some(0));
        assert_eq!(acb.job_slot_addr(15), Some(15 * JOB_SLOT_BYTES));
        assert_eq!(acb.job_slot_addr(16), None);
        // Every slot lies fully inside the window.
        let last = acb.job_slot_addr(acb.job_slots() - 1).unwrap();
        assert!(last + JOB_SLOT_BYTES <= acb.local_ram_len() as u64);
    }

    #[test]
    fn slot_halves_tile_each_slot_without_aliasing() {
        let acb = Acb::new();
        for slot in 0..acb.job_slots() {
            let base = acb.job_slot_addr(slot).unwrap();
            let ping = acb.job_slot_half_addr(slot, SlotHalf::Ping).unwrap();
            let pong = acb.job_slot_half_addr(slot, SlotHalf::Pong).unwrap();
            assert_eq!(ping, base);
            assert_eq!(pong, base + JOB_SLOT_HALF_BYTES);
            assert!(pong + JOB_SLOT_HALF_BYTES <= base + JOB_SLOT_BYTES);
        }
        assert_eq!(
            acb.job_slot_half_addr(acb.job_slots(), SlotHalf::Ping),
            None
        );
        assert_eq!(SlotHalf::Ping.flipped(), SlotHalf::Pong);
        assert_eq!(SlotHalf::Pong.flipped(), SlotHalf::Ping);
    }

    #[test]
    fn local_bus_target_round_trip() {
        let mut acb = Acb::new();
        acb.local_write(0x1000, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        acb.local_read(0x1000, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(acb.local_clock(), Frequency::from_mhz(40));
    }

    #[test]
    fn roles_cover_all_port_functions() {
        assert_eq!(Acb::role(0), FpgaRole::HostIo);
        assert_eq!(Acb::role(1), FpgaRole::BackplaneA);
        assert_eq!(Acb::role(2), FpgaRole::BackplaneB);
        assert_eq!(Acb::role(3), FpgaRole::ExternalIo);
    }

    #[test]
    fn board_level_scrub_covers_the_matrix() {
        use atlantis_chdl::Design;
        use atlantis_fabric::fit;

        let mut acb = Acb::new();
        // Configure FPGAs 0 and 2 only; corrupt FPGA 2.
        for i in [0usize, 2] {
            let mut d = Design::new(format!("t{i}"));
            let x = d.input("x", 8);
            let q = d.reg("r", x);
            d.expose_output("q", q);
            let f = fit(&d, acb.fpga(i).device()).unwrap();
            acb.fpga_mut(i).configure(f).unwrap();
        }
        acb.fpga_mut(2).inject_upset(5, 1, 0).unwrap();
        assert_eq!(
            acb.integrity_all(),
            vec![Some(true), None, Some(false), None]
        );
        let (reports, total) = acb.scrub_all();
        assert_eq!(reports[0].unwrap().frames_repaired, 0);
        assert!(reports[1].is_none());
        assert_eq!(reports[2].unwrap().frames_repaired, 1);
        assert!(reports[3].is_none());
        assert!(total >= acb.fpga(0).device().full_config_time() * 2);
        assert_eq!(
            acb.integrity_all(),
            vec![Some(true), None, Some(true), None]
        );
    }

    #[test]
    fn fpgas_start_unconfigured() {
        let acb = Acb::new();
        for i in 0..4 {
            assert!(!acb.fpga(i).is_configured());
            assert_eq!(acb.fpga(i).device().name, "ORCA 3T125");
        }
    }
}
