//! The PLX9080 bus-master DMA engine.
//!
//! The PLX9080 provides two descriptor-driven DMA channels that move data
//! between host memory (across PCI) and the board's local bus. A detail
//! that matters for Table 1: moving data **board → host** is performed
//! with posted PCI *writes* (fast), while **host → board** requires PCI
//! *reads* of host memory (slower, due to target latency and FIFO
//! refills). This is why the measured “DMA Read” rows of Table 1 — reads
//! *of the board* by the application — outrun the “DMA Write” rows.

use crate::bus::{BusDir, PciBus};
use crate::driver::LocalBusTarget;
use atlantis_simcore::SimDuration;

/// Direction of a DMA transfer, from the application's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Board → host (“DMA read” in the paper): posted PCI writes.
    BoardToHost,
    /// Host → board (“DMA write” in the paper): PCI reads of host memory.
    HostToBoard,
}

impl DmaDirection {
    /// The PCI bus direction this DMA direction uses.
    pub fn bus_dir(self) -> BusDir {
        match self {
            DmaDirection::BoardToHost => BusDir::Write,
            DmaDirection::HostToBoard => BusDir::Read,
        }
    }
}

/// One of the PLX9080's two descriptor-driven bus-master DMA channels.
/// Both move data between host memory and the local bus; they are
/// programmed independently and keep independent statistics, which is
/// what lets a serving layer stream a job's input on channel 0 while a
/// previous job's output drains on channel 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaChannel {
    /// DMA channel 0 (the runtime's input/prefetch channel).
    Ch0,
    /// DMA channel 1 (the runtime's output/writeback channel).
    Ch1,
}

/// One DMA descriptor (scatter/gather element).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// Offset into host memory.
    pub host_offset: u64,
    /// Local-bus address on the board.
    pub local_addr: u64,
    /// Transfer length in bytes.
    pub bytes: u64,
    /// Transfer direction.
    pub direction: DmaDirection,
}

/// Cumulative statistics of one DMA channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Descriptors completed.
    pub descriptors: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Virtual time spent moving data.
    pub transfer_time: SimDuration,
}

/// A DMA channel of the PLX9080.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    stats: DmaStats,
}

/// Register-programming cost per descriptor: the host writes mode, PCI
/// address, local address, byte count and control — 5 single-word PCI
/// writes — then the engine fetches nothing further for an inline
/// descriptor.
pub const DESCRIPTOR_REG_WRITES: u32 = 5;

impl DmaEngine {
    /// A fresh channel.
    pub fn new() -> Self {
        DmaEngine::default()
    }

    /// Execute a descriptor chain against host memory and the board's
    /// local-bus target. Returns the virtual time for the whole chain
    /// (register programming excluded — the driver accounts for that).
    ///
    /// Data moves through the bridge FIFOs, so per descriptor the time is
    /// the *maximum* of the PCI time and the local-bus time; the local bus
    /// (32 bit at the design clock) is faster than PCI in every ATLANTIS
    /// configuration, making PCI the bottleneck, “as §3.4 observes”.
    pub fn run_chain(
        &mut self,
        bus: &mut PciBus,
        host_mem: &mut [u8],
        target: &mut dyn LocalBusTarget,
        chain: &[DmaDescriptor],
    ) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for desc in chain {
            let span = Self::host_span(desc, host_mem.len());
            match desc.direction {
                DmaDirection::HostToBoard => {
                    target.local_write(desc.local_addr, &host_mem[span]);
                }
                DmaDirection::BoardToHost => {
                    target.local_read(desc.local_addr, &mut host_mem[span]);
                }
            }
            total += self.account(bus, target, desc);
        }
        total
    }

    /// Execute a host-to-board chain against a *read-only* host buffer —
    /// the zero-copy input path: the engine streams straight out of the
    /// caller's buffer with no intermediate `Vec`. Panics if the chain
    /// contains a board-to-host descriptor (those need a writable host
    /// buffer; use [`DmaEngine::run_chain`]).
    pub fn run_chain_from(
        &mut self,
        bus: &mut PciBus,
        host_mem: &[u8],
        target: &mut dyn LocalBusTarget,
        chain: &[DmaDescriptor],
    ) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for desc in chain {
            assert!(
                desc.direction == DmaDirection::HostToBoard,
                "read-only host buffer cannot serve a board-to-host descriptor"
            );
            let span = Self::host_span(desc, host_mem.len());
            target.local_write(desc.local_addr, &host_mem[span]);
            total += self.account(bus, target, desc);
        }
        total
    }

    fn host_span(desc: &DmaDescriptor, host_len: usize) -> std::ops::Range<usize> {
        let end = desc.host_offset + desc.bytes;
        assert!(
            end as usize <= host_len,
            "descriptor overruns host buffer: {end} > {host_len}"
        );
        desc.host_offset as usize..end as usize
    }

    /// Time one descriptor and accrue channel statistics: data moves
    /// through the bridge FIFOs, so the cost is the max of the PCI and
    /// local-bus times.
    fn account(
        &mut self,
        bus: &mut PciBus,
        target: &dyn LocalBusTarget,
        desc: &DmaDescriptor,
    ) -> SimDuration {
        let pci_time = bus.transfer(desc.bytes, desc.direction.bus_dir());
        let words = desc.bytes.div_ceil(4);
        let local_time = target.local_clock().cycles(words);
        let t = pci_time.max(local_time);
        self.stats.descriptors += 1;
        self.stats.bytes += desc.bytes;
        self.stats.transfer_time += t;
        t
    }

    /// Channel statistics.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::PciBusConfig;
    use crate::driver::LocalMemory;

    fn setup() -> (PciBus, LocalMemory, DmaEngine) {
        (
            PciBus::new(PciBusConfig::compact_pci()),
            LocalMemory::new(1 << 20),
            DmaEngine::new(),
        )
    }

    #[test]
    fn host_to_board_moves_data() {
        let (mut bus, mut target, mut dma) = setup();
        let mut host = vec![0u8; 4096];
        for (i, b) in host.iter_mut().enumerate() {
            *b = i as u8;
        }
        let t = dma.run_chain(
            &mut bus,
            &mut host,
            &mut target,
            &[DmaDescriptor {
                host_offset: 0,
                local_addr: 256,
                bytes: 4096,
                direction: DmaDirection::HostToBoard,
            }],
        );
        assert!(t > SimDuration::ZERO);
        let mut readback = vec![0u8; 4096];
        target.local_read(256, &mut readback);
        assert_eq!(readback, host);
    }

    #[test]
    fn board_to_host_moves_data() {
        let (mut bus, mut target, mut dma) = setup();
        target.local_write(0, &[9u8; 128]);
        let mut host = vec![0u8; 256];
        dma.run_chain(
            &mut bus,
            &mut host,
            &mut target,
            &[DmaDescriptor {
                host_offset: 64,
                local_addr: 0,
                bytes: 128,
                direction: DmaDirection::BoardToHost,
            }],
        );
        assert_eq!(&host[64..192], &[9u8; 128][..]);
        assert_eq!(&host[..64], &[0u8; 64][..], "untouched outside the window");
    }

    #[test]
    fn board_to_host_is_faster_than_host_to_board() {
        let (mut bus, mut target, mut dma) = setup();
        let mut host = vec![0u8; 1 << 20];
        let read = DmaDescriptor {
            host_offset: 0,
            local_addr: 0,
            bytes: 1 << 20,
            direction: DmaDirection::BoardToHost,
        };
        let write = DmaDescriptor {
            direction: DmaDirection::HostToBoard,
            ..read.clone()
        };
        let t_read = dma.run_chain(&mut bus, &mut host, &mut target, &[read]);
        let t_write = dma.run_chain(&mut bus, &mut host, &mut target, &[write]);
        assert!(
            t_read < t_write,
            "posted writes beat master reads: {t_read} vs {t_write}"
        );
    }

    #[test]
    fn chain_time_is_sum_of_parts() {
        let (mut bus, mut target, mut dma) = setup();
        let mut host = vec![0u8; 8192];
        let d = |off: u64| DmaDescriptor {
            host_offset: off,
            local_addr: off,
            bytes: 4096,
            direction: DmaDirection::BoardToHost,
        };
        let t2 = dma.run_chain(&mut bus, &mut host, &mut target, &[d(0), d(4096)]);
        let mut bus2 = PciBus::new(PciBusConfig::compact_pci());
        let t1a = dma.run_chain(&mut bus2, &mut host, &mut target, &[d(0)]);
        let t1b = dma.run_chain(&mut bus2, &mut host, &mut target, &[d(4096)]);
        assert_eq!(t2, t1a + t1b);
    }

    #[test]
    fn stats_accumulate() {
        let (mut bus, mut target, mut dma) = setup();
        let mut host = vec![0u8; 1024];
        dma.run_chain(
            &mut bus,
            &mut host,
            &mut target,
            &[DmaDescriptor {
                host_offset: 0,
                local_addr: 0,
                bytes: 1024,
                direction: DmaDirection::BoardToHost,
            }],
        );
        let s = dma.stats();
        assert_eq!(s.descriptors, 1);
        assert_eq!(s.bytes, 1024);
    }

    #[test]
    fn read_only_chain_matches_the_writable_path() {
        let (mut bus, mut target, mut dma) = setup();
        let host: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        let chain = [DmaDescriptor {
            host_offset: 128,
            local_addr: 512,
            bytes: 2048,
            direction: DmaDirection::HostToBoard,
        }];
        let t_ro = dma.run_chain_from(&mut bus, &host, &mut target, &chain);

        let mut bus2 = PciBus::new(PciBusConfig::compact_pci());
        let mut target2 = LocalMemory::new(1 << 20);
        let mut dma2 = DmaEngine::new();
        let mut host2 = host.clone();
        let t_rw = dma2.run_chain(&mut bus2, &mut host2, &mut target2, &chain);

        assert_eq!(t_ro, t_rw, "timing is independent of host mutability");
        assert_eq!(target.as_slice(), target2.as_slice());
        assert_eq!(dma.stats(), dma2.stats());
    }

    #[test]
    #[should_panic(expected = "read-only host buffer")]
    fn read_only_chain_rejects_board_to_host() {
        let (mut bus, mut target, mut dma) = setup();
        dma.run_chain_from(
            &mut bus,
            &[0u8; 64],
            &mut target,
            &[DmaDescriptor {
                host_offset: 0,
                local_addr: 0,
                bytes: 64,
                direction: DmaDirection::BoardToHost,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "overruns host buffer")]
    fn overrun_descriptor_panics() {
        let (mut bus, mut target, mut dma) = setup();
        let mut host = vec![0u8; 64];
        dma.run_chain(
            &mut bus,
            &mut host,
            &mut target,
            &[DmaDescriptor {
                host_offset: 0,
                local_addr: 0,
                bytes: 128,
                direction: DmaDirection::BoardToHost,
            }],
        );
    }
}
