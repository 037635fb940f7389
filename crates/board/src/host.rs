//! The CompactPCI host CPU cost model.
//!
//! §2.4: “This industrial computer is equipped with a mobile Intel
//! Pentium-200 MMX or Celeron-450 processor and thus 100% compatible to a
//! standard PC desktop workstation.” The CPU runs control software and the
//! *baselines* against which the paper measures speed-ups — most
//! importantly the 35 ms C++ TRT histogramming on a Pentium-II/300
//! (§3.4). The model charges abstract operation counts against a
//! sustained-IPC figure, which is all the paper's comparisons need.

use atlantis_simcore::{Frequency, SimDuration};

/// The CPU classes appearing in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuClass {
    /// Mobile Pentium-200 MMX (one host option, §2.4).
    PentiumMmx200,
    /// Pentium-II/300 — the workstation baseline of §3.4.
    PentiumII300,
    /// Celeron-450 (the other host option, §2.4).
    Celeron450,
}

impl CpuClass {
    /// Core clock.
    pub fn clock(self) -> Frequency {
        match self {
            CpuClass::PentiumMmx200 => Frequency::from_mhz(200),
            CpuClass::PentiumII300 => Frequency::from_mhz(300),
            CpuClass::Celeron450 => Frequency::from_mhz(450),
        }
    }

    /// Sustained instructions per cycle on integer-heavy C++ loops with
    /// cache-unfriendly table accesses (the TRT LUT walk). Late-90s
    /// measurements put the P5/P6 cores well under their dual-issue peak
    /// on such code.
    pub fn sustained_ipc(self) -> f64 {
        match self {
            CpuClass::PentiumMmx200 => 0.55,
            CpuClass::PentiumII300 => 0.80,
            CpuClass::Celeron450 => 0.80,
        }
    }

    /// Sustained double-precision MFLOPS on compiled (non-hand-tuned)
    /// inner loops — used by the N-body baseline.
    pub fn sustained_mflops(self) -> f64 {
        match self {
            CpuClass::PentiumMmx200 => 25.0,
            CpuClass::PentiumII300 => 55.0,
            CpuClass::Celeron450 => 80.0,
        }
    }
}

/// A host CPU instance accumulating virtual compute time.
#[derive(Debug, Clone)]
pub struct HostCpu {
    class: CpuClass,
    busy: SimDuration,
}

impl HostCpu {
    /// A CPU of the given class.
    pub fn new(class: CpuClass) -> Self {
        HostCpu {
            class,
            busy: SimDuration::ZERO,
        }
    }

    /// The CPU class.
    pub fn class(&self) -> CpuClass {
        self.class
    }

    /// Virtual time to execute `ops` simple integer operations.
    pub fn integer_work(&mut self, ops: u64) -> SimDuration {
        let cycles = (ops as f64 / self.class.sustained_ipc()).ceil() as u64;
        let t = self.class.clock().cycles(cycles);
        self.busy += t;
        t
    }

    /// Virtual time to execute `flops` double-precision operations.
    pub fn float_work(&mut self, flops: u64) -> SimDuration {
        let secs = flops as f64 / (self.class.sustained_mflops() * 1e6);
        let t = SimDuration::from_secs_f64(secs);
        self.busy += t;
        t
    }

    /// Fixed cost of an OS round trip (ioctl/IRQ) — a few microseconds on
    /// NT4/Linux 2.2 era kernels.
    pub fn syscall(&mut self) -> SimDuration {
        let t = SimDuration::from_micros(5);
        self.busy += t;
        t
    }

    /// Total virtual compute time consumed.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_match_the_paper() {
        assert_eq!(CpuClass::PentiumMmx200.clock(), Frequency::from_mhz(200));
        assert_eq!(CpuClass::PentiumII300.clock(), Frequency::from_mhz(300));
        assert_eq!(CpuClass::Celeron450.clock(), Frequency::from_mhz(450));
    }

    #[test]
    fn integer_work_scales_with_ipc_and_clock() {
        let mut p2 = HostCpu::new(CpuClass::PentiumII300);
        let mut mmx = HostCpu::new(CpuClass::PentiumMmx200);
        let t_p2 = p2.integer_work(1_000_000);
        let t_mmx = mmx.integer_work(1_000_000);
        assert!(t_mmx > t_p2, "the older core is slower");
        // P-II at 300 MHz, 0.8 IPC ⇒ 240 M ops/s ⇒ ~4.17 ms for 1 M ops.
        assert!((t_p2.as_millis_f64() - 4.17).abs() < 0.01, "{t_p2}");
    }

    #[test]
    fn float_work_uses_mflops() {
        let mut p2 = HostCpu::new(CpuClass::PentiumII300);
        let t = p2.float_work(55_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut cpu = HostCpu::new(CpuClass::Celeron450);
        cpu.integer_work(1000);
        cpu.syscall();
        cpu.float_work(1000);
        assert!(cpu.busy_time() > SimDuration::from_micros(5));
    }
}
