//! The configurable FPGA: full configuration, partial reconfiguration and
//! read-back.
//!
//! The paper singles out partial reconfiguration as “of great interest for
//! co-processing applications involving hardware task switches” (§2): a
//! coprocessor can swap algorithms without paying a full-device
//! configuration. [`Fpga`] models both paths with realistic virtual-time
//! cost (frames × frame time at the configuration clock) and gives the
//! host a live [`Sim`] of the configured design to drive.
//!
//! On the host, a switch costs a compare of the frames, not a rebuilt
//! device: the FPGA keeps the caller's shared [`FittedDesign`], its live
//! image is the fit's golden image until a write copies it, and the
//! [`Sim`] is built on the first [`Fpga::sim_mut`] or
//! [`Fpga::run_cycles`], not by the configuration.

use crate::bitstream::Bitstream;
use crate::clock::ProgrammableClock;
use crate::device::Device;
use crate::fit::FittedDesign;
use atlantis_chdl::Sim;
use atlantis_simcore::{Frequency, SimDuration};
use std::fmt;
use std::sync::Arc;

/// Errors from configuration operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The fitted design targets a different part than this FPGA.
    DeviceMismatch {
        /// This FPGA's part name.
        expected: String,
        /// The design's target part name.
        got: String,
    },
    /// Operation requires a configured device.
    NotConfigured,
    /// This part does not support partial reconfiguration.
    PartialUnsupported,
    /// This part does not support configuration read-back.
    ReadbackUnsupported,
    /// The requested design clock exceeds the device's maximum.
    ClockTooFast {
        /// Requested frequency.
        requested: Frequency,
        /// Device maximum.
        max: Frequency,
    },
    /// An upset-injection coordinate lies outside the configuration
    /// image — frame or byte index past the device's geometry.
    UpsetOutOfRange {
        /// Requested frame index.
        frame: u32,
        /// Requested byte index within the frame.
        byte: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DeviceMismatch { expected, got } => {
                write!(f, "design fitted for {got}, FPGA is {expected}")
            }
            ConfigError::NotConfigured => write!(f, "FPGA is not configured"),
            ConfigError::PartialUnsupported => {
                write!(f, "device does not support partial reconfiguration")
            }
            ConfigError::ReadbackUnsupported => write!(f, "device does not support read-back"),
            ConfigError::ClockTooFast { requested, max } => {
                write!(f, "requested {requested} exceeds device maximum {max}")
            }
            ConfigError::UpsetOutOfRange { frame, byte } => {
                write!(
                    f,
                    "upset target frame {frame} byte {byte} outside the config image"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[derive(Debug)]
struct Loaded {
    fitted: Arc<FittedDesign>,
    /// The live image: the fit's golden image until a write copies it.
    bitstream: Arc<Bitstream>,
    /// The running design, built on first use (see [`Loaded::sim`]).
    sim: Option<Sim>,
}

impl Loaded {
    /// A freshly configured design: live image shared with the golden
    /// one, no simulator yet.
    fn new(fitted: Arc<FittedDesign>) -> Self {
        Loaded {
            bitstream: fitted.bitstream(),
            fitted,
            sim: None,
        }
    }

    /// The running design's simulator, built in its init state on first
    /// use — configured logic comes up reset, whenever it is first
    /// driven.
    fn sim(&mut self) -> &mut Sim {
        self.sim
            .get_or_insert_with(|| Sim::new(self.fitted.design()))
    }
}

/// Lifetime statistics of one FPGA's configuration port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfigStats {
    /// Full configurations performed.
    pub full_configs: u64,
    /// Partial reconfigurations performed.
    pub partial_configs: u64,
    /// Total configuration frames written.
    pub frames_written: u64,
    /// Total virtual time spent configuring.
    pub config_time: SimDuration,
    /// Scrub passes performed (see [`crate::scrub`]).
    pub scrub_passes: u64,
    /// Frames repaired by scrubbing.
    pub frames_scrubbed: u64,
}

/// One simulated FPGA on a board.
#[derive(Debug)]
pub struct Fpga {
    device: Device,
    clock: ProgrammableClock,
    loaded: Option<Loaded>,
    stats: ConfigStats,
    /// Injected-but-unrepaired upsets, in injection order (see
    /// [`crate::scrub`]). Any configuration write — full, partial or a
    /// scrub repair — rewrites the affected frames, so the tracker is
    /// cleared by those paths.
    upsets: Vec<crate::scrub::Upset>,
}

impl Fpga {
    /// An unconfigured FPGA of the given part, with its design clock
    /// initially programmed to 40 MHz (the paper's measurement setting).
    pub fn new(device: Device) -> Self {
        Fpga {
            device,
            clock: ProgrammableClock::new("design", Frequency::from_mhz(40)),
            loaded: None,
            stats: ConfigStats::default(),
            upsets: Vec::new(),
        }
    }

    /// The part description.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The design clock.
    pub fn clock(&self) -> &ProgrammableClock {
        &self.clock
    }

    /// Reprogram the design clock. Fails if the frequency exceeds the
    /// device's maximum (or the programmable range).
    pub fn set_clock(&mut self, freq: Frequency) -> Result<(), ConfigError> {
        if freq > self.device.max_clock {
            return Err(ConfigError::ClockTooFast {
                requested: freq,
                max: self.device.max_clock,
            });
        }
        if !self.clock.set_frequency(freq) {
            return Err(ConfigError::ClockTooFast {
                requested: freq,
                max: self.device.max_clock,
            });
        }
        Ok(())
    }

    /// Whether a design is currently loaded.
    pub fn is_configured(&self) -> bool {
        self.loaded.is_some()
    }

    /// Name of the loaded design, if any.
    pub fn design_name(&self) -> Option<&str> {
        self.loaded.as_ref().map(|l| l.fitted.design().name())
    }

    /// Configuration statistics.
    pub fn stats(&self) -> ConfigStats {
        self.stats
    }

    /// Full configuration: stream the complete bitstream through the
    /// configuration port. Returns the virtual time consumed. The FPGA
    /// keeps the shared fit (pass an `Arc` to share it with others).
    pub fn configure(
        &mut self,
        fitted: impl Into<Arc<FittedDesign>>,
    ) -> Result<SimDuration, ConfigError> {
        let fitted = fitted.into();
        self.check_device(&fitted)?;
        let t = self.device.full_config_time();
        self.stats.full_configs += 1;
        self.stats.frames_written += self.device.config_frames as u64;
        self.stats.config_time += t;
        self.loaded = Some(Loaded::new(fitted));
        // A full configuration rewrites every frame: pending upsets are
        // overwritten with fresh configuration data.
        self.upsets.clear();
        Ok(t)
    }

    /// Partial reconfiguration (hardware task switch): writes only the
    /// frames that differ between the current and the new design — the
    /// count [`Bitstream::diff`] would give, taken without building the
    /// partial image. The running design state is replaced (registers
    /// reset), as on real hardware where reconfigured logic comes up in
    /// its init state. Returns `(frames_written, virtual_time)`.
    pub fn partial_reconfigure(
        &mut self,
        fitted: impl Into<Arc<FittedDesign>>,
    ) -> Result<(u32, SimDuration), ConfigError> {
        let fitted = fitted.into();
        self.check_device(&fitted)?;
        if !self.device.partial_reconfig {
            return Err(ConfigError::PartialUnsupported);
        }
        let loaded = self.loaded.as_ref().ok_or(ConfigError::NotConfigured)?;
        let frames = loaded.bitstream.changed_frames(&fitted.bitstream()).count() as u32;
        let t = self.device.frame_config_time(frames);
        self.stats.partial_configs += 1;
        self.stats.frames_written += frames as u64;
        self.stats.config_time += t;
        self.loaded = Some(Loaded::new(fitted));
        // The frames are compared against the *live* (possibly
        // corrupted) image, so every corrupted frame differs from the
        // target and is rewritten — a task switch heals pending upsets as
        // a side effect, exactly as on real hardware.
        self.upsets.clear();
        Ok((frames, t))
    }

    /// Read back the current configuration for verification (§2's
    /// “read-back/test” feature).
    pub fn readback(&self) -> Result<Bitstream, ConfigError> {
        if !self.device.readback {
            return Err(ConfigError::ReadbackUnsupported);
        }
        self.loaded
            .as_ref()
            .map(|l| Bitstream::clone(&l.bitstream))
            .ok_or(ConfigError::NotConfigured)
    }

    /// Clear the configuration (power-cycle / PRGM pin).
    pub fn deconfigure(&mut self) {
        self.loaded = None;
        self.upsets.clear();
    }

    /// Mutable access to the running design's simulator, built on the
    /// first call after a configuration.
    pub fn sim_mut(&mut self) -> Option<&mut Sim> {
        self.loaded.as_mut().map(Loaded::sim)
    }

    /// The fitted design currently loaded — the shared fit it was
    /// configured from.
    pub fn fitted(&self) -> Option<&Arc<FittedDesign>> {
        self.loaded.as_ref().map(|l| &l.fitted)
    }

    /// Step the running design `n` cycles and return the virtual time
    /// consumed at the current design clock. Uses the simulator's fused
    /// batch path ([`Sim::run_batch`]).
    pub fn run_cycles(&mut self, n: u64) -> Result<SimDuration, ConfigError> {
        let clock_time = self.clock.cycles(n);
        let loaded = self.loaded.as_mut().ok_or(ConfigError::NotConfigured)?;
        loaded.sim().run_batch(n);
        Ok(clock_time)
    }

    /// Mutable access to the live configuration image (scrubbing and
    /// fault injection). The first write after a configuration copies
    /// the shared golden image, so the golden image and every other FPGA
    /// loaded from the same fit never see it.
    pub(crate) fn live_bitstream_mut(&mut self) -> Option<&mut Bitstream> {
        self.loaded
            .as_mut()
            .map(|l| Arc::make_mut(&mut l.bitstream))
    }

    /// Shared access to the live configuration image (CRC scanning and
    /// golden compares).
    pub(crate) fn live_bitstream(&self) -> Option<&Arc<Bitstream>> {
        self.loaded.as_ref().map(|l| &l.bitstream)
    }

    /// Account a scrub pass in the statistics.
    pub(crate) fn note_scrub(&mut self, frames_repaired: u32, time: SimDuration) {
        self.stats.scrub_passes += 1;
        self.stats.frames_scrubbed += frames_repaired as u64;
        self.stats.config_time += time;
        self.stats.frames_written += frames_repaired as u64;
    }

    /// Account a targeted frame repair (not a full scrub pass).
    pub(crate) fn note_repair(&mut self, frames_repaired: u32, time: SimDuration) {
        self.stats.frames_scrubbed += frames_repaired as u64;
        self.stats.config_time += time;
        self.stats.frames_written += frames_repaired as u64;
    }

    /// Upsets injected since the last repair, scrub or configuration
    /// write, in injection order — the campaign driver's view of what is
    /// currently corrupting this device.
    pub fn pending_upsets(&self) -> &[crate::scrub::Upset] {
        &self.upsets
    }

    /// Mutable tracker access for the scrub module.
    pub(crate) fn upsets_mut(&mut self) -> &mut Vec<crate::scrub::Upset> {
        &mut self.upsets
    }

    fn check_device(&self, fitted: &FittedDesign) -> Result<(), ConfigError> {
        if fitted.device().name != self.device.name {
            return Err(ConfigError::DeviceMismatch {
                expected: self.device.name.clone(),
                got: fitted.device().name.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fit;
    use atlantis_chdl::Design;

    /// A counter design parameterised by its increment — pairs of these
    /// share most of their structure, giving small partial bitstreams.
    fn counter_design(step: u64) -> Design {
        let mut d = Design::new(format!("counter_x{step}"));
        let q = d.reg_feedback("q", 16, |d, q| d.add_const(q, step));
        d.expose_output("count", q);
        d
    }

    fn fitted(step: u64) -> FittedDesign {
        fit(&counter_design(step), &Device::orca_3t125()).unwrap()
    }

    #[test]
    fn configure_loads_and_runs() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        assert!(!fpga.is_configured());
        let t = fpga.configure(fitted(1)).unwrap();
        assert_eq!(t, Device::orca_3t125().full_config_time());
        assert!(fpga.is_configured());
        fpga.run_cycles(10).unwrap();
        assert_eq!(fpga.sim_mut().unwrap().get("count"), 10);
    }

    #[test]
    fn run_cycles_reports_clock_time() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        fpga.configure(fitted(1)).unwrap();
        let t = fpga.run_cycles(40_000).unwrap();
        assert_eq!(t, Frequency::from_mhz(40).cycles(40_000));
        fpga.set_clock(Frequency::from_mhz(20)).unwrap();
        let t2 = fpga.run_cycles(40_000).unwrap();
        assert_eq!(t2, t * 2, "half the clock, twice the time");
    }

    #[test]
    fn clock_limit_enforced() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        let err = fpga.set_clock(Frequency::from_mhz(90)).unwrap_err();
        assert!(matches!(err, ConfigError::ClockTooFast { .. }));
    }

    #[test]
    fn partial_reconfig_is_cheaper_than_full() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        let full_t = fpga.configure(fitted(1)).unwrap();
        let (frames, partial_t) = fpga.partial_reconfigure(fitted(2)).unwrap();
        assert!(frames > 0, "designs differ");
        assert!(
            frames < Device::orca_3t125().config_frames / 4,
            "similar designs touch few frames: {frames}"
        );
        assert!(
            partial_t < full_t / 4,
            "partial {partial_t} vs full {full_t}"
        );
        // The new design is live.
        fpga.run_cycles(5).unwrap();
        assert_eq!(fpga.sim_mut().unwrap().get("count"), 10);
        assert_eq!(fpga.design_name(), Some("counter_x2"));
    }

    #[test]
    fn configuration_shares_the_fit_and_defers_the_sim() {
        let (one, two) = (Arc::new(fitted(1)), Arc::new(fitted(2)));
        let mut fpga = Fpga::new(Device::orca_3t125());
        let sim_built = |fpga: &Fpga| fpga.loaded.as_ref().unwrap().sim.is_some();
        fpga.configure(Arc::clone(&one)).unwrap();
        assert!(
            Arc::ptr_eq(fpga.fitted().unwrap(), &one),
            "no copy of the fit"
        );
        assert!(!sim_built(&fpga), "configuring builds no Sim");
        fpga.run_cycles(3).unwrap();
        assert!(sim_built(&fpga));
        fpga.partial_reconfigure(Arc::clone(&two)).unwrap();
        assert!(Arc::ptr_eq(fpga.fitted().unwrap(), &two));
        assert!(!sim_built(&fpga), "a switch drops the old Sim, builds none");
        assert_eq!(
            fpga.sim_mut().unwrap().get("count"),
            0,
            "the new design comes up reset"
        );
    }

    #[test]
    fn partial_reconfig_matches_full_config_state() {
        let mut a = Fpga::new(Device::orca_3t125());
        a.configure(fitted(1)).unwrap();
        a.partial_reconfigure(fitted(3)).unwrap();

        let mut b = Fpga::new(Device::orca_3t125());
        b.configure(fitted(3)).unwrap();

        assert_eq!(
            a.readback().unwrap(),
            b.readback().unwrap(),
            "partial reconfig converges to the full image"
        );
    }

    #[test]
    fn partial_reconfig_requires_configuration() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        let err = fpga.partial_reconfigure(fitted(1)).unwrap_err();
        assert_eq!(err, ConfigError::NotConfigured);
    }

    #[test]
    fn partial_reconfig_rejected_on_non_pr_parts() {
        let dev = Device::xc4013e();
        let small = fit(&counter_design(1), &dev).unwrap();
        let small2 = fit(&counter_design(2), &dev).unwrap();
        let mut fpga = Fpga::new(dev);
        fpga.configure(small).unwrap();
        let err = fpga.partial_reconfigure(small2).unwrap_err();
        assert_eq!(err, ConfigError::PartialUnsupported);
    }

    #[test]
    fn device_mismatch_rejected() {
        let mut fpga = Fpga::new(Device::virtex_xcv600());
        let err = fpga.configure(fitted(1)).unwrap_err();
        assert!(matches!(err, ConfigError::DeviceMismatch { .. }));
    }

    #[test]
    fn readback_returns_loaded_image() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        let f = Arc::new(fitted(1));
        fpga.configure(Arc::clone(&f)).unwrap();
        let rb = fpga.readback().unwrap();
        assert_eq!(rb, *f.bitstream());
        assert!(rb.verify());
    }

    #[test]
    fn readback_unconfigured_fails() {
        let fpga = Fpga::new(Device::orca_3t125());
        assert_eq!(fpga.readback().unwrap_err(), ConfigError::NotConfigured);
    }

    #[test]
    fn deconfigure_clears() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        fpga.configure(fitted(1)).unwrap();
        fpga.deconfigure();
        assert!(!fpga.is_configured());
        assert!(fpga.sim_mut().is_none());
    }

    #[test]
    fn stats_accumulate() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        fpga.configure(fitted(1)).unwrap();
        fpga.partial_reconfigure(fitted(2)).unwrap();
        fpga.partial_reconfigure(fitted(1)).unwrap();
        let s = fpga.stats();
        assert_eq!(s.full_configs, 1);
        assert_eq!(s.partial_configs, 2);
        assert!(s.frames_written > Device::orca_3t125().config_frames as u64);
        assert!(s.config_time > SimDuration::ZERO);
    }
}
