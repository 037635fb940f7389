//! Hardware task switching on a coprocessor FPGA.
//!
//! §2: “In particular the partial reconfiguration is of great interest
//! for co-processing applications involving hardware task switches.”
//! A [`Coprocessor`] owns one FPGA and a named library of fitted
//! designs. `switch_to` loads a task: the first load is a full
//! configuration; subsequent switches use partial reconfiguration and pay
//! only for the frames that differ — the measurable benefit this module's
//! statistics expose. The library holds shared fits: a switch hands the
//! FPGA the library's `Arc`, never a copy of the netlist or its image.

use atlantis_chdl::Design;
use atlantis_fabric::{fit, Device, FittedDesign};
use atlantis_fabric::{ConfigError, FitError, Fpga};
use atlantis_simcore::SimDuration;
use std::collections::HashMap;
use std::sync::Arc;

/// Cumulative task-switch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Full configurations performed.
    pub full_loads: u64,
    /// Partial-reconfiguration switches performed.
    pub partial_switches: u64,
    /// Total configuration frames written.
    pub frames_written: u64,
    /// Total virtual time spent reconfiguring.
    pub reconfig_time: SimDuration,
}

/// Errors from the coprocessor API.
#[derive(Debug)]
pub enum TaskError {
    /// No task with that name in the library.
    UnknownTask(String),
    /// The design does not fit the device.
    Fit(FitError),
    /// The configuration port rejected the operation.
    Config(ConfigError),
    /// A pre-fitted design targets a different device than this FPGA.
    DeviceMismatch {
        /// Device the design was fitted for.
        fitted_for: String,
        /// Device this coprocessor drives.
        device: String,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::UnknownTask(n) => write!(f, "unknown task '{n}'"),
            TaskError::Fit(e) => write!(f, "fit: {e}"),
            TaskError::Config(e) => write!(f, "config: {e}"),
            TaskError::DeviceMismatch { fitted_for, device } => {
                write!(f, "design fitted for {fitted_for}, device is {device}")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// One FPGA plus its task library.
#[derive(Debug)]
pub struct Coprocessor {
    fpga: Fpga,
    library: HashMap<String, Arc<FittedDesign>>,
    current: Option<String>,
    stats: TaskStats,
}

impl Coprocessor {
    /// A coprocessor on a fresh FPGA of the given device.
    pub fn new(device: Device) -> Self {
        Coprocessor {
            fpga: Fpga::new(device),
            library: HashMap::new(),
            current: None,
            stats: TaskStats::default(),
        }
    }

    /// Fit a design and register it under a task name.
    pub fn register(&mut self, name: impl Into<String>, design: &Design) -> Result<(), TaskError> {
        let fitted = fit(design, self.fpga.device()).map_err(TaskError::Fit)?;
        self.library.insert(name.into(), Arc::new(fitted));
        Ok(())
    }

    /// Register an already fitted design — the path a shared bitstream
    /// cache uses to install one fit result on many coprocessors without
    /// re-running placement. An `Arc` is shared as is, golden image
    /// included. The fit must target this device.
    pub fn register_fitted(
        &mut self,
        name: impl Into<String>,
        fitted: impl Into<Arc<FittedDesign>>,
    ) -> Result<(), TaskError> {
        let fitted = fitted.into();
        if fitted.device() != self.fpga.device() {
            return Err(TaskError::DeviceMismatch {
                fitted_for: fitted.device().name.clone(),
                device: self.fpga.device().name.clone(),
            });
        }
        self.library.insert(name.into(), fitted);
        Ok(())
    }

    /// Whether a task name is already in the library.
    pub fn has_task(&self, name: &str) -> bool {
        self.library.contains_key(name)
    }

    /// Registered task names (sorted).
    pub fn tasks(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.library.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The task currently loaded, if any.
    pub fn current_task(&self) -> Option<&str> {
        self.current.as_deref()
    }

    /// Switch the FPGA to a task. First load configures fully; later
    /// switches use partial reconfiguration. Switching to the already
    /// loaded task is free. Returns the virtual time consumed.
    pub fn switch_to(&mut self, name: &str) -> Result<SimDuration, TaskError> {
        if self.current.as_deref() == Some(name) {
            return Ok(SimDuration::ZERO);
        }
        let fitted = Arc::clone(
            self.library
                .get(name)
                .ok_or_else(|| TaskError::UnknownTask(name.to_string()))?,
        );
        let t = if self.fpga.is_configured() && self.fpga.device().partial_reconfig {
            let (frames, t) = self
                .fpga
                .partial_reconfigure(fitted)
                .map_err(TaskError::Config)?;
            self.stats.partial_switches += 1;
            self.stats.frames_written += frames as u64;
            t
        } else {
            let t = self.fpga.configure(fitted).map_err(TaskError::Config)?;
            self.stats.full_loads += 1;
            self.stats.frames_written += self.fpga.device().config_frames as u64;
            t
        };
        self.stats.reconfig_time += t;
        self.current = Some(name.to_string());
        Ok(t)
    }

    /// The underlying FPGA (drive the loaded design through its `Sim`).
    pub fn fpga_mut(&mut self) -> &mut Fpga {
        &mut self.fpga
    }

    /// Shared access to the underlying FPGA (integrity inspection).
    pub fn fpga(&self) -> &Fpga {
        &self.fpga
    }

    /// Whether the live configuration still matches its golden image
    /// (read-back + compare; no repair).
    pub fn integrity_ok(&self) -> Result<bool, TaskError> {
        self.fpga.integrity_ok().map_err(TaskError::Config)
    }

    /// The configuration port's cheap frame-CRC scan — see
    /// [`Fpga::crc_check`].
    pub fn crc_check(&self) -> Result<atlantis_fabric::CrcCheck, TaskError> {
        self.fpga.crc_check().map_err(TaskError::Config)
    }

    /// Targeted repair of CRC-detectable corruption — see
    /// [`Fpga::repair_upsets`].
    pub fn repair_upsets(&mut self) -> Result<atlantis_fabric::ScrubReport, TaskError> {
        self.fpga.repair_upsets().map_err(TaskError::Config)
    }

    /// One full golden-image scrub pass — see [`Fpga::scrub`].
    pub fn scrub(&mut self) -> Result<atlantis_fabric::ScrubReport, TaskError> {
        self.fpga.scrub().map_err(TaskError::Config)
    }

    /// Switch statistics.
    pub fn stats(&self) -> TaskStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two related tasks sharing most structure, plus an unrelated one.
    fn task_design(name: &str, taps: &[u64]) -> Design {
        let mut d = Design::new(name);
        let x = d.input("x", 16);
        let mut acc = d.lit(0, 16);
        for (i, &t) in taps.iter().enumerate() {
            let k = d.lit(t, 16);
            let m = d.mul(x, k);
            let r = d.reg(format!("t{i}"), m);
            acc = d.add(acc, r);
        }
        d.expose_output("y", acc);
        d
    }

    fn coproc() -> Coprocessor {
        let mut c = Coprocessor::new(Device::orca_3t125());
        c.register("fir_a", &task_design("fir_a", &[1, 2, 3, 4]))
            .unwrap();
        c.register("fir_b", &task_design("fir_b", &[1, 2, 3, 5]))
            .unwrap();
        c.register("fir_long", &task_design("fir_long", &[9; 12]))
            .unwrap();
        c
    }

    #[test]
    fn first_load_is_full_then_partial() {
        let mut c = coproc();
        let t_full = c.switch_to("fir_a").unwrap();
        assert_eq!(c.stats().full_loads, 1);
        let t_partial = c.switch_to("fir_b").unwrap();
        assert_eq!(c.stats().partial_switches, 1);
        assert!(
            t_partial < t_full / 4,
            "task switch {t_partial} must be much cheaper than full load {t_full}"
        );
        assert_eq!(c.current_task(), Some("fir_b"));
    }

    #[test]
    fn switch_to_current_is_free() {
        let mut c = coproc();
        c.switch_to("fir_a").unwrap();
        let t = c.switch_to("fir_a").unwrap();
        assert_eq!(t, SimDuration::ZERO);
        assert_eq!(c.stats().partial_switches, 0);
    }

    /// Regression for the no-op fast path: re-switching to the loaded
    /// task must not touch the configuration port at all — no frames
    /// written, no reconfiguration time, no stats movement, and the
    /// running design's state survives (a real reconfiguration would
    /// reset it).
    #[test]
    fn switch_to_current_leaves_stats_and_state_untouched() {
        let mut c = coproc();
        c.switch_to("fir_a").unwrap();
        let sim = c.fpga_mut().sim_mut().unwrap();
        sim.set("x", 7);
        sim.step();
        let y_before = sim.get("y");
        let stats_before = c.stats();
        for _ in 0..3 {
            assert_eq!(c.switch_to("fir_a").unwrap(), SimDuration::ZERO);
        }
        assert_eq!(c.stats(), stats_before, "no-op switches move no stats");
        assert_eq!(c.current_task(), Some("fir_a"));
        assert_eq!(
            c.fpga_mut().sim_mut().unwrap().get("y"),
            y_before,
            "register state survives a no-op switch"
        );
    }

    #[test]
    fn register_fitted_skips_refit_and_checks_the_device() {
        let d = task_design("fir_a", &[1, 2, 3, 4]);
        let fitted = Arc::new(fit(&d, &Device::orca_3t125()).unwrap());

        let mut c = Coprocessor::new(Device::orca_3t125());
        assert!(!c.has_task("fir_a"));
        c.register_fitted("fir_a", Arc::clone(&fitted)).unwrap();
        assert!(c.has_task("fir_a"));
        c.switch_to("fir_a").unwrap();
        assert_eq!(c.current_task(), Some("fir_a"));
        assert!(
            Arc::ptr_eq(c.fpga().fitted().unwrap(), &fitted),
            "the registered fit is loaded as is, not copied"
        );

        // Same bitstream on a different device family is rejected.
        // A fit by value (copied into its own `Arc`) is checked the same way.
        let mut wrong = Coprocessor::new(Device::virtex_xcv600());
        assert!(matches!(
            wrong.register_fitted("fir_a", FittedDesign::clone(&fitted)),
            Err(TaskError::DeviceMismatch { .. })
        ));
    }

    #[test]
    fn similar_tasks_switch_faster_than_dissimilar() {
        let mut c1 = coproc();
        c1.switch_to("fir_a").unwrap();
        let t_similar = c1.switch_to("fir_b").unwrap();
        let mut c2 = coproc();
        c2.switch_to("fir_a").unwrap();
        let t_different = c2.switch_to("fir_long").unwrap();
        assert!(
            t_similar < t_different,
            "one-coefficient change {t_similar} vs new structure {t_different}"
        );
    }

    #[test]
    fn loaded_task_is_runnable() {
        let mut c = coproc();
        c.switch_to("fir_a").unwrap();
        let sim = c.fpga_mut().sim_mut().unwrap();
        sim.set("x", 10);
        sim.step();
        // taps 1,2,3,4 each × 10, all registered once: y = 100.
        assert_eq!(sim.get("y"), 100);
    }

    #[test]
    fn unknown_task_errors() {
        let mut c = coproc();
        assert!(matches!(
            c.switch_to("nope"),
            Err(TaskError::UnknownTask(_))
        ));
    }

    #[test]
    fn oversized_design_rejected_at_registration() {
        let mut c = Coprocessor::new(Device::xc4013e());
        let mut d = Design::new("big");
        let x = d.input("x", 64);
        let mut acc = x;
        for i in 0..8 {
            let k = d.lit(i + 1, 64);
            acc = d.mul(acc, k);
        }
        d.expose_output("y", acc);
        assert!(matches!(c.register("big", &d), Err(TaskError::Fit(_))));
    }

    #[test]
    fn scrub_surfaces_through_the_coprocessor() {
        let mut c = coproc();
        c.switch_to("fir_a").unwrap();
        assert!(c.integrity_ok().unwrap());
        c.fpga_mut().inject_upset(7, 2, 1).unwrap();
        assert!(!c.integrity_ok().unwrap());
        assert_eq!(c.crc_check().unwrap().stale_frames, 1);
        let r = c.repair_upsets().unwrap();
        assert_eq!(r.frames_repaired, 1);
        assert!(c.integrity_ok().unwrap());
        // A scrub on the now-clean device repairs nothing.
        assert_eq!(c.scrub().unwrap().frames_repaired, 0);
        // The unconfigured coprocessor maps the error through TaskError.
        let fresh = Coprocessor::new(Device::orca_3t125());
        assert!(matches!(
            fresh.integrity_ok(),
            Err(TaskError::Config(ConfigError::NotConfigured))
        ));
    }

    #[test]
    fn tasks_listing_sorted() {
        let c = coproc();
        assert_eq!(c.tasks(), vec!["fir_a", "fir_b", "fir_long"]);
    }

    #[test]
    fn stats_accumulate_over_a_switch_sequence() {
        let mut c = coproc();
        for name in ["fir_a", "fir_b", "fir_a", "fir_long", "fir_a"] {
            c.switch_to(name).unwrap();
        }
        let s = c.stats();
        assert_eq!(s.full_loads, 1);
        assert_eq!(s.partial_switches, 4);
        assert!(s.reconfig_time > SimDuration::ZERO);
    }
}
