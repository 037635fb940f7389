//! The shared bitstream cache.
//!
//! Fitting (place & route) is the expensive step of configuration —
//! §2's partial reconfiguration only pays off because the fitted
//! bitstreams of recurring tasks are kept around. The cache fits each
//! workload design once per device family and hands out shared
//! [`FittedDesign`]s; every worker installs them into its coprocessor's
//! task library via
//! [`Coprocessor::register_fitted`](atlantis_core::Coprocessor::register_fitted),
//! so repeat configurations never re-run the fitter.
//!
//! Each cached fit also carries its golden configuration image
//! ([`FittedDesign::bitstream`]), built on the first load of that design
//! and shared by every FPGA loaded from the fit after that, so a task
//! switch never rebuilds a device image.

use atlantis_apps::jobs::JobKind;
use atlantis_fabric::{fit, Device, FitError, FittedDesign};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fit-once cache of workload bitstreams, keyed by design name.
#[derive(Debug)]
pub struct BitstreamCache {
    device: Device,
    fits: Mutex<HashMap<&'static str, Arc<FittedDesign>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BitstreamCache {
    /// An empty cache for one device family.
    pub fn new(device: Device) -> Self {
        BitstreamCache {
            device,
            fits: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fit every workload design up front, in parallel (vendored rayon).
    /// Serving then never blocks a job on the fitter.
    pub fn prefit_all(&self) -> Result<(), FitError> {
        let fitted: Vec<(JobKind, Result<FittedDesign, FitError>)> = JobKind::ALL
            .par_iter()
            .map(|&kind| (kind, fit(&kind.build_design(), &self.device)))
            .collect();
        let mut fits = self.fits.lock().unwrap();
        for (kind, result) in fitted {
            fits.insert(kind.design_name(), Arc::new(result?));
        }
        Ok(())
    }

    /// The fitted bitstream for a workload — cached, or fitted on first
    /// use.
    pub fn get(&self, kind: JobKind) -> Result<Arc<FittedDesign>, FitError> {
        if let Some(hit) = self.fits.lock().unwrap().get(kind.design_name()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fitted = Arc::new(fit(&kind.build_design(), &self.device)?);
        self.fits
            .lock()
            .unwrap()
            .insert(kind.design_name(), Arc::clone(&fitted));
        Ok(fitted)
    }

    /// `(hits, misses)` of [`BitstreamCache::get`] since construction.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}
