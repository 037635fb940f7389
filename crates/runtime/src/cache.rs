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

    /// The device family this cache fits for.
    pub(crate) fn device(&self) -> &Device {
        &self.device
    }

    /// Fit every workload design up front, one after another: the four
    /// fits take about 0.2 ms, and spreading them over threads measured
    /// slower (DESIGN.md §8). Serving then never blocks a job on the
    /// fitter. The first design that does not fit stops the loop and its
    /// [`FitError`] is returned; designs fitted before it stay cached.
    pub fn prefit_all(&self) -> Result<(), FitError> {
        for kind in JobKind::ALL {
            let fitted = Arc::new(fit(&kind.build_design(), &self.device)?);
            self.fits
                .lock()
                .expect("bitstream cache lock poisoned")
                .insert(kind.design_name(), fitted);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefit_all_returns_the_fit_error_and_caches_nothing() {
        let cache = BitstreamCache::new(Device {
            system_gates: 1,
            ..Device::orca_3t125()
        });
        assert!(matches!(
            cache.prefit_all(),
            Err(FitError::Gates { have: 1, .. })
        ));
        assert!(cache.fits.lock().unwrap().is_empty());
        assert_eq!(cache.counters(), (0, 0));
    }
}
