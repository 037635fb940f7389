//! Admission control: priority classes and per-tenant quotas in front
//! of every shard queue.
//!
//! A bounded queue alone sheds *whoever arrives last*, which is the
//! wrong answer under overload — a single chatty tenant can starve
//! everyone, and latency-critical work drowns behind batch work. The
//! cluster therefore refuses jobs *before* they reach a shard queue,
//! for one of three typed reasons:
//!
//! 1. **Tenant quota** — the tenant already has its full allowance of
//!    outstanding (admitted, not yet completed) jobs in the cluster.
//! 2. **Class shed** — the target shard's queue is filling, and the
//!    job's class sheds early: `Low` is refused once the queue passes
//!    `low_watermark`, `Normal` past `normal_watermark`, `High` only
//!    when the queue is actually full. Under overload the queue's tail
//!    is reserved for urgent work.
//! 3. **Queue full** — the hard bound, for `High` jobs too.
//!
//! Every refusal carries the queue depth seen and a retry-after hint
//! derived from the shard's service-time EWMA, mirroring
//! [`RuntimeError::Overloaded`](atlantis_runtime::RuntimeError) on the
//! threaded runtime.

use atlantis_runtime::Priority;
use atlantis_simcore::SimDuration;

/// Why the cluster refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The target shard's queue was at its hard bound.
    QueueFull,
    /// The tenant hit its outstanding-job quota.
    TenantQuota,
    /// The job's priority class sheds early at the current queue depth.
    ClassShed,
}

impl ShedReason {
    /// Stable index for counters (`[QueueFull, TenantQuota, ClassShed]`).
    pub fn index(self) -> usize {
        match self {
            ShedReason::QueueFull => 0,
            ShedReason::TenantQuota => 1,
            ShedReason::ClassShed => 2,
        }
    }

    /// Every reason, in [`index`](Self::index) order.
    pub const ALL: [ShedReason; 3] = [
        ShedReason::QueueFull,
        ShedReason::TenantQuota,
        ShedReason::ClassShed,
    ];
}

/// A refused job: the typed reason plus enough context for the client
/// to back off intelligently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overloaded {
    /// Why the job was refused.
    pub reason: ShedReason,
    /// The shard the job was routed to.
    pub shard: usize,
    /// That shard's queue depth at refusal.
    pub queue_depth: usize,
    /// The refused job's class.
    pub priority: Priority,
    /// Estimated virtual time until the shard drains enough to accept —
    /// zero until the shard's service EWMA calibrates.
    pub retry_after: SimDuration,
}

/// Admission tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum outstanding jobs per tenant across the cluster; `0`
    /// disables quotas.
    pub tenant_quota: usize,
    /// Queue-depth fraction past which `Low` jobs shed.
    pub low_watermark: f64,
    /// Queue-depth fraction past which `Normal` jobs shed.
    pub normal_watermark: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            tenant_quota: 0,
            low_watermark: 0.70,
            normal_watermark: 0.85,
        }
    }
}

/// The cluster-wide admission state: the tunables plus per-tenant
/// outstanding counts. Built with [`new`](Self::new) — no `Default`,
/// because zeroed watermarks would shed everything.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    outstanding: Vec<u64>,
}

impl AdmissionController {
    /// A controller with the given tunables.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            outstanding: Vec::new(),
        }
    }

    /// The tunables in force.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Decide whether a job of `priority` from `tenant` may enter a
    /// queue currently `depth` deep with bound `capacity`. Does not
    /// mutate state — call [`note_admitted`](Self::note_admitted) after
    /// the shard actually takes the job.
    pub fn check(
        &self,
        tenant: u32,
        priority: Priority,
        depth: usize,
        capacity: usize,
    ) -> Result<(), ShedReason> {
        if depth >= capacity {
            return Err(ShedReason::QueueFull);
        }
        if self.cfg.tenant_quota > 0 && self.outstanding(tenant) >= self.cfg.tenant_quota as u64 {
            return Err(ShedReason::TenantQuota);
        }
        let fill = depth as f64 / capacity.max(1) as f64;
        let watermark = match priority {
            Priority::High => 1.0,
            Priority::Normal => self.cfg.normal_watermark,
            Priority::Low => self.cfg.low_watermark,
        };
        if fill >= watermark {
            return Err(ShedReason::ClassShed);
        }
        Ok(())
    }

    /// Record that `tenant`'s job entered a shard queue.
    pub fn note_admitted(&mut self, tenant: u32) {
        let i = tenant as usize;
        if i >= self.outstanding.len() {
            self.outstanding.resize(i + 1, 0);
        }
        self.outstanding[i] += 1;
    }

    /// Record that `tenant`'s job left the cluster (completed).
    pub fn note_done(&mut self, tenant: u32) {
        let i = tenant as usize;
        debug_assert!(self.outstanding.get(i).is_some_and(|&n| n > 0));
        if let Some(n) = self.outstanding.get_mut(i) {
            *n = n.saturating_sub(1);
        }
    }

    /// `tenant`'s outstanding job count.
    pub fn outstanding(&self, tenant: u32) -> u64 {
        self.outstanding.get(tenant as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_shed_at_their_watermarks() {
        let a = AdmissionController::new(AdmissionConfig::default());
        let cap = 100;
        // Below every watermark: everyone admitted.
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(a.check(0, p, 50, cap), Ok(()));
        }
        // Past the Low watermark only.
        assert_eq!(
            a.check(0, Priority::Low, 70, cap),
            Err(ShedReason::ClassShed)
        );
        assert_eq!(a.check(0, Priority::Normal, 70, cap), Ok(()));
        // Past Normal too; High holds to the bound.
        assert_eq!(
            a.check(0, Priority::Normal, 85, cap),
            Err(ShedReason::ClassShed)
        );
        assert_eq!(a.check(0, Priority::High, 99, cap), Ok(()));
        assert_eq!(
            a.check(0, Priority::High, 100, cap),
            Err(ShedReason::QueueFull)
        );
    }

    #[test]
    fn quota_counts_outstanding_and_releases_on_done() {
        let mut a = AdmissionController::new(AdmissionConfig {
            tenant_quota: 2,
            ..AdmissionConfig::default()
        });
        assert_eq!(a.check(7, Priority::Normal, 0, 64), Ok(()));
        a.note_admitted(7);
        a.note_admitted(7);
        assert_eq!(a.outstanding(7), 2);
        assert_eq!(
            a.check(7, Priority::High, 0, 64),
            Err(ShedReason::TenantQuota),
            "quota binds every class"
        );
        assert_eq!(
            a.check(8, Priority::Normal, 0, 64),
            Ok(()),
            "other tenants unaffected"
        );
        a.note_done(7);
        assert_eq!(a.check(7, Priority::Normal, 0, 64), Ok(()));
    }

    #[test]
    fn queue_full_outranks_quota() {
        let mut a = AdmissionController::new(AdmissionConfig {
            tenant_quota: 1,
            ..AdmissionConfig::default()
        });
        a.note_admitted(1);
        assert_eq!(
            a.check(1, Priority::High, 64, 64),
            Err(ShedReason::QueueFull)
        );
    }

    #[test]
    fn reason_indices_are_stable() {
        for (i, r) in ShedReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }
}
