//! The recovery counters: every fault the engine survives — a retried
//! panic, a quarantined store entry (a torn crash-resume record
//! included), a lost worker thread, a reclaimed or poisoned lease — is
//! tallied by [`RecoveryKind`] in the recovery counters of its run
//! [`Context`](crate::runner::Context), shared by the context's engine
//! and stores.
//!
//! The counters are the observability half of the fault-tolerant
//! execution layer: `--profile` prints them as one `[profile] recovery:`
//! line, the fault-injection tests parse that line, and CI's kill/resume
//! job checks the resume counters. Recording never fails and never
//! blocks progress.

use std::sync::atomic::{AtomicU64, Ordering};

/// What kind of fault was survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A cell attempt panicked, timed out or errored and was retried.
    CellRetry,
    /// A cell exhausted its retries and was quarantined as a
    /// [`CellFailure`](crate::cell::CellFailure) instead of aborting the
    /// process.
    CellQuarantined,
    /// A corrupt, truncated or stale store entry was quarantined to
    /// `quarantine/` and the cell regenerated.
    CacheQuarantined,
    /// A worker thread died; its remaining cells ran serially on the
    /// coordinating thread.
    WorkerLost,
    /// A distributed worker's lease expired (missed heartbeats, death,
    /// hang) and the cell was re-issued to another worker.
    LeaseReclaimed,
    /// A cell was poisoned — enough distinct workers died holding its
    /// lease — and quarantined instead of wedging the run.
    CellPoisoned,
}

/// Totals per fault class, snapshot via
/// [`Context::recovery`](crate::runner::Context::recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Cell attempts retried after a panic, timeout or error.
    pub retries: u64,
    /// Cells quarantined as structured failures after exhausting retries.
    pub cell_failures: u64,
    /// Cache entries quarantined for failing integrity checks.
    pub cache_quarantined: u64,
    /// Worker threads lost (work continued serially).
    pub workers_lost: u64,
    /// Distributed leases that expired and were re-issued.
    pub leases_reclaimed: u64,
    /// Cells poisoned after enough distinct workers died holding them.
    pub cells_poisoned: u64,
}

impl RecoveryCounters {
    /// Whether any fault was survived at all.
    pub fn any(&self) -> bool {
        *self != RecoveryCounters::default()
    }
}

/// One run context's recovery counters, indexed by [`RecoveryKind`].
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    counts: [AtomicU64; 6],
}

impl Recovery {
    /// Counts one survived fault.
    pub fn record(&self, kind: RecoveryKind) {
        self.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the per-class totals.
    pub fn counters(&self) -> RecoveryCounters {
        let count = |kind: RecoveryKind| self.counts[kind as usize].load(Ordering::Relaxed);
        RecoveryCounters {
            retries: count(RecoveryKind::CellRetry),
            cell_failures: count(RecoveryKind::CellQuarantined),
            cache_quarantined: count(RecoveryKind::CacheQuarantined),
            workers_lost: count(RecoveryKind::WorkerLost),
            leases_reclaimed: count(RecoveryKind::LeaseReclaimed),
            cells_poisoned: count(RecoveryKind::CellPoisoned),
        }
    }
}

/// Renders the counters as the `--profile` recovery line.
pub fn render(c: &RecoveryCounters) -> String {
    format!(
        "[profile] recovery: {} retries, {} cell failures, {} cache quarantined, {} workers lost, {} leases reclaimed, {} cells poisoned",
        c.retries,
        c.cell_failures,
        c.cache_quarantined,
        c.workers_lost,
        c.leases_reclaimed,
        c.cells_poisoned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_tallies_per_kind() {
        let ledger = Recovery::default();
        assert!(!ledger.counters().any());
        ledger.record(RecoveryKind::CellRetry);
        ledger.record(RecoveryKind::CacheQuarantined);
        ledger.record(RecoveryKind::CellPoisoned);
        let c = ledger.counters();
        assert_eq!(
            (c.retries, c.cache_quarantined, c.cells_poisoned),
            (1, 1, 1)
        );
        assert_eq!(c.cell_failures + c.workers_lost, 0);
        assert!(c.any());
    }
}
