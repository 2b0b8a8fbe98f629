//! Process-wide recovery ledger: every fault the engine survives — a
//! retried panic, a quarantined store entry (a torn crash-resume record
//! included), a lost worker thread — is recorded here as a structured
//! [`RecoveryEvent`] and tallied in the [`RecoveryCounters`].
//!
//! The ledger is the observability half of the fault-tolerant execution
//! layer: `--profile` prints the counters, the fault-injection tests
//! assert that every injected fault shows up as exactly the expected
//! event, and CI's kill/resume job checks the resume counters. Recording
//! never fails and never blocks progress; when the ledger is full (a
//! pathological fault storm) further events are counted but not stored.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bound on retained events — counters keep counting past it.
const MAX_EVENTS: usize = 4096;

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
    /// A sampled cell continued mid-cell from a crashed run's
    /// partial-progress envelope instead of starting over.
    CellResumed,
    /// A distributed worker's lease expired (missed heartbeats, death,
    /// hang) and the cell was re-issued to another worker.
    LeaseReclaimed,
    /// A cell was poisoned — enough distinct workers died holding its
    /// lease — and quarantined instead of wedging the run.
    CellPoisoned,
}

impl RecoveryKind {
    /// Stable label used in rendered reports and test assertions.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryKind::CellRetry => "cell-retry",
            RecoveryKind::CellQuarantined => "cell-quarantined",
            RecoveryKind::CacheQuarantined => "cache-quarantined",
            RecoveryKind::WorkerLost => "worker-lost",
            RecoveryKind::CellResumed => "cell-resumed",
            RecoveryKind::LeaseReclaimed => "lease-reclaimed",
            RecoveryKind::CellPoisoned => "cell-poisoned",
        }
    }
}

/// One survived fault: what happened, to what, and any specifics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Fault class.
    pub kind: RecoveryKind,
    /// What it happened to (workload name, store file).
    pub subject: String,
    /// Human-readable specifics (panic message, checksum mismatch, ...).
    pub detail: String,
}

static EVENTS: Mutex<Vec<RecoveryEvent>> = Mutex::new(Vec::new());

static RETRIES: AtomicU64 = AtomicU64::new(0);
static CELL_FAILURES: AtomicU64 = AtomicU64::new(0);
static CACHE_QUARANTINED: AtomicU64 = AtomicU64::new(0);
static WORKERS_LOST: AtomicU64 = AtomicU64::new(0);
static CELLS_RESUMED: AtomicU64 = AtomicU64::new(0);
static LEASES_RECLAIMED: AtomicU64 = AtomicU64::new(0);
static CELLS_POISONED: AtomicU64 = AtomicU64::new(0);

/// Totals per fault class since the last [`take_events`]-independent
/// [`reset`]. Snapshot via [`counters`].
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
    /// Sampled cells continued from a partial-progress envelope.
    pub cells_resumed: u64,
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

/// Records one survived fault.
pub fn record(kind: RecoveryKind, subject: impl Into<String>, detail: impl Into<String>) {
    match kind {
        RecoveryKind::CellRetry => &RETRIES,
        RecoveryKind::CellQuarantined => &CELL_FAILURES,
        RecoveryKind::CacheQuarantined => &CACHE_QUARANTINED,
        RecoveryKind::WorkerLost => &WORKERS_LOST,
        RecoveryKind::CellResumed => &CELLS_RESUMED,
        RecoveryKind::LeaseReclaimed => &LEASES_RECLAIMED,
        RecoveryKind::CellPoisoned => &CELLS_POISONED,
    }
    .fetch_add(1, Ordering::Relaxed);
    let mut events = EVENTS.lock().expect("recovery ledger poisoned");
    if events.len() < MAX_EVENTS {
        events.push(RecoveryEvent {
            kind,
            subject: subject.into(),
            detail: detail.into(),
        });
    }
}

/// Snapshot of the per-class totals.
pub fn counters() -> RecoveryCounters {
    RecoveryCounters {
        retries: RETRIES.load(Ordering::Relaxed),
        cell_failures: CELL_FAILURES.load(Ordering::Relaxed),
        cache_quarantined: CACHE_QUARANTINED.load(Ordering::Relaxed),
        workers_lost: WORKERS_LOST.load(Ordering::Relaxed),
        cells_resumed: CELLS_RESUMED.load(Ordering::Relaxed),
        leases_reclaimed: LEASES_RECLAIMED.load(Ordering::Relaxed),
        cells_poisoned: CELLS_POISONED.load(Ordering::Relaxed),
    }
}

/// Drains the retained events (counters are left untouched).
pub fn take_events() -> Vec<RecoveryEvent> {
    std::mem::take(&mut *EVENTS.lock().expect("recovery ledger poisoned"))
}

/// Clears events and counters (tests isolate themselves with this).
pub fn reset() {
    take_events();
    for c in [
        &RETRIES,
        &CELL_FAILURES,
        &CACHE_QUARANTINED,
        &WORKERS_LOST,
        &CELLS_RESUMED,
        &LEASES_RECLAIMED,
        &CELLS_POISONED,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Renders the counters as the `--profile` recovery line.
pub fn render(c: &RecoveryCounters) -> String {
    format!(
        "[profile] recovery: {} retries, {} cell failures, {} cache quarantined, {} workers lost, {} cells resumed, {} leases reclaimed, {} cells poisoned",
        c.retries,
        c.cell_failures,
        c.cache_quarantined,
        c.workers_lost,
        c.cells_resumed,
        c.leases_reclaimed,
        c.cells_poisoned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_tallies_and_drains() {
        reset();
        record(RecoveryKind::CellRetry, "histo", "injected panic");
        record(RecoveryKind::CacheQuarantined, "deadbeef.cell", "checksum");
        let c = counters();
        assert_eq!(c.retries, 1);
        assert_eq!(c.cache_quarantined, 1);
        assert!(c.any());
        let events = take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind.label(), "cell-retry");
        assert!(take_events().is_empty(), "drained");
        reset();
        assert!(!counters().any());
    }
}
