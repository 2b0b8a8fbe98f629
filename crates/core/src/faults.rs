//! Deterministic fault injection for exercising the recovery layer.
//!
//! The crash-safety machinery — retries, quarantine, crash resume,
//! store integrity — is exactly the kind of code that silently rots
//! because nothing exercises it in an ordinary run. This module plants
//! cheap hooks at the fault sites (cell attempts, durable writes, worker
//! loops) that do nothing unless a [`FaultPlan`] is installed, and inject
//! *deterministic* failures when one is:
//!
//! * **cell panics / hangs** — selected by a seeded hash of the workload
//!   name, so the same plan always breaks the same cells regardless of
//!   scheduling, and by default only on a cell's first attempt, so a
//!   retry demonstrably recovers it;
//! * **durable-write faults** — [`FaultPlan::on_sealed_write`] runs after every
//!   sealed record write (cell store, checkpoint store, the daemon's job
//!   and result envelopes). `corrupt=N` flips
//!   a byte in every Nth write, simulating bit rot the next lookup must
//!   quarantine; `truncate=N` (alias
//!   `partial-upload=N`) cuts every Nth write in half, a crash landing
//!   mid-entry or a result upload dying midway; `kill-after=N` calls
//!   [`std::process::abort`] after N writes, a reproducible stand-in for
//!   SIGKILL in crash/resume tests;
//! * **distributed modes** — `worker-kill-after` aborts a `dmdc worker`
//!   after N completed cells, `drop-heartbeats` silences its heartbeat
//!   thread and `stale-claim` delays its first completion past the lease
//!   TTL — together with truncated uploads they exercise every reclaim
//!   path in [`distrib`](crate::distrib).
//!
//! Plans are spelled as compact `key=value` strings (see
//! [`FaultPlan::parse`]) so the CLI (`dmdc ... --inject-faults ...`), CI
//! smoke jobs and integration tests all share one vocabulary. A plan
//! lives in a run [`Context`](crate::runner::Context) and in the stores
//! built for it; production runs carry none, and each hook site then
//! costs one `Option` check.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cache::Fnv64;

/// A deterministic fault-injection schedule. All periods default to 0
/// (= never fire).
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Perturbs which workloads are selected for panics/hangs.
    pub seed: u64,
    /// Panic in 1-in-`panic_period` workloads' cells.
    pub panic_period: u64,
    /// Panic on attempts `< panic_attempts` of a selected cell
    /// (default 1: first attempt only, so a retry recovers it; set it
    /// above the retry budget to force quarantine).
    pub panic_attempts: u32,
    /// Hang in 1-in-`hang_period` workloads' cells (first attempt only).
    pub hang_period: u64,
    /// How long an injected hang sleeps, in milliseconds.
    pub hang_ms: u64,
    /// Flip a byte in every Nth durable write.
    pub corrupt_period: u64,
    /// Cut every Nth durable write in half (`truncate=N`, or its alias
    /// `partial-upload=N`, the distributed worker's "result upload died
    /// midway" that the coordinator must catch by unsealing).
    pub truncate_period: u64,
    /// Panic one worker thread outside the per-cell isolation, forcing
    /// the serial-degradation path.
    pub worker_panic: bool,
    /// Abort the process after this many durable writes (0 = off).
    pub kill_after: u64,
    /// Distributed mode: abort a `dmdc worker` process after it has
    /// completed this many cells (0 = off) — a reproducible kill -9
    /// mid-run, forcing the coordinator to reclaim the forfeited lease.
    pub worker_kill_after: u64,
    /// Distributed mode: the worker's heartbeat thread goes silent, so
    /// its leases expire under it even though it keeps executing.
    pub drop_heartbeats: bool,
    /// Distributed mode: the worker sleeps this long (ms) before
    /// completing its first cell — past a short lease TTL, the completion
    /// arrives from a stale lease holder after the cell was re-issued.
    pub stale_claim_ms: u64,

    sealed_writes: AtomicU64,
    worker_fired: AtomicBool,
    distrib_completed: AtomicU64,
    stale_claim_fired: AtomicBool,
}

impl FaultPlan {
    /// Parses a plan from a compact `key=value[,key=value...]` spec:
    ///
    /// ```text
    /// seed=7,panic=2,panic-attempts=9,hang=3,hang-ms=200,
    /// corrupt=2,truncate=2,worker-panic=1,kill-after=4,
    /// worker-kill-after=3,drop-heartbeats=1,stale-claim=400,partial-upload=2
    /// ```
    ///
    /// Unknown keys are rejected so a typo cannot silently disable the
    /// fault it meant to inject.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            panic_attempts: 1,
            hang_ms: 1_000,
            ..FaultPlan::default()
        };
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec '{part}' is not key=value"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("fault spec '{part}': '{value}' is not a number"))?;
            match key {
                "seed" => plan.seed = n,
                "panic" => plan.panic_period = n,
                "panic-attempts" => plan.panic_attempts = n as u32,
                "hang" => plan.hang_period = n,
                "hang-ms" => plan.hang_ms = n,
                "corrupt" => plan.corrupt_period = n,
                "truncate" | "partial-upload" => plan.truncate_period = n,
                "worker-panic" => plan.worker_panic = n != 0,
                "kill-after" => plan.kill_after = n,
                "worker-kill-after" => plan.worker_kill_after = n,
                "drop-heartbeats" => plan.drop_heartbeats = n != 0,
                "stale-claim" => plan.stale_claim_ms = n,
                _ => return Err(format!("unknown fault key '{key}'")),
            }
        }
        Ok(plan)
    }

    /// Whether a workload is selected for a fault class: a pure seeded
    /// hash, so the choice is independent of scheduling order.
    fn selects(&self, period: u64, workload: &str, class: &str) -> bool {
        if period == 0 {
            return false;
        }
        let mut h = Fnv64::new();
        h.write_u64(self.seed);
        h.write(workload.as_bytes());
        h.write(class.as_bytes());
        h.finish().is_multiple_of(period)
    }
}

impl FaultPlan {
    /// Hook: start of one isolated cell attempt. May panic or sleep.
    pub fn on_cell_attempt(&self, workload: &str, attempt: u32) {
        if self.selects(self.panic_period, workload, "panic") && attempt < self.panic_attempts {
            panic!("injected fault: cell panic (workload {workload}, attempt {attempt})");
        }
        if self.selects(self.hang_period, workload, "hang") && attempt == 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.hang_ms));
        }
    }

    /// Hook: a worker is about to claim cell `index`. Panics outside the
    /// per-cell isolation exactly once per plan, killing the worker thread.
    pub fn on_worker_cell(&self, index: usize) {
        if self.worker_panic && !self.worker_fired.swap(true, Ordering::Relaxed) {
            panic!("injected fault: worker death at cell {index}");
        }
    }

    /// Hook: a sealed record (cell store, checkpoint store, or the
    /// daemon's job or result envelope) was just renamed into place.
    /// Writes are
    /// counted from 0; with `corrupt=N` write `n` gets its last byte
    /// flipped when `(n + seed) % N == 0`, preserving length (a
    /// checksum-mismatch quarantine, not a truncation); with `truncate=N`
    /// it is cut in half under the same rule. After `kill_after` writes
    /// the process aborts — the reproducible SIGKILL crash/resume tests
    /// lean on.
    pub fn on_sealed_write(&self, path: &Path) {
        let n = self.sealed_writes.fetch_add(1, Ordering::Relaxed);
        let fires = |period: u64| period > 0 && (n + self.seed).is_multiple_of(period);
        if fires(self.corrupt_period) {
            if let Ok(mut bytes) = std::fs::read(path) {
                if let Some(b) = bytes.last_mut() {
                    *b ^= 0x01;
                    let _ = std::fs::write(path, bytes);
                }
            }
        }
        if fires(self.truncate_period) {
            if let Ok(bytes) = std::fs::read(path) {
                let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
            }
        }
        if self.kill_after > 0 && n + 1 >= self.kill_after {
            eprintln!("injected fault: aborting after {} durable writes", n + 1);
            std::process::abort();
        }
    }

    /// Hook: a distributed worker just completed (and published) one
    /// cell. With `worker-kill-after=N`, the process aborts after the Nth
    /// — the reproducible kill -9 the distributed recovery tests lean on.
    pub fn on_distrib_cell_done(&self) {
        if self.worker_kill_after == 0 {
            return;
        }
        let n = self.distrib_completed.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.worker_kill_after {
            eprintln!("injected fault: worker aborting after {n} completed cells");
            std::process::abort();
        }
    }

    /// Hook: one-shot stale-claim delay in milliseconds, taken by the
    /// distributed worker before completing its first cell. With a lease
    /// TTL shorter than the delay, the completion arrives from an expired
    /// lease holder — the coordinator must reject it as stale while the
    /// re-issued lease produces the result.
    pub fn take_stale_claim_ms(&self) -> Option<u64> {
        if self.stale_claim_ms == 0 || self.stale_claim_fired.swap(true, Ordering::Relaxed) {
            return None;
        }
        Some(self.stale_claim_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_full_spec_and_rejects_typos() {
        let plan = FaultPlan::parse(
            "seed=7,panic=2,panic-attempts=9,hang=3,hang-ms=200,corrupt=2,truncate=2,\
             worker-panic=1,kill-after=4,worker-kill-after=3,drop-heartbeats=1,\
             stale-claim=400,partial-upload=2",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_period, 2);
        assert_eq!(plan.panic_attempts, 9);
        assert_eq!(plan.hang_period, 3);
        assert_eq!(plan.hang_ms, 200);
        assert_eq!(plan.corrupt_period, 2);
        assert_eq!(plan.truncate_period, 2);
        assert!(plan.worker_panic);
        assert_eq!(plan.kill_after, 4);
        assert_eq!(plan.worker_kill_after, 3);
        assert!(plan.drop_heartbeats);
        assert_eq!(plan.stale_claim_ms, 400);
        assert_eq!(
            FaultPlan::parse("partial-upload=3")
                .unwrap()
                .truncate_period,
            3,
            "partial-upload is truncate's alias"
        );
        assert!(FaultPlan::parse("panics=1").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=x").is_err());
    }

    #[test]
    fn selection_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("seed=1,panic=2").unwrap();
        let b = FaultPlan::parse("seed=1,panic=2").unwrap();
        for w in ["histo", "saxpy", "bfs", "mcf"] {
            assert_eq!(
                a.selects(a.panic_period, w, "panic"),
                b.selects(b.panic_period, w, "panic")
            );
        }
        // With period 1 every workload is selected.
        let all = FaultPlan::parse("panic=1").unwrap();
        assert!(all.selects(all.panic_period, "histo", "panic"));
        // Period 0 selects nothing.
        let none = FaultPlan::default();
        assert!(!none.selects(none.panic_period, "histo", "panic"));
    }
}
