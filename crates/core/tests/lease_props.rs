//! Property tests for the distributed [`LeaseTable`]: under ANY random
//! interleaving of claim / heartbeat / clock-advance / expire / complete
//! / fail / failed-publish, the table must
//!
//! * never lose a cell — once the drain loop takes over, every cell
//!   reaches exactly one terminal state (done, failed or poisoned);
//! * never double-publish — at most one completion is ever accepted per
//!   cell, no matter how many stale holders race;
//! * never let a non-holder act — heartbeats, completions and failures
//!   from a worker that lost its lease are rejected;
//! * poison only with cause — a poisoned cell really did lose
//!   `poison_after` distinct workers or hit the attempt bound;
//! * answer `Wait` only with cause — nothing claimable yet something
//!   still live, the predicate the coordinator's long-poll claims park on.
//!
//! The clock is logical (milliseconds passed in by the test), so every
//! interleaving is deterministic and shrinkable.

use dmdc_core::distrib::{CellState, Claim, LeaseConfig, LeaseTable};
use proptest::prelude::*;

const WORKERS: [&str; 4] = ["w0", "w1", "w2", "w3"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary op soup against the table, then a drain: no cell lost,
    /// no double publish, terminal states stay terminal.
    #[test]
    fn no_interleaving_loses_a_cell_or_double_publishes(
        cells in 1usize..6,
        poison_after in 1u32..4,
        ops in prop::collection::vec((0u8..6, 0u8..4, 0u16..400), 1..300),
    ) {
        let cfg = LeaseConfig {
            ttl_ms: 100,
            poison_after,
            max_attempts: 6,
        };
        let mut t = LeaseTable::new(cells, cfg);
        let mut now: u64 = 0;
        // What each worker believes it holds, from the claims the table
        // actually granted. A worker may hold several cells here if the
        // table re-issued one it lost — exactly the stale-holder race.
        let mut held: Vec<Vec<usize>> = vec![Vec::new(); WORKERS.len()];
        let mut accepted_total = 0u32;

        for &(op, who, dt) in &ops {
            let worker = WORKERS[who as usize];
            match op {
                // Claim: a granted lease must be on a cell that was
                // claimable, and the same cell must not be leased twice
                // concurrently (nobody else believes they hold it and
                // still does per the table).
                0 | 1 => match t.claim(worker, now) {
                    Claim::Lease { index, ttl_ms, .. } => {
                        prop_assert_eq!(ttl_ms, 100);
                        prop_assert!(index < cells);
                        prop_assert!(
                            matches!(t.state(index), CellState::Leased { .. }),
                            "granted lease must leave the cell leased"
                        );
                        held[who as usize].push(index);
                    }
                    Claim::Wait { retry_ms } => prop_assert!(retry_ms > 0),
                    Claim::Done => prop_assert!(t.all_terminal()),
                },
                // Heartbeat something we believe we hold; a rejection
                // means the table took it back, so stop believing.
                2 => {
                    if let Some(&index) = held[who as usize].last() {
                        if !t.heartbeat(worker, index, now) {
                            held[who as usize].pop();
                        }
                    }
                }
                // Complete: count every accepted completion.
                3 => {
                    if let Some(index) = held[who as usize].pop() {
                        if t.complete(worker, index) {
                            accepted_total += 1;
                            prop_assert_eq!(t.completions(index), 1,
                                "cell accepted a second completion");
                            prop_assert_eq!(t.state(index), &CellState::Done);
                        }
                    }
                }
                // Worker-reported structured failure.
                4 => {
                    if let Some(index) = held[who as usize].pop() {
                        if t.record_failure(worker, index) {
                            prop_assert_eq!(t.state(index), &CellState::Failed);
                        }
                    }
                }
                // A published result that failed verification.
                _ => {
                    if let Some(index) = held[who as usize].pop() {
                        let _ = t.fail_publish(worker, index, now);
                    }
                }
            }
            // Advance the clock and reclaim whatever expired; a
            // poisoned reclaim must have cause.
            now += dt as u64;
            for r in t.expire(now) {
                prop_assert!(r.index < cells);
                if r.poisoned {
                    let lost = t.lost_workers(r.index).len() as u32;
                    prop_assert!(
                        lost >= poison_after || r.attempt >= 6,
                        "poisoned with {lost} lost workers, attempt {}",
                        r.attempt
                    );
                }
                // The expired holder no longer holds it.
                for h in held.iter_mut() {
                    h.retain(|&i| i != r.index);
                }
            }
        }

        // Drain: one diligent worker claims, completes and heartbeats
        // until the table reports done. Bounded retries guarantee this
        // terminates; the bound below is generous slack over
        // cells * max_attempts.
        let mut steps = 0;
        loop {
            match t.claim("drain", now) {
                Claim::Done => break,
                Claim::Lease { index, .. } => {
                    prop_assert!(t.complete("drain", index));
                }
                Claim::Wait { retry_ms } => now += retry_ms.max(1),
            }
            steps += 1;
            prop_assert!(steps < 10_000, "drain failed to terminate");
        }

        // Every cell is terminal — none lost — and the accounting holds.
        prop_assert!(t.all_terminal());
        prop_assert_eq!(t.outstanding(), 0);
        let mut done = 0u32;
        for i in 0..cells {
            match t.state(i) {
                CellState::Done => {
                    done += 1;
                    prop_assert_eq!(t.completions(i), 1,
                        "a done cell has exactly one accepted completion");
                }
                CellState::Failed | CellState::Poisoned => {
                    prop_assert_eq!(t.completions(i), 0,
                        "a failed/poisoned cell never accepted a completion");
                }
                other => prop_assert!(false, "non-terminal state after drain: {other:?}"),
            }
            if let CellState::Poisoned = t.state(i) {
                prop_assert!(
                    t.lost_workers(i).len() as u32 >= poison_after
                        || t.completions(i) == 0,
                    "poison without cause"
                );
            }
        }
        // Accepted completions during the op soup + the drain's equal
        // the number of done cells: nothing double-counted.
        let drained: u32 = (0..cells).map(|i| t.completions(i)).sum();
        prop_assert_eq!(drained, done);
        prop_assert!(accepted_total <= done,
            "more accepted completions than done cells");
    }

    /// `claim` answers `Wait` only when no cell is claimable at `now` and
    /// at least one cell is non-terminal: a claim parked on `Wait` has
    /// something to wait for, and nothing it could take instead.
    #[test]
    fn wait_means_nothing_claimable_and_something_live(
        cells in 1usize..6,
        ops in prop::collection::vec((0u8..5, 0u8..4, 0u16..200), 1..200),
    ) {
        let cfg = LeaseConfig { ttl_ms: 100, poison_after: 2, max_attempts: 4 };
        let mut t = LeaseTable::new(cells, cfg);
        let mut now: u64 = 0;
        let mut held: Vec<Vec<usize>> = vec![Vec::new(); WORKERS.len()];
        for &(op, who, dt) in &ops {
            let worker = WORKERS[who as usize];
            match op {
                0 | 1 => {
                    let claimable = (0..cells).any(|i| matches!(
                        t.state(i),
                        CellState::Ready { eligible_at, .. } if *eligible_at <= now
                    ));
                    let live = !t.all_terminal();
                    match t.claim(worker, now) {
                        Claim::Wait { .. } => {
                            prop_assert!(!claimable, "Wait while a cell was claimable");
                            prop_assert!(live, "Wait with every cell terminal");
                        }
                        Claim::Lease { index, .. } => held[who as usize].push(index),
                        Claim::Done => prop_assert!(!live),
                    }
                }
                2 => {
                    if let Some(index) = held[who as usize].pop() {
                        let _ = t.complete(worker, index);
                    }
                }
                3 => {
                    if let Some(index) = held[who as usize].pop() {
                        let _ = t.fail_publish(worker, index, now);
                    }
                }
                _ => {
                    if let Some(index) = held[who as usize].pop() {
                        let _ = t.record_failure(worker, index);
                    }
                }
            }
            now += dt as u64;
            for r in t.expire(now) {
                for h in held.iter_mut() {
                    h.retain(|&i| i != r.index);
                }
            }
        }
    }

    /// Stale holders can do nothing: once a lease expires, every action
    /// from the old holder is rejected and the cell still terminates.
    #[test]
    fn expired_holders_are_powerless(ttl in 50u64..500, n in 1usize..5) {
        let cfg = LeaseConfig { ttl_ms: ttl, poison_after: 99, max_attempts: 99 };
        let mut t = LeaseTable::new(n, cfg);
        for _ in 0..n {
            let Claim::Lease { index, .. } = t.claim("stale", 0) else {
                panic!("claimable at t=0");
            };
            // Expire it, then the old holder tries everything.
            let reclaims = t.expire(ttl);
            prop_assert!(reclaims.iter().any(|r| r.index == index));
            prop_assert!(!t.heartbeat("stale", index, ttl + 1));
            prop_assert!(!t.complete("stale", index));
            prop_assert!(!t.record_failure("stale", index));
            prop_assert!(!t.fail_publish("stale", index, ttl + 1));
            prop_assert_eq!(t.completions(index), 0);
        }
        // A live worker still finishes every cell.
        let mut now = ttl * 2;
        loop {
            match t.claim("live", now) {
                Claim::Done => break,
                Claim::Lease { index, .. } => {
                    prop_assert!(t.complete("live", index));
                }
                Claim::Wait { retry_ms } => now += retry_ms.max(1),
            }
        }
        for i in 0..n {
            prop_assert_eq!(t.state(i), &CellState::Done);
            prop_assert_eq!(t.completions(i), 1);
        }
    }
}
