//! Property test for the daemon's dispatch order: under random
//! interleavings of submit, dispatch (completing the job or leaving it
//! running) and restart (drop the [`JobManager`], reopen its state dir,
//! `recover`), the manager agrees with a quadratic model at every step.
//! No job is lost, duplicated or reordered: dispatch always yields the
//! highest outstanding priority, FIFO within a priority; a job dispatched
//! but not completed comes back after a restart; ids continue after a
//! restart; `recovered` counts exactly the re-enqueued jobs; and a
//! completed job stays done with its stored payload across restarts.
//!
//! The model is a flat list of `(priority, job number)` scanned for max
//! priority, then min number, on every dispatch.

use std::path::PathBuf;

use dmdc_core::experiments::Work;
use dmdc_core::runner::Context;
use dmdc_core::service::jobs::{JobManager, JobState, SubmitOutcome};
use dmdc_core::service::json;
use proptest::prelude::*;

/// Submission `n`'s spec: distinct for every `n`, so nothing coalesces.
fn spec(n: u64) -> Work {
    let body = format!(
        r#"{{"kind": "cell", "workload": "histo", "policy": "baseline", "inval_rate": {n}}}"#
    );
    Work::from_json(&json::parse(&body).unwrap()).unwrap()
}

/// The result payload job `seq` completes with.
fn payload(seq: u64) -> String {
    format!("{{\"job\": {seq}}}\n")
}

fn open(dir: &PathBuf) -> JobManager {
    JobManager::new(&Context::new(), dir, usize::MAX).expect("open the state dir")
}

/// What the model says the next dispatch must return.
fn model_pop(pending: &mut Vec<(u8, u64)>) -> Option<(u8, u64)> {
    let best = pending
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
        .map(|(i, _)| i)?;
    Some(pending.remove(best))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dispatch_agrees_with_model_across_restarts(
        ops in prop::collection::vec((0u8..5, 0u8..8), 1..120),
    ) {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dmdc-job-props");
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = open(&dir);
        let mut pending: Vec<(u8, u64)> = Vec::new();
        let mut running: Vec<(u8, u64)> = Vec::new();
        let mut done: Vec<u64> = Vec::new();
        let mut next_seq = 1u64;

        for &(kind, arg) in &ops {
            match kind {
                // Two opcodes for submit bias the mix toward non-empty
                // queues, where dispatch order is actually tested.
                0 | 1 => {
                    let priority = arg * 36; // 0..=252, with collisions
                    let got = m.submit(spec(next_seq), priority, "c").unwrap();
                    prop_assert_eq!(got, SubmitOutcome::Created(format!("job-{next_seq}")));
                    pending.push((priority, next_seq));
                    next_seq += 1;
                }
                // `next_job` blocks on an empty queue: dispatch only when
                // the model has work.
                2 | 3 => {
                    let Some(want) = model_pop(&mut pending) else { continue };
                    let (id, _) = m.next_job().expect("a queued job");
                    prop_assert_eq!(&id, &format!("job-{}", want.1), "dispatch order");
                    if arg % 2 == 0 {
                        m.complete(&id, Ok(payload(want.1)));
                        done.push(want.1);
                    } else {
                        running.push(want);
                    }
                }
                _ => {
                    drop(m);
                    m = open(&dir);
                    let unfinished = pending.len() + running.len();
                    prop_assert_eq!(m.recover(), unfinished, "re-enqueued jobs");
                    prop_assert_eq!(m.counters().recovered, unfinished as u64);
                    pending.append(&mut running);
                    for &seq in &done {
                        let id = format!("job-{seq}");
                        prop_assert_eq!(m.state(&id), Some(JobState::Done));
                        prop_assert_eq!(m.load_result(&id), Some((JobState::Done, payload(seq))));
                    }
                }
            }
            prop_assert_eq!(m.queue_depth(), pending.len(), "queue depth tracks the model");
        }

        // Drain: everything still queued leaves in model order, once.
        while let Some((_, seq)) = model_pop(&mut pending) {
            let (id, _) = m.next_job().expect("the manager holds what the model holds");
            prop_assert_eq!(&id, &format!("job-{seq}"), "drain order");
            m.complete(&id, Ok(payload(seq)));
            done.push(seq);
        }
        prop_assert_eq!(m.queue_depth(), 0);
        for (_, seq) in running {
            m.complete(&format!("job-{seq}"), Ok(payload(seq)));
            done.push(seq);
        }
        done.sort_unstable();
        prop_assert_eq!(&done, &(1..next_seq).collect::<Vec<_>>(), "every job completed once");
        let ids: Vec<String> = done.iter().map(|seq| format!("job-{seq}")).collect();
        prop_assert_eq!(m.job_ids(), ids);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
