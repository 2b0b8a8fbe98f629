//! `full-sampled`: the paper-scale suite under sampling. Each pass starts
//! from an empty cache and runs `dmdc suite --policy P --scale full --jobs
//! 2` for five policies in the seed's order, the same in every pass. The
//! first suite is cold: it fast-forwards and writes the checkpoint store.
//! The other four are checkpoint-warm: they read the store instead of
//! fast-forwarding. The only workload where `isa` fast-forward and store
//! writes matter, and a gain on one side that costs the other shows up
//! here.
//!
//! Checks: exit 0, no quarantined cells, and each policy's report equal
//! across passes.

use std::collections::BTreeMap;
use std::io;

use super::{exited_ok, store_bytes, Env, Tally};
use crate::check::Check;
use crate::rng::Rng;

/// The policies each pass runs, one suite each.
pub const POLICIES: [&str; 5] = ["baseline", "yla-8", "dmdc-global", "dmdc-local", "queue-16"];

/// The order every pass of seed `seed` runs the policies in; the first is
/// the cold suite.
pub fn order(seed: u64) -> [&'static str; 5] {
    let mut order = POLICIES;
    Rng::new(seed, "full-sampled/order").shuffle(&mut order);
    order
}

/// The operation class of the `i`-th suite of a pass: one policy, cold or
/// checkpoint-warm, so a class is the same work in every pass.
fn class(i: usize, policy: &str) -> String {
    format!("{}-{policy}", if i == 0 { "cold" } else { "warm" })
}

pub(super) fn run(env: &Env, t: &mut Tally) -> io::Result<()> {
    let order = order(env.seed);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    // Each policy's first report, which every later one must equal.
    let mut reports: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
    let suite_cells = t.measure(
        env,
        |t| {
            let cells = env.registry(t)?.workloads.len() as u64;
            env.warm_up_suite(t)?;
            Ok(cells)
        },
        |suite_cells, _, t| {
            let dir = env.fresh_dir("pass")?;
            let mut measured = 0.0;
            for (i, policy) in order.into_iter().enumerate() {
                let out = env.dmdc(
                    &dir,
                    &[
                        "suite", "--policy", policy, "--scale", "full", "--jobs", "2",
                    ],
                )?;
                let secs = out.exit.wall.as_secs_f64();
                measured += secs;
                (if i == 0 { &mut cold } else { &mut warm }).push(secs);
                t.rss(&out);
                let outcome = exited_ok(&out, policy).and_then(|()| {
                    if String::from_utf8_lossy(&out.stdout).contains("quarantined cells") {
                        Err(format!("{policy}: quarantined cells in the report"))
                    } else {
                        Ok(())
                    }
                });
                let ok = match outcome {
                    Ok(()) => {
                        let first = reports.entry(policy).or_insert_with(|| out.stdout.clone());
                        t.check(Check::WarmCold, policy, first, &out.stdout)
                    }
                    Err(e) => {
                        t.op(Err(e));
                        false
                    }
                };
                t.request(&class(i, policy), secs * 1e3, ok);
                if ok {
                    t.cells += *suite_cells;
                }
            }
            let (cell_bytes, ckpt_bytes) = store_bytes(&dir.join("target/dmdc-cache"));
            t.counter("cache.cell_bytes", cell_bytes);
            t.counter("cache.ckpt_bytes", ckpt_bytes);
            std::fs::remove_dir_all(&dir)?;
            Ok(measured)
        },
    )?;
    t.timing("cold_s", "s", &cold);
    t.timing("ckpt_warm_s", "s", &warm);
    let digest: Vec<u8> = reports.values().flatten().copied().collect();
    t.report_digest(&digest);
    t.counter("cells", POLICIES.len() as u64 * suite_cells);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_of_a_seed_runs_the_same_order() {
        assert_eq!(order(3), order(3));
        let mut sorted = order(3);
        sorted.sort_unstable();
        let mut policies = POLICIES;
        policies.sort_unstable();
        assert_eq!(sorted, policies);
        assert!((1..20).any(|seed| order(seed)[0] != order(0)[0]));
    }

    #[test]
    fn a_slower_policy_moves_wall_s() {
        // Three passes of 0.9 s cold and 0.6 s warm suites; `slow` takes
        // half as long again in every pass.
        let wall = |slow: &str| {
            let mut t = Tally::default();
            for _ in 0..3 {
                for (i, policy) in order(5).into_iter().enumerate() {
                    let ms = if i == 0 { 900.0 } else { 600.0 };
                    let ms = if policy == slow { ms * 1.5 } else { ms };
                    t.request(&class(i, policy), ms, true);
                }
                t.pass_s.push(3.3);
            }
            t.summary_pass().0
        };
        let base = wall("none");
        assert!((base - 3.3).abs() < 1e-9, "{base}");
        for policy in POLICIES {
            assert!(
                wall(policy) >= base + 0.3 - 1e-9,
                "{policy}: {}",
                wall(policy)
            );
        }
    }
}
