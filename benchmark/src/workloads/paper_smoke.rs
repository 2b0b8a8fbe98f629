//! `paper-smoke`: every registry experiment at smoke scale, exact and
//! uncached — one `dmdc experiment all --scale smoke --no-cache --jobs 2`
//! per pass, the invocation paper reproductions use, with its scheduling of
//! cells across experiments. No fast-forward, store or HTTP: the `ooo`
//! pipeline and the policies do nearly all the work, so this is the
//! workload store, service and fleet changes must leave flat. Seed
//! independent by design.
//!
//! Check: stdout equals the `tests/golden/<id>.txt` files concatenated in
//! registry order.

use std::io;

use super::{exited_ok, Env, Registry, Tally};
use crate::check::Check;

/// Flags of every invocation: the exact smoke matrix, no cell cache.
pub const ARGS: [&str; 5] = ["--scale", "smoke", "--no-cache", "--jobs", "2"];

/// The registry and every experiment's golden snapshot, in registry order.
pub struct Smoke {
    /// The experiment registry.
    pub reg: Registry,
    /// `(id, tests/golden/<id>.txt)`.
    pub goldens: Vec<(String, Vec<u8>)>,
}

impl Smoke {
    /// What `experiment all` must print: the goldens concatenated.
    pub fn all(&self) -> Vec<u8> {
        self.goldens.iter().flat_map(|(_, g)| g.clone()).collect()
    }
}

/// Reads the registry and the golden snapshots, then runs the smallest
/// experiment once, untimed, to pay the binary's first-run costs.
pub fn setup(env: &Env, t: &mut Tally) -> io::Result<Smoke> {
    let reg = env.registry(t)?;
    let goldens = reg
        .ids()
        .into_iter()
        .map(|id| Ok((id.to_string(), env.golden(&format!("{id}.txt"))?)))
        .collect::<io::Result<Vec<_>>>()?;
    let (id, golden) = goldens
        .iter()
        .min_by_key(|(id, _)| reg.cells(id))
        .expect("the registry is not empty");
    let mut args = vec!["experiment", id.as_str()];
    args.extend(ARGS);
    let out = env.dmdc(&env.fresh_dir("warm-up")?, &args)?;
    t.rss(&out);
    match exited_ok(&out, id) {
        Ok(()) => {
            t.check(Check::Golden, id, golden, &out.stdout);
        }
        Err(e) => t.op(Err(e)),
    }
    let smoke = Smoke { reg, goldens };
    t.report_digest(&smoke.all());
    t.counter("cells", smoke.reg.cells("all"));
    t.counter("cache.cell_bytes", 0);
    t.counter("cache.ckpt_bytes", 0);
    Ok(smoke)
}

pub(super) fn run(env: &Env, t: &mut Tally) -> io::Result<()> {
    t.measure(
        env,
        |t| setup(env, t),
        |smoke, _, t| {
            let mut args = vec!["experiment", "all"];
            args.extend(ARGS);
            let out = env.dmdc(&env.fresh_dir("pass")?, &args)?;
            let secs = out.exit.wall.as_secs_f64();
            t.rss(&out);
            let ok = match exited_ok(&out, "experiment all") {
                Ok(()) => t.check(Check::Golden, "all", &smoke.all(), &out.stdout),
                Err(e) => {
                    t.op(Err(e));
                    false
                }
            };
            t.request("all", secs * 1e3, ok);
            if ok {
                t.cells += smoke.reg.cells("all");
            }
            Ok(secs)
        },
    )?;
    Ok(())
}
