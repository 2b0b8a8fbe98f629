//! `warm-replay`: the pure read path. Setup primes one cache with the
//! smoke registry (cold in JSON, then warm in text and CSV). Each pass is a
//! batch of warm reads, `dmdc experiment <id|all> --scale smoke --jobs 2
//! --format <text|json|csv>` for every id and format, in a seeded order:
//! cell-store loads, unseal and parse, `reduce` and the three emitters,
//! with no simulation — except `multicore`, whose `reduce` re-runs the
//! organic multicore kernels, which are not cached.
//!
//! Checks: each read equals the output of the same work cold. Text is held
//! to the golden snapshots, JSON to the cold priming run, CSV to the
//! priming run (and `fig2` in both to `tests/golden/formats/`).

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

use super::{exited_ok, store_bytes, Env, Registry, Tally};
use crate::check::Check;

/// Output formats every item is read in.
pub const FORMATS: [&str; 3] = ["text", "json", "csv"];

/// The primed store and the expected bytes of every read.
pub struct Primed {
    /// The registry the reads cover.
    pub reg: Registry,
    /// Working directory whose `target/dmdc-cache` is the primed store.
    pub dir: PathBuf,
    expected: BTreeMap<(String, &'static str), Vec<u8>>,
}

impl Primed {
    /// Every `(item, format)` a pass reads once: each id and `all`, in
    /// each format, unshuffled.
    pub fn items(&self) -> Vec<(String, &'static str)> {
        self.reg
            .ids()
            .into_iter()
            .chain(["all"])
            .flat_map(|item| FORMATS.map(|f| (item.to_string(), f)))
            .collect()
    }

    /// The bytes reading `item` in `format` must produce.
    pub fn expected(&self, item: &str, format: &'static str) -> Option<&[u8]> {
        self.expected
            .get(&(item.to_string(), format))
            .map(Vec::as_slice)
    }
}

/// One read: its wall time in seconds, and its stdout unless it exited
/// non-zero (a failed operation, counted here).
fn read(
    env: &Env,
    p: &Primed,
    item: &str,
    format: &str,
    t: &mut Tally,
) -> io::Result<(f64, Option<Vec<u8>>)> {
    let out = env.dmdc(
        &p.dir,
        &[
            "experiment",
            item,
            "--scale",
            "smoke",
            "--jobs",
            "2",
            "--format",
            format,
        ],
    )?;
    t.rss(&out);
    let stdout = match exited_ok(&out, &format!("{item} ({format})")) {
        Ok(()) => Some(out.stdout),
        Err(e) => {
            t.op(Err(e));
            None
        }
    };
    Ok((out.exit.wall.as_secs_f64(), stdout))
}

/// Primes a fresh store and records the expected bytes of every read.
pub fn setup(env: &Env, t: &mut Tally) -> io::Result<Primed> {
    let mut p = Primed {
        reg: env.registry(t)?,
        dir: env.fresh_dir("store")?,
        expected: BTreeMap::new(),
    };
    for (id, _) in &p.reg.experiments {
        p.expected
            .insert((id.clone(), "text"), env.golden(&format!("{id}.txt"))?);
    }
    let golden_all: Vec<u8> = p
        .reg
        .ids()
        .iter()
        .flat_map(|id| p.expected[&(id.to_string(), "text")].clone())
        .collect();
    p.expected.insert(("all".to_string(), "text"), golden_all);
    // The cold run fills the store; its JSON is the reference for JSON.
    for format in ["json", "text", "csv"] {
        if let (_, Some(out)) = read(env, &p, "all", format, t)? {
            let key = ("all".to_string(), format);
            match p.expected.get(&key) {
                Some(golden) => {
                    t.check(Check::Golden, "all (text)", golden, &out);
                }
                None => {
                    t.op(Ok(()));
                    p.expected.insert(key, out);
                }
            }
        }
    }
    for format in ["json", "csv"] {
        let mut concat = Vec::new();
        for id in p.reg.ids() {
            if let (_, Some(out)) = read(env, &p, id, format, t)? {
                concat.extend_from_slice(&out);
                p.expected.insert((id.to_string(), format), out);
            }
        }
        if let Some(all) = p.expected.get(&("all".to_string(), format)) {
            t.check(
                Check::WarmCold,
                &format!("per-id reads ({format})"),
                all,
                &concat,
            );
        }
        if let Some(fig2) = p.expected.get(&("fig2".to_string(), format)) {
            t.check(
                Check::Golden,
                &format!("fig2 ({format})"),
                &env.golden(&format!("formats/fig2.{format}"))?,
                fig2,
            );
        }
    }
    Ok(p)
}

pub(super) fn run(env: &Env, t: &mut Tally) -> io::Result<()> {
    let primed = t.measure(
        env,
        |t| setup(env, t),
        |p, k, t| {
            let mut items = p.items();
            env.rng(&format!("warm-replay/pass{k}")).shuffle(&mut items);
            let mut measured = 0.0;
            for (item, format) in items {
                let (secs, out) = read(env, p, &item, format, t)?;
                measured += secs;
                let subject = format!("{item} ({format})");
                let ok = match (out, p.expected(&item, format)) {
                    (Some(out), Some(expected)) => {
                        t.check(Check::WarmCold, &subject, expected, &out)
                    }
                    (Some(_), None) => {
                        t.op(Err(format!("{subject}: no reference (priming failed)")));
                        false
                    }
                    (None, _) => false,
                };
                t.request(&subject, secs * 1e3, ok);
                if ok {
                    t.cells += p.reg.cells(&item);
                }
            }
            Ok(measured)
        },
    )?;
    let all: Vec<u8> = FORMATS
        .iter()
        .filter_map(|&f| primed.expected.get(&("all".to_string(), f)))
        .flatten()
        .copied()
        .collect();
    t.report_digest(&all);
    t.counter("cells", 2 * FORMATS.len() as u64 * primed.reg.cells("all"));
    let (cell_bytes, ckpt_bytes) = store_bytes(&primed.dir.join("target/dmdc-cache"));
    t.counter("cache.cell_bytes", cell_bytes);
    t.counter("cache.ckpt_bytes", ckpt_bytes);
    Ok(())
}
