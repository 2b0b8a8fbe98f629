//! The five end-to-end workloads. Each drives only the `dmdc` executable
//! and its HTTP wire, sets up at least [`SETUPS`] times and for at least
//! [`SETUP_SECONDS`] (reporting the median as `setup_s`), then repeats
//! whole passes until `--seconds` have been spent measuring, and holds
//! every output to a contract (see [`crate::check`]).

pub mod fleet_default;
pub mod full_sampled;
pub mod paper_smoke;
pub mod serve_mixed;
pub mod warm_replay;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::check::{self, Check};
use crate::proc::{self, Output};
use crate::result::{Metric, WorkloadResult};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;

/// Workload names, in run order.
pub const NAMES: [&str; 5] = [
    "paper-smoke",
    "full-sampled",
    "warm-replay",
    "serve-mixed",
    "fleet-default",
];

/// Fewest setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Least time spent setting up per run. A setup of a tenth of a second is
/// mostly process start-up, whose noise a median of three does not tame.
pub const SETUP_SECONDS: f64 = 1.0;
/// Fewest measured passes per run, so that the best or median pass of the
/// longest workloads rests on four passes rather than the two that ten
/// seconds hold of `paper-smoke`'s 4–7 s `experiment all`.
pub const MIN_PASSES: usize = 4;

/// Runs one workload end to end. `tracer` (serve-mixed and fleet-default
/// only) records spans observed from outside the program.
pub fn run(name: &str, env: &Env, tracer: Option<&Tracer>) -> io::Result<WorkloadResult> {
    let mut tally = Tally::default();
    match name {
        "paper-smoke" => paper_smoke::run(env, &mut tally)?,
        "full-sampled" => full_sampled::run(env, &mut tally)?,
        "warm-replay" => warm_replay::run(env, &mut tally)?,
        "serve-mixed" => serve_mixed::run(env, &mut tally, tracer)?,
        "fleet-default" => fleet_default::run(env, &mut tally, tracer)?,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload `{other}` (one of {})", NAMES.join(", ")),
            ))
        }
    }
    Ok(tally.finish(name, env.seed))
}

/// Where and how one workload runs.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `dmdc` executable under test.
    pub dmdc: PathBuf,
    /// Repository root, for the golden snapshots under `tests/golden/`.
    pub repo: PathBuf,
    /// This workload's scratch directory; everything it writes goes here.
    pub scratch: PathBuf,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time, in seconds.
    pub seconds: f64,
}

impl Env {
    /// A new, empty directory `name` under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.scratch.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Runs `dmdc <args>` in `cwd`, capturing stdout; stderr is appended to
    /// `dmdc.stderr` in the scratch directory.
    pub fn dmdc(&self, cwd: &Path, args: &[&str]) -> io::Result<Output> {
        proc::run(self.command(cwd, args)?.stdout(Stdio::piped()))
    }

    /// The `dmdc <args>` command, not yet started.
    pub fn command(&self, cwd: &Path, args: &[&str]) -> io::Result<Command> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.scratch.join("dmdc.stderr"))?;
        let mut cmd = Command::new(&self.dmdc);
        cmd.args(args).current_dir(cwd).stderr(log);
        Ok(cmd)
    }

    /// The seeded generator for one input stream of this workload.
    pub fn rng(&self, stream: &str) -> Rng {
        Rng::new(self.seed, stream)
    }

    /// A golden snapshot, `tests/golden/<rel>`.
    pub fn golden(&self, rel: &str) -> io::Result<Vec<u8>> {
        let path = self.repo.join("tests/golden").join(rel);
        std::fs::read(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    /// Runs a small smoke suite once, untimed, in a fresh directory: it
    /// pays the binary's first-run costs before any pass is timed.
    pub fn warm_up_suite(&self, tally: &mut Tally) -> io::Result<()> {
        let out = self.dmdc(
            &self.fresh_dir("warm-up")?,
            &[
                "suite", "--policy", "baseline", "--scale", "smoke", "--jobs", "2",
            ],
        )?;
        tally.rss(&out);
        tally.op(exited_ok(&out, "warm-up suite"));
        Ok(())
    }

    /// Runs `dmdc list` in a fresh directory and parses the registry.
    pub fn registry(&self, tally: &mut Tally) -> io::Result<Registry> {
        let dir = self.fresh_dir("list")?;
        let out = self.dmdc(&dir, &["list"])?;
        tally.rss(&out);
        let parsed = exited_ok(&out, "dmdc list")
            .and_then(|()| Registry::parse(&String::from_utf8_lossy(&out.stdout)));
        match parsed {
            Ok(reg) => {
                tally.op(Ok(()));
                Ok(reg)
            }
            Err(e) => {
                tally.op(Err(e.clone()));
                Err(io::Error::other(e))
            }
        }
    }
}

/// The experiment registry and workload suite as `dmdc list` prints them.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    /// `(id, cells per scale)`, in registry order.
    pub experiments: Vec<(String, u64)>,
    /// Suite workload names.
    pub workloads: Vec<String>,
}

impl Registry {
    /// Parses `dmdc list` output.
    pub fn parse(list: &str) -> Result<Registry, String> {
        let mut reg = Registry {
            experiments: Vec::new(),
            workloads: Vec::new(),
        };
        for line in list.lines() {
            if let Some(rest) = line.strip_prefix("workloads (") {
                let names = rest.split_once("):").map_or("", |(_, names)| names);
                reg.workloads
                    .extend(names.split_whitespace().map(str::to_string));
            } else if let Some(body) = line.trim().strip_suffix("cells/scale") {
                let tokens: Vec<&str> = body.split_whitespace().collect();
                let cells = tokens.last().and_then(|c| c.parse().ok());
                match (tokens.first(), cells) {
                    (Some(id), Some(cells)) => reg.experiments.push((id.to_string(), cells)),
                    _ => return Err(format!("unparsable experiment line `{line}`")),
                }
            }
        }
        if reg.experiments.is_empty() || reg.workloads.is_empty() {
            return Err("`dmdc list` named no experiments or no workloads".to_string());
        }
        Ok(reg)
    }

    /// Experiment ids in registry order.
    pub fn ids(&self) -> Vec<&str> {
        self.experiments.iter().map(|(id, _)| id.as_str()).collect()
    }

    /// Cells of experiment `id` (`all`: every experiment's).
    pub fn cells(&self, id: &str) -> u64 {
        self.experiments
            .iter()
            .filter(|(e, _)| id == "all" || e == id)
            .map(|(_, c)| c)
            .sum()
    }
}

/// `Ok` when the child exited 0.
pub fn exited_ok(out: &Output, what: &str) -> Result<(), String> {
    if out.exit.success() {
        Ok(())
    } else {
        Err(format!("{what} exited with {:?}", out.exit.code))
    }
}

/// Bytes of cell records and checkpoints under a cache directory.
pub fn store_bytes(cache: &Path) -> (u64, u64) {
    let sum = |dir: &Path, ext: &str| {
        std::fs::read_dir(dir).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
    };
    (sum(cache, "cell"), sum(&cache.join("checkpoints"), "ckpt"))
}

/// Most failures a result keeps a description of.
const MAX_FAILURE_NOTES: usize = 20;

/// One request a pass made.
#[derive(Debug, Clone)]
pub struct Request {
    /// Operation class: the same work in every pass (an experiment id, a
    /// read of one item in one format, a cold suite...).
    pub class: String,
    /// Latency in milliseconds; `+inf` when the request failed.
    pub ms: f64,
}

/// What one workload measured so far.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// Each setup's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Each pass's measured duration, seconds.
    pub pass_s: Vec<f64>,
    /// Every request the passes made.
    pub requests: Vec<Request>,
    /// Whether scheduling races decide a pass's time (which client's job
    /// queues behind which, whether the fleet's last worker is parked), so
    /// the run reports its median pass rather than its best.
    pub racy: bool,
    /// Cells the measured passes completed.
    pub cells: u64,
    /// Peak resident set of any `dmdc` process, KiB.
    pub peak_rss_kb: u64,
    /// Workload-specific metrics.
    pub extra: Vec<Metric>,
    /// Host-independent counters.
    pub counters: Vec<(String, u64)>,
}

impl Tally {
    /// Counts one operation and, if it failed, why.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(why);
            }
        }
    }

    /// Counts one operation held to `check`: it fails when `actual` differs
    /// from `expected` by a single byte.
    pub fn check(&mut self, check: Check, subject: &str, expected: &[u8], actual: &[u8]) -> bool {
        let outcome = check::same(check, subject, expected, actual).map_err(|m| m.to_string());
        let ok = outcome.is_ok();
        self.op(outcome);
        ok
    }

    /// Notes a child's peak memory.
    pub fn rss(&mut self, out: &Output) {
        self.peak_rss_kb = self.peak_rss_kb.max(out.exit.maxrss_kb);
    }

    /// Records one request of operation `class`; a failed request counts
    /// as `+inf`.
    pub fn request(&mut self, class: &str, ms: f64, ok: bool) {
        self.requests.push(Request {
            class: class.to_string(),
            ms: if ok { ms } else { f64::INFINITY },
        });
    }

    /// Records a workload-specific timing as the median of `samples`.
    pub fn timing(&mut self, name: &str, unit: &str, samples: &[f64]) {
        if !samples.is_empty() {
            self.extra.push(Metric {
                quartiles: Some(stats::quartiles(samples)),
                ..Metric::new(name, unit, stats::median(samples), samples.len())
            });
        }
    }

    /// Records the `report_fnv64` counter: FNV-1a of the checked reports,
    /// cut to its top 53 bits so a JSON number holds it exactly.
    pub fn report_digest(&mut self, reports: &[u8]) {
        self.counter("report_fnv64", crate::rng::fnv64(reports) >> 11);
    }

    /// Records a host-independent counter (first value wins).
    pub fn counter(&mut self, name: &str, value: u64) {
        if !self.counters.iter().any(|(k, _)| k == name) {
            self.counters.push((name.to_string(), value));
        }
    }

    /// Sets up at least `SETUPS` times and for at least `SETUP_SECONDS`
    /// (tearing the previous setup down first), then runs whole passes
    /// until `env.seconds` of measuring have elapsed and at least
    /// [`MIN_PASSES`] have run. `pass` returns the seconds it measured.
    pub fn measure<S>(
        &mut self,
        env: &Env,
        mut setup: impl FnMut(&mut Tally) -> io::Result<S>,
        mut pass: impl FnMut(&mut S, usize, &mut Tally) -> io::Result<f64>,
    ) -> io::Result<S> {
        let mut state = None;
        let setups = Instant::now();
        while self.setup_s.len() < SETUPS || setups.elapsed().as_secs_f64() < SETUP_SECONDS {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(setup(self)?);
            self.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one setup");
        let start = Instant::now();
        let mut k = 0;
        while k < MIN_PASSES || start.elapsed().as_secs_f64() < env.seconds {
            let measured = pass(&mut state, k, self)?;
            self.pass_s.push(measured);
            k += 1;
        }
        Ok(state)
    }

    /// The summary pass: its wall time in seconds and its requests'
    /// latencies in milliseconds.
    ///
    /// Deterministic work gets only slower on a shared host — in bursts
    /// that slow everything by 20–80% for seconds, and in drifts over
    /// minutes. The medians of ten-second windows spread by 11–17% on a
    /// 2-CPU host where their minima spread by 3–6%, so such a pass is
    /// rebuilt from every operation class at its best time over the run,
    /// as often as one pass runs it. Where scheduling races decide the
    /// time (`racy`), the best pass is a lucky draw, not the work's cost:
    /// the summary is the median pass time, and the percentiles are taken
    /// over every request of the run. Percentiles are smoothed (see
    /// [`stats::smoothed_percentile`]); a failed request counts as `+inf`.
    fn summary_pass(&self) -> (f64, f64, f64) {
        let best = |v: &[f64]| {
            if v.contains(&f64::INFINITY) {
                f64::INFINITY
            } else {
                v.iter().copied().fold(f64::INFINITY, f64::min)
            }
        };
        let passes = self.pass_s.len().max(1);
        if self.requests.is_empty() {
            return (stats::median(&self.pass_s), 0.0, 0.0);
        }
        if self.racy {
            let all: Vec<f64> = self.requests.iter().map(|r| r.ms).collect();
            return (
                stats::median(&self.pass_s),
                stats::smoothed_percentile(&all, 50.0),
                stats::smoothed_percentile(&all, 90.0),
            );
        }
        let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &self.requests {
            by_class.entry(&r.class).or_default().push(r.ms);
        }
        let pass: Vec<f64> = by_class
            .values()
            .flat_map(|ms| std::iter::repeat_n(best(ms), (ms.len() / passes).max(1)))
            .collect();
        (
            pass.iter().sum::<f64>() / 1e3,
            stats::smoothed_percentile(&pass, 50.0),
            stats::smoothed_percentile(&pass, 90.0),
        )
    }

    /// The workload's result: the standard end-to-end metrics, then the
    /// workload-specific ones.
    pub fn finish(mut self, workload: &str, seed: u64) -> WorkloadResult {
        let passes = self.pass_s.len();
        let (wall_s, p50, p90) = self.summary_pass();
        let per_pass = |count: f64| count / passes.max(1) as f64;
        let per_s = |count: f64| {
            if wall_s > 0.0 {
                per_pass(count) / wall_s
            } else {
                0.0
            }
        };
        let requests = self.requests.len();
        let mut metrics = vec![
            Metric {
                quartiles: Some(stats::quartiles(&self.setup_s)),
                ..Metric::new(
                    "setup_s",
                    "s",
                    stats::median(&self.setup_s),
                    self.setup_s.len(),
                )
            },
            Metric {
                quartiles: Some(stats::quartiles(&self.pass_s)),
                ..Metric::new("wall_s", "s", wall_s, passes)
            },
            Metric::new("cells_per_s", "cells/s", per_s(self.cells as f64), passes),
            Metric::new("req_per_s", "req/s", per_s(requests as f64), requests),
            Metric::new("req_p50_ms", "ms", p50, requests),
            Metric::new("req_p90_ms", "ms", p90, requests),
            Metric::new("peak_rss_mb", "MB", self.peak_rss_kb as f64 / 1024.0, 1),
            Metric::new(
                "error_rate",
                "failed/attempted",
                self.failed as f64 / self.attempted.max(1) as f64,
                self.attempted as usize,
            ),
        ];
        metrics.extend(std::mem::take(&mut self.extra));
        self.into_result(workload, seed, metrics)
    }

    /// A result carrying `metrics` and this tally's operations, failures
    /// and counters.
    pub fn into_result(self, workload: &str, seed: u64, metrics: Vec<Metric>) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_string(),
            seed,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            metrics,
            counters: self.counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIST: &str = "workloads (INT): hash sort\nworkloads (FP):  mm saxpy\n\
        \n\
        experiments (dmdc experiment <id> [--scale S]):\n\
        \x20 fig2                 Figure 2, §6.1                    140 cells/scale\n\
        \x20 multicore            §6.2.4 (external invalidations, organically generated)   56 cells/scale\n\
        \x20 groups: ablations (the five ablation studies), all (every entry above)\n";

    #[test]
    fn registry_parses_dmdc_list() {
        let reg = Registry::parse(LIST).unwrap();
        assert_eq!(reg.ids(), ["fig2", "multicore"]);
        assert_eq!(reg.workloads, ["hash", "sort", "mm", "saxpy"]);
        assert_eq!((reg.cells("multicore"), reg.cells("all")), (56, 196));
        assert!(Registry::parse("nothing here").is_err());
    }

    #[test]
    fn slowed_operations_do_not_move_the_summary_pass() {
        let mut t = Tally::default();
        for k in 0..3 {
            // Pass 1 is slowed throughout; in pass 2 only `a` is.
            let (a, b) = [(1.0, 1.0), (2.0, 2.0), (1.5, 1.0)][k];
            t.request("a", 100.0 * a, true);
            t.request("b", 200.0 * b, true);
            t.request("b", 200.0 * b, true);
            t.pass_s.push(0.5 * a.max(b));
        }
        let pcts = |ms: &[f64]| {
            (
                stats::smoothed_percentile(ms, 50.0),
                stats::smoothed_percentile(ms, 90.0),
            )
        };
        // Each class at its best: a 100 ms, b twice at 200 ms.
        let best = pcts(&[100.0, 200.0, 200.0]);
        assert_eq!(t.summary_pass(), (0.5, best.0, best.1));
        // Racy: the median pass and percentiles over all nine requests.
        t.racy = true;
        let all = pcts(&[
            100.0, 200.0, 200.0, 200.0, 400.0, 400.0, 150.0, 200.0, 200.0,
        ]);
        assert_eq!(t.summary_pass(), (0.75, all.0, all.1));
        t.racy = false;
        t.request("a", 1.0, false);
        assert_eq!(t.requests.last().map(|r| r.ms), Some(f64::INFINITY));
        assert_eq!(
            t.summary_pass().2,
            f64::INFINITY,
            "a failed request is never the best"
        );
    }

    #[test]
    fn report_digest_survives_a_json_round_trip() {
        let mut t = Tally::default();
        t.report_digest(b"# Table 2: checking-window statistics (global DMDC)\n");
        let (name, v) = t.counters[0].clone();
        assert_eq!(name, "report_fnv64");
        let text = crate::json::n(v as f64).render();
        assert_eq!(crate::json::parse(&text).unwrap().as_u64(), Some(v));
    }

    #[test]
    fn every_failed_check_counts_into_the_error_rate() {
        let mut t = Tally::default();
        for check in [
            Check::Golden,
            Check::WarmCold,
            Check::ServePayload,
            Check::FleetSingle,
        ] {
            let expected = b"INT,21.0,2.8\n".to_vec();
            assert!(t.check(check, "ok", &expected, &expected));
            let mut corrupted = expected.clone();
            corrupted[4] ^= 0x20;
            assert!(!t.check(check, "bad", &corrupted, &expected));
        }
        assert_eq!((t.attempted, t.failed), (8, 4));
        t.setup_s.push(1.0);
        t.pass_s.push(1.0);
        let r = t.finish("w", 1);
        assert_eq!(r.metric("error_rate").unwrap().value, 0.5);
        assert!(
            r.failures[0].starts_with("golden check failed for bad"),
            "{}",
            r.failures[0]
        );
    }
}
