//! `fleet-default`: a cold 2-worker fleet. Each pass runs `dmdc suite
//! --policy P --scale default --distrib --workers 2` from an empty store (P
//! seeded), next to a cold single-process `--jobs 2` reference of the same
//! suite. The time is worker spawn, plan fetch, claim/heartbeat/complete
//! round trips, the simulations, and the drain: the last worker idles in a
//! `{"wait": ms}` claim reply of up to 2 s before it learns the run is over.
//!
//! Default scale, not smoke: smoke cells take milliseconds, so whether a
//! worker is parked at the end is a race, and smoke passes take either
//! ~0.3 s or ~2.3 s at close to even odds — no median of a few passes is
//! steady. Default-scale cells are long enough that the park nearly always
//! happens (about one pass in twenty escapes it, at ~0.7 s), so the run
//! reports its median pass, not its best.
//!
//! Check: the fleet's stdout equals the single-process stdout.
//!
//! Traced, a watcher thread notes when each `*.cell` record lands in the
//! shared store, splitting the run into startup (spawn to first cell),
//! cells and drain (last cell to coordinator exit).

use std::collections::BTreeSet;
use std::io::{self, Read};
use std::path::Path;
use std::process::Stdio;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use super::{exited_ok, store_bytes, Env, Tally};
use crate::check::Check;
use crate::proc::{Exit, Proc};
use crate::trace::Tracer;

/// Policies a pass draws from.
pub const POLICIES: [&str; 5] = ["baseline", "yla-8", "dmdc-global", "dmdc-local", "queue-16"];

/// How often the traced run lists the store for newly landed cells.
const WATCH_POLL: Duration = Duration::from_millis(1);

/// Per-run state: suite size and the single-process reference times.
#[derive(Default)]
pub struct Fleet {
    suite_cells: u64,
    single_s: Vec<f64>,
}

/// Sets up: the registry (for the suite size), then a small untimed
/// single-process suite that pays the binary's first-run costs.
pub fn setup(env: &Env, t: &mut Tally) -> io::Result<Fleet> {
    let suite_cells = env.registry(t)?.workloads.len() as u64;
    env.warm_up_suite(t)?;
    Ok(Fleet {
        suite_cells,
        ..Fleet::default()
    })
}

/// Runs the distributed suite in `dir`, returning its stdout and exit; with
/// a tracer, cell arrivals in the store are recorded as spans.
fn run_fleet(
    env: &Env,
    dir: &Path,
    policy: &str,
    tracer: Option<&Tracer>,
) -> io::Result<(Vec<u8>, Exit)> {
    let args = [
        "suite",
        "--policy",
        policy,
        "--scale",
        "default",
        "--distrib",
        "--workers",
        "2",
    ];
    let mut cmd = env.command(dir, &args)?;
    let Some(tracer) = tracer else {
        let out = crate::proc::run(&mut cmd)?;
        return Ok((out.stdout, out.exit));
    };
    let store = dir.join("target/dmdc-cache");
    let done = AtomicBool::new(false);
    let root = tracer.open("workload", 0, 0);
    let run = tracer.open("distrib.run", root.id(), 0);
    let (stdout, exit, arrivals) = std::thread::scope(|scope| -> io::Result<_> {
        let watcher = scope.spawn(|| {
            let mut seen = BTreeSet::new();
            let mut arrivals = Vec::new();
            while !done.load(Ordering::SeqCst) {
                if let Ok(entries) = std::fs::read_dir(&store) {
                    for e in entries.flatten() {
                        let name = e.file_name().to_string_lossy().to_string();
                        if name.ends_with(".cell") && seen.insert(name) {
                            arrivals.push(tracer.now_us());
                        }
                    }
                }
                std::thread::sleep(WATCH_POLL);
            }
            arrivals
        });
        let mut proc = Proc::spawn(cmd.stdout(Stdio::piped()));
        let stdout = match &mut proc {
            Ok(p) => {
                let mut stdout = Vec::new();
                p.take_stdout()
                    .expect("stdout was piped")
                    .read_to_end(&mut stdout)
                    .map(|_| stdout)
            }
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        };
        let exit = proc.and_then(Proc::wait);
        done.store(true, Ordering::SeqCst);
        let arrivals = watcher.join().expect("the store watcher panicked");
        Ok((stdout?, exit?, arrivals))
    })?;
    let end = tracer.now_us();
    let start = end - exit.wall.as_secs_f64() * 1e6;
    let first = arrivals.first().copied().unwrap_or(end);
    let last = arrivals.last().copied().unwrap_or(end);
    let run_id = run.id();
    tracer.interval("distrib.startup", run_id, 0, start, first);
    tracer.interval("distrib.cells", run_id, 0, first, last);
    tracer.interval("distrib.drain", run_id, 0, last, end);
    for at in arrivals {
        tracer.instant("distrib.cell", run_id, 0, at);
    }
    tracer.close(run);
    tracer.close(root);
    Ok((stdout, exit))
}

/// One pass: the fleet run (timed) and its single-process reference.
/// Returns the fleet's wall time in seconds.
pub fn pass(
    env: &Env,
    f: &mut Fleet,
    k: usize,
    t: &mut Tally,
    tracer: Option<&Tracer>,
) -> io::Result<f64> {
    let policy = POLICIES[env
        .rng(&format!("fleet-default/pass{k}"))
        .below(POLICIES.len())];
    let fleet_dir = env.fresh_dir("fleet")?;
    let (fleet_out, fleet_exit) = run_fleet(env, &fleet_dir, policy, tracer)?;
    let single_dir = env.fresh_dir("single")?;
    let single = env.dmdc(
        &single_dir,
        &[
            "suite", "--policy", policy, "--scale", "default", "--jobs", "2",
        ],
    )?;
    f.single_s.push(single.exit.wall.as_secs_f64());
    t.peak_rss_kb = t.peak_rss_kb.max(fleet_exit.maxrss_kb);
    t.rss(&single);
    let ok = match exited_ok(&single, "single-process suite") {
        Err(e) => {
            t.op(Err(e));
            false
        }
        Ok(()) if !fleet_exit.success() => {
            t.op(Err(format!(
                "--distrib suite ({policy}) exited with {:?}",
                fleet_exit.code
            )));
            false
        }
        Ok(()) => t.check(Check::FleetSingle, policy, &single.stdout, &fleet_out),
    };
    let secs = fleet_exit.wall.as_secs_f64();
    t.request("distrib", secs * 1e3, ok);
    if ok {
        t.cells += f.suite_cells;
        if k == 0 {
            let (cell_bytes, ckpt_bytes) = store_bytes(&fleet_dir.join("target/dmdc-cache"));
            t.counter("cache.cell_bytes", cell_bytes);
            t.counter("cache.ckpt_bytes", ckpt_bytes);
            t.report_digest(&fleet_out);
        }
    }
    std::fs::remove_dir_all(&fleet_dir)?;
    std::fs::remove_dir_all(&single_dir)?;
    Ok(secs)
}

/// Records the single-process base and the fleet's overhead over it.
pub fn finish(f: Fleet, t: &mut Tally) {
    t.timing("single_wall_s", "s", &f.single_s);
    let ratio: Vec<f64> = t
        .pass_s
        .iter()
        .zip(&f.single_s)
        .map(|(d, s)| d / s)
        .collect();
    t.timing("distrib.overhead_x", "x", &ratio);
    t.counter("cells", f.suite_cells);
}

pub(super) fn run(env: &Env, t: &mut Tally, tracer: Option<&Tracer>) -> io::Result<()> {
    t.racy = true;
    let fleet = t.measure(env, |t| setup(env, t), |f, k, t| pass(env, f, k, t, tracer))?;
    finish(fleet, t);
    Ok(())
}
