//! `serve-mixed`: a closed-loop job mix against `dmdc serve --jobs 2`.
//! Two clients (`c0`, `c1`) each submit a batch of jobs one at a time,
//! waiting for every reply, as `dmdc submit --wait` callers do:
//!
//! * 59% hot smoke cells (every suite workload under three policies,
//!   warmed during setup, so these are cache hits and round trips);
//! * 32% unique default-scale cells, one per workload per client, each a
//!   workload/policy/inval-rate combination the run never repeats;
//! * 9% smoke experiments, table2..table5 once each, which both clients
//!   draw at the same positions and submit together, so job coalescing
//!   fires.
//!
//! The seed orders the jobs and picks the hot cells; it does not change
//! the work. Unique cells differ only in an invalidation rate too small to
//! change their cost, so every seed and every batch simulates the same
//! amount.
//!
//! Each client POSTs, then polls `GET /jobs/<id>/result` every 5 ms. Checks:
//! every experiment payload equals `dmdc experiment <id> --format json`,
//! every hot cell returns the payload it returned when warmed, and every
//! unique cell returns a cell report.

use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::process::{ChildStdout, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use super::{exited_ok, store_bytes, Env, Registry, Tally};
use crate::check::{self, Check};
use crate::http;
use crate::json::{self, Json};
use crate::proc::{Exit, Proc};
use crate::result::Metric;
use crate::rng::Rng;
use crate::trace::Tracer;

/// Policies of the hot cells (every suite workload under each).
pub const HOT_POLICIES: [&str; 3] = ["baseline", "dmdc-global", "yla-8"];
/// Experiments both clients draw.
pub const EXPERIMENTS: [&str; 4] = ["table2", "table3", "table4", "table5"];
/// Policies of the unique cells, workload by workload in turn. Each takes
/// injected invalidations (the non-coherent DMDC builds refuse them).
pub const UNIQUE_POLICIES: [&str; 5] = [
    "dmdc-coherent",
    "yla-16",
    "bloom-256",
    "queue-32",
    "baseline",
];
/// Hot-cell jobs per client per batch.
pub const HOT_PER_CLIENT: usize = 26;
/// Client names; one thread and one connection each.
pub const CLIENTS: [&str; 2] = ["c0", "c1"];
/// Result polling interval of the plain (untraced) clients.
const POLL: Duration = Duration::from_millis(5);
/// State polling interval of traced clients, which timestamp transitions.
const TRACE_POLL: Duration = Duration::from_millis(2);

/// One job of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Job {
    /// Hot cell `i`: workload `i / 3` under `HOT_POLICIES[i % 3]`.
    Hot(usize),
    /// A default-scale cell no other job of the run repeats.
    Unique {
        /// Workload name.
        workload: String,
        /// Policy token.
        policy: &'static str,
        /// Injected invalidations per 10⁷ cycles: unique within the run,
        /// and a handful at most per cell.
        inval_per_10m: usize,
    },
    /// A smoke-scale experiment.
    Experiment(&'static str),
}

impl Job {
    /// The `POST /jobs` body.
    pub fn body(&self, workloads: &[String], client: &str) -> String {
        match self {
            Job::Hot(i) => format!(
                "{{\"kind\": \"cell\", \"workload\": \"{}\", \"policy\": \"{}\", \"scale\": \"smoke\", \"client\": \"{client}\"}}",
                workloads[i / HOT_POLICIES.len()],
                HOT_POLICIES[i % HOT_POLICIES.len()]
            ),
            Job::Unique { workload, policy, inval_per_10m } => format!(
                "{{\"kind\": \"cell\", \"workload\": \"{workload}\", \"policy\": \"{policy}\", \"inval_rate\": {}, \"scale\": \"default\", \"client\": \"{client}\"}}",
                *inval_per_10m as f64 / 1e4
            ),
            Job::Experiment(id) => format!(
                "{{\"kind\": \"experiment\", \"id\": \"{id}\", \"scale\": \"smoke\", \"client\": \"{client}\"}}"
            ),
        }
    }

    fn cells(&self, reg: &Registry) -> u64 {
        match self {
            Job::Experiment(id) => reg.cells(id),
            _ => 1,
        }
    }
}

/// Both clients' jobs for batch `batch`: a pure function of the seed.
pub fn batch_jobs(seed: u64, batch: usize, workloads: &[String]) -> Vec<Vec<Job>> {
    let mut rng = Rng::new(seed, &format!("serve-mixed/batch{batch}"));
    let per_client = HOT_PER_CLIENT + workloads.len() + EXPERIMENTS.len();
    let mut positions: Vec<usize> = (0..per_client).collect();
    rng.shuffle(&mut positions);
    let mut ids = EXPERIMENTS;
    rng.shuffle(&mut ids);
    let mut shared: Vec<(usize, &'static str)> = positions.into_iter().zip(ids).collect();
    shared.sort_unstable();
    (0..CLIENTS.len())
        .map(|c| {
            let combo = CLIENTS.len() * batch + c;
            let mut rest: Vec<Job> = workloads
                .iter()
                .enumerate()
                .map(|(i, w)| Job::Unique {
                    workload: w.clone(),
                    policy: UNIQUE_POLICIES[i % UNIQUE_POLICIES.len()],
                    inval_per_10m: combo + 1,
                })
                .chain(
                    (0..HOT_PER_CLIENT)
                        .map(|_| Job::Hot(rng.below(workloads.len() * HOT_POLICIES.len()))),
                )
                .collect();
            rng.shuffle(&mut rest);
            let mut rest = rest.into_iter();
            (0..per_client)
                .map(|p| match shared.iter().find(|(sp, _)| *sp == p) {
                    Some((_, id)) => Job::Experiment(id),
                    None => rest.next().expect("positions and jobs match in number"),
                })
                .collect()
        })
        .collect()
}

/// A running daemon. Dropping it kills the process.
pub struct Daemon {
    proc: Proc,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(env: &Env, dir: &std::path::Path) -> io::Result<Daemon> {
        let mut cmd = env.command(
            dir,
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "2",
                "--state-dir",
                "state",
            ],
        )?;
        let mut proc = Proc::spawn(cmd.stdout(Stdio::piped()))?;
        let mut stdout = BufReader::new(proc.take_stdout().expect("stdout was piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("dmdc serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("dmdc serve: listening on ") {
                let addr = addr.to_string();
                return Ok(Daemon {
                    proc,
                    addr,
                    _stdout: stdout,
                });
            }
        }
    }

    /// Drains the daemon through `POST /shutdown` and waits for it.
    fn shutdown(self) -> io::Result<Exit> {
        http::request(&self.addr, "POST", "/shutdown", "")?;
        self.proc.wait()
    }
}

/// A set-up daemon with the references its payloads are held to.
pub struct Served {
    reg: Registry,
    dir: PathBuf,
    daemon: Daemon,
    hot: Vec<Vec<u8>>,
    experiments: Vec<(&'static str, Vec<u8>)>,
}

/// How one job went, as its client saw it.
struct Outcome {
    ms: f64,
    cells: u64,
    result: Result<(), String>,
}

/// Submits a job and waits for its result payload. Plain clients poll the
/// result every 5 ms; traced ones poll the job's state every 2 ms and
/// record the submit, queued, running and fetch phases as spans.
fn submit_and_wait(
    addr: &str,
    body: &str,
    trace: Option<(&Tracer, u64, u32)>,
) -> Result<String, String> {
    let t0 = trace.map(|(t, _, _)| t.now_us());
    let (status, reply) =
        http::request(addr, "POST", "/jobs", body).map_err(|e| format!("POST /jobs: {e}"))?;
    if status != 200 {
        return Err(format!("POST /jobs: HTTP {status}: {}", reply.trim()));
    }
    let id = json::parse(&reply)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_string))
        .ok_or(format!(
            "POST /jobs: reply without a job id: {}",
            reply.trim()
        ))?;
    let get = |path: String| {
        http::request(addr, "GET", &path, "").map_err(|e| format!("GET {path}: {e}"))
    };
    let Some((tracer, parent, lane)) = trace else {
        loop {
            match get(format!("/jobs/{id}/result"))? {
                (200, payload) => return Ok(payload),
                (202, _) => std::thread::sleep(POLL),
                (status, payload) => {
                    return Err(format!("{id}: HTTP {status}: {}", payload.trim()))
                }
            }
        }
    };
    let submitted = tracer.now_us();
    let mut running: Option<f64> = None;
    let finished = loop {
        let (status, doc) = get(format!("/jobs/{id}"))?;
        let state = json::parse(&doc)
            .ok()
            .and_then(|d| d.get("state").and_then(Json::as_str).map(str::to_string));
        let seen = tracer.now_us();
        match (status, state.as_deref()) {
            (200, Some("queued")) => {}
            (200, Some("running")) => {
                running.get_or_insert(seen);
            }
            (200, Some("done" | "failed")) => break seen,
            _ => return Err(format!("{id}: HTTP {status}: {}", doc.trim())),
        }
        std::thread::sleep(TRACE_POLL);
    };
    let (status, payload) = get(format!("/jobs/{id}/result"))?;
    let end = tracer.now_us();
    let job = tracer.interval("service.job", parent, lane, t0.expect("traced"), end);
    tracer.interval("service.submit", job, lane, t0.expect("traced"), submitted);
    tracer.interval(
        "service.queued",
        job,
        lane,
        submitted,
        running.unwrap_or(finished),
    );
    if let Some(r) = running {
        tracer.interval("service.running", job, lane, r, finished);
    }
    tracer.interval("service.fetch", job, lane, finished, end);
    match status {
        200 => Ok(payload),
        _ => Err(format!("{id}: HTTP {status}: {}", payload.trim())),
    }
}

/// Starts a daemon in a fresh directory, warms every hot cell and the
/// experiments, and records the payloads later jobs are held to.
pub fn setup(env: &Env, t: &mut Tally) -> io::Result<Served> {
    let reg = env.registry(t)?;
    let dir = env.fresh_dir("serve")?;
    let daemon = Daemon::start(env, &dir)?;
    let mut hot = Vec::new();
    for i in 0..reg.workloads.len() * HOT_POLICIES.len() {
        let reply = submit_and_wait(
            &daemon.addr,
            &Job::Hot(i).body(&reg.workloads, "setup"),
            None,
        );
        hot.push(reply.clone().unwrap_or_default().into_bytes());
        t.op(reply.map(drop));
    }
    let mut experiments = Vec::new();
    for id in EXPERIMENTS {
        let cli = env.dmdc(
            &dir,
            &[
                "experiment",
                id,
                "--scale",
                "smoke",
                "--format",
                "json",
                "--jobs",
                "2",
            ],
        )?;
        t.rss(&cli);
        let served = submit_and_wait(
            &daemon.addr,
            &Job::Experiment(id).body(&reg.workloads, "setup"),
            None,
        );
        match exited_ok(&cli, id).and(served) {
            Ok(payload) => {
                t.check(Check::ServePayload, id, &cli.stdout, payload.as_bytes());
            }
            Err(e) => t.op(Err(e)),
        }
        experiments.push((id, cli.stdout));
    }
    let (cell_bytes, _) = store_bytes(&dir.join("state/cache"));
    t.counter("cache.cell_bytes", cell_bytes);
    t.counter("cache.ckpt_bytes", 0);
    Ok(Served {
        reg,
        dir,
        daemon,
        hot,
        experiments,
    })
}

/// Runs batch `k`: both clients closed-loop, concurrently. Returns the
/// batch's wall time in seconds.
pub fn batch(
    env: &Env,
    s: &Served,
    k: usize,
    t: &mut Tally,
    tracer: Option<&Tracer>,
) -> io::Result<f64> {
    let jobs = batch_jobs(env.seed, k, &s.reg.workloads);
    let together = Barrier::new(CLIENTS.len());
    let start = Instant::now();
    let outcomes: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = CLIENTS
            .iter()
            .zip(&jobs)
            .enumerate()
            .map(|(lane, (client, jobs))| {
                let together = &together;
                scope.spawn(move || run_client(s, client, jobs, together, tracer, lane as u32 + 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    for o in outcomes.into_iter().flatten() {
        let ok = o.result.is_ok();
        t.op(o.result);
        t.request("job", o.ms, ok);
        if ok {
            t.cells += o.cells;
        }
    }
    Ok(wall)
}

/// One client's jobs, in order. Every client holds an experiment at the
/// same positions and meets the others at `together` before submitting it,
/// so the submissions overlap and coalesce: a warm experiment takes about
/// 2 ms, too short for clients that merely happen to reach it together.
fn run_client(
    s: &Served,
    client: &str,
    jobs: &[Job],
    together: &Barrier,
    tracer: Option<&Tracer>,
    lane: u32,
) -> Vec<Outcome> {
    let root = tracer.map(|t| t.open("service.client", 0, lane));
    let outcomes = jobs
        .iter()
        .map(|job| {
            if let Job::Experiment(_) = job {
                let wait = tracer
                    .zip(root.as_ref())
                    .map(|(t, r)| t.open("harness.wait", r.id(), lane));
                together.wait();
                if let (Some(t), Some(w)) = (tracer, wait) {
                    t.close(w);
                }
            }
            let t0 = Instant::now();
            let trace = tracer.zip(root.as_ref()).map(|(t, r)| (t, r.id(), lane));
            let reply = submit_and_wait(&s.daemon.addr, &job.body(&s.reg.workloads, client), trace);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let subject = format!("{client} {job:?}");
            let result = reply.and_then(|payload| {
                let payload = payload.as_bytes();
                match job {
                    Job::Hot(i) => check::same(Check::ServePayload, &subject, &s.hot[*i], payload)
                        .map_err(|m| m.to_string()),
                    Job::Experiment(id) => {
                        let (_, expected) = s
                            .experiments
                            .iter()
                            .find(|(e, _)| e == id)
                            .expect("every drawn experiment was set up");
                        check::same(Check::ServePayload, &subject, expected, payload)
                            .map_err(|m| m.to_string())
                    }
                    Job::Unique { .. }
                        if String::from_utf8_lossy(payload)
                            .contains("\"experiment\": \"cell\"") =>
                    {
                        Ok(())
                    }
                    Job::Unique { .. } => Err(format!("{subject}: not a cell report")),
                }
            });
            Outcome {
                ms,
                cells: job.cells(&s.reg),
                result,
            }
        })
        .collect();
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    outcomes
}

/// Reads the daemon's counters, drains it and records its metrics.
pub fn finish(s: Served, t: &mut Tally) -> io::Result<()> {
    let (_, metrics) = http::request(&s.daemon.addr, "GET", "/metrics", "")?;
    let doc = json::parse(&metrics).map_err(io::Error::other)?;
    let count = |a: &str, b: &str| {
        doc.get(a)
            .and_then(|d| d.get(b))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    t.extra.push(Metric::new(
        "service.jobs_coalesced",
        "count",
        count("jobs", "coalesced"),
        1,
    ));
    t.extra.push(Metric::new(
        "service.cache_hits",
        "count",
        count("cache", "hits"),
        1,
    ));
    let exit = s.daemon.shutdown()?;
    t.peak_rss_kb = t.peak_rss_kb.max(exit.maxrss_kb);
    t.op(if exit.success() {
        Ok(())
    } else {
        Err(format!("dmdc serve exited with {:?}", exit.code))
    });
    let refs: Vec<u8> = s
        .hot
        .iter()
        .flatten()
        .chain(s.experiments.iter().flat_map(|(_, e)| e))
        .copied()
        .collect();
    t.report_digest(&refs);
    let per_batch: u64 = batch_jobs(0, 0, &s.reg.workloads)
        .iter()
        .flatten()
        .map(|j| j.cells(&s.reg))
        .sum();
    t.counter("cells", per_batch);
    let _ = std::fs::remove_dir_all(&s.dir);
    Ok(())
}

pub(super) fn run(env: &Env, t: &mut Tally, tracer: Option<&Tracer>) -> io::Result<()> {
    t.racy = true;
    let served = t.measure(
        env,
        |t| setup(env, t),
        |s, k, t| batch(env, s, k, t, tracer),
    )?;
    finish(served, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workloads() -> Vec<String> {
        [
            "hash", "sort", "list", "crc", "bitcnt", "strmatch", "histo", "mm", "saxpy", "stencil",
            "fir", "nbody", "mc", "tri",
        ]
        .map(str::to_string)
        .to_vec()
    }

    #[test]
    fn same_seed_same_job_mix() {
        let w = workloads();
        assert_eq!(batch_jobs(3, 1, &w), batch_jobs(3, 1, &w));
        assert_ne!(batch_jobs(3, 1, &w), batch_jobs(4, 1, &w));
        assert_ne!(batch_jobs(3, 1, &w), batch_jobs(3, 2, &w));
    }

    #[test]
    fn mix_has_fixed_proportions_and_shared_experiments() {
        let w = workloads();
        let clients = batch_jobs(9, 0, &w);
        assert_eq!(clients.len(), 2);
        for jobs in &clients {
            assert_eq!(jobs.len(), 44);
            assert_eq!(
                jobs.iter().filter(|j| matches!(j, Job::Hot(_))).count(),
                HOT_PER_CLIENT
            );
            assert_eq!(
                jobs.iter()
                    .filter(|j| matches!(j, Job::Unique { .. }))
                    .count(),
                w.len()
            );
        }
        let exp = |jobs: &[Job]| -> Vec<(usize, Job)> {
            jobs.iter()
                .cloned()
                .enumerate()
                .filter(|(_, j)| matches!(j, Job::Experiment(_)))
                .collect()
        };
        let mut drawn: Vec<Job> = exp(&clients[0]).into_iter().map(|(_, j)| j).collect();
        drawn.sort_by_key(|j| format!("{j:?}"));
        assert_eq!(drawn, EXPERIMENTS.map(Job::Experiment));
        assert_eq!(
            exp(&clients[0]),
            exp(&clients[1]),
            "both clients draw the same experiments at the same positions"
        );
    }

    #[test]
    fn the_seed_orders_the_work_but_does_not_change_it() {
        let w = workloads();
        let work = |seed| {
            let mut bodies: Vec<String> = batch_jobs(seed, 2, &w)
                .iter()
                .flatten()
                .filter(|j| !matches!(j, Job::Hot(_)))
                .map(|j| j.body(&w, "c"))
                .collect();
            bodies.sort();
            bodies
        };
        assert_eq!(work(1), work(2));
        assert_ne!(batch_jobs(1, 2, &w), batch_jobs(2, 2, &w));
    }

    #[test]
    fn the_fewest_batches_put_ten_jobs_beyond_p90() {
        // The latency percentiles pool every job of the run.
        let jobs: usize = batch_jobs(1, 0, &workloads()).iter().map(Vec::len).sum();
        let beyond = crate::stats::samples_beyond(crate::workloads::MIN_PASSES * jobs, 90.0);
        assert!(beyond >= crate::stats::MIN_BEYOND, "{beyond}");
    }

    #[test]
    fn unique_cells_never_repeat_within_a_run() {
        let w = workloads();
        let mut seen = std::collections::HashSet::new();
        for batch in 0..28 {
            for job in batch_jobs(5, batch, &w).into_iter().flatten() {
                if let Job::Unique { .. } = job {
                    assert!(
                        seen.insert(job.body(&w, "c")),
                        "{job:?} repeated in batch {batch}"
                    );
                }
            }
        }
    }
}
