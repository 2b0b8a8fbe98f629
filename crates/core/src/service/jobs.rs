//! Job model, durable queue state and execution for `dmdc serve`.
//!
//! A **job** is one unit of simulation work a client submitted over
//! HTTP: either a single (workload, policy, config) cell or a whole
//! registry experiment. Job `job-N` is the Nth submission; its number is
//! its FIFO rank and the key of its files. The [`JobManager`] owns the
//! complete lifecycle:
//!
//! * **submit** — parse and validate the request, account it against the
//!   client's quota, coalesce it onto an identical in-flight job if one
//!   exists (see below), persist a sealed `jobs/<N as 016x>.job`
//!   envelope, and enqueue;
//! * **dispatch** — a worker pops jobs in priority order (FIFO within a
//!   priority) and executes them through the ordinary [`Engine`] under
//!   the daemon's [`Context`], whose cell cache means a cell an earlier
//!   job simulated is read, not re-run;
//! * **complete** — the rendered report (the same JSON the CLI's
//!   `--format json` emits) is persisted as a sealed
//!   `results/<N as 016x>.result` envelope before the job is marked
//!   done, so a crash can never lose a finished result;
//! * **recover** — on restart, every job envelope without a matching
//!   result envelope is re-enqueued in id order. Execution is
//!   deterministic and ids are sequential, so a killed-and-restarted
//!   daemon produces byte-identical results for the same submissions.
//!
//! Both directories are `SealedDir`s built in the daemon's context,
//! the core the cell and checkpoint stores share: a damaged envelope is
//! quarantined to its directory's `quarantine/` and counted, and the
//! context's fault plan runs after every job and result write.
//!
//! **Coalescing invariant:** two submissions are *identical* iff their
//! canonical descriptions — simulator fingerprint ‖ workload ‖ full spec
//! — hash to the same key. While a job for a key is queued or running,
//! identical submissions return the *same job id* instead of new work;
//! the `jobs_coalesced` counter counts exactly those merged submissions,
//! so N concurrent identical submissions perform 1 simulation and count
//! N−1 coalesces. Once the job completes, the key is released — a later
//! identical submission becomes a new job (and is answered from the cell
//! cache rather than re-simulated).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dmdc_ooo::{SampleSpec, SimOptions};
use dmdc_workloads::Scale;

use crate::cache::{self, Fnv64, SealedDir};
use crate::experiments::{self, find_workload, parse_config, parse_scale, scale_token, PolicyKind};
use crate::report::{Report, Table};
use crate::runner::{Context, Engine, RunSpec};
use crate::sampling;
use crate::service::json::{self, Json};

/// What one job simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// One (workload, policy, config) cell.
    Cell {
        /// Workload name (`histo`, `saxpy`, `synthetic`, ...).
        workload: String,
        /// Dependence-checking design.
        policy: PolicyKind,
        /// Machine configuration (1, 2 or 3).
        config: u8,
        /// Workload scale.
        scale: Scale,
        /// Injected invalidations per kilocycle (0 = none).
        inval_rate: f64,
        /// SMARTS-style sampled simulation instead of exact.
        sampled: bool,
    },
    /// A whole registry experiment.
    Experiment {
        /// Registry id (`fig2`, `table6`, ...).
        id: String,
        /// Workload scale.
        scale: Scale,
    },
}

impl JobSpec {
    /// The canonical one-line description the coalescing key hashes.
    /// Everything that can influence the result appears here; the
    /// simulator fingerprint joins at hash time (see [`JobSpec::key`]).
    pub fn canonical(&self) -> String {
        match self {
            JobSpec::Cell {
                workload,
                policy,
                config,
                scale,
                inval_rate,
                sampled,
            } => format!(
                "cell workload={workload} policy={} config={config} scale={} inval={inval_rate} sampled={sampled}",
                policy.token(),
                scale_token(*scale),
            ),
            JobSpec::Experiment { id, scale } => {
                format!("experiment id={id} scale={}", scale_token(*scale))
            }
        }
    }

    /// The job coalescing key: fingerprint ‖ canonical spec.
    pub fn key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(cache::default_fingerprint().as_bytes());
        h.write(b"\0");
        h.write(self.canonical().as_bytes());
        h.finish()
    }

    /// The spec as a JSON object (the `spec` member of job documents).
    pub fn to_json(&self) -> String {
        match self {
            JobSpec::Cell {
                workload,
                policy,
                config,
                scale,
                inval_rate,
                sampled,
            } => format!(
                "{{\"kind\": \"cell\", \"workload\": \"{}\", \"policy\": \"{}\", \
                 \"config\": {config}, \"scale\": \"{}\", \"inval_rate\": {inval_rate}, \
                 \"sampled\": {sampled}}}",
                json::escape(workload),
                json::escape(&policy.token()),
                scale_token(*scale),
            ),
            JobSpec::Experiment { id, scale } => format!(
                "{{\"kind\": \"experiment\", \"id\": \"{}\", \"scale\": \"{}\"}}",
                json::escape(id),
                scale_token(*scale),
            ),
        }
    }

    /// Parses and validates a spec object (the body of `POST /jobs`, or
    /// the `spec` member of a persisted job document).
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing `kind` (cell or experiment)")?;
        let scale = parse_scale(
            doc.get("scale")
                .map(|s| s.as_str().ok_or("`scale` must be a string"))
                .transpose()?
                .unwrap_or("smoke"),
        )?;
        match kind {
            "cell" => {
                let workload = doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("cell jobs need a `workload`")?
                    .to_string();
                // The name set is scale-independent, and smoke-scale
                // construction is cheap.
                if find_workload(&workload, Scale::Smoke).is_err() {
                    return Err(format!("unknown workload `{workload}`"));
                }
                let policy = PolicyKind::parse_token(
                    doc.get("policy")
                        .and_then(Json::as_str)
                        .ok_or("cell jobs need a `policy`")?,
                )?;
                let config = match doc.get("config") {
                    None => 2,
                    Some(v) => match v.as_u64() {
                        Some(c @ 1..=3) => c as u8,
                        _ => return Err("`config` must be 1, 2 or 3".to_string()),
                    },
                };
                let inval_rate = match doc.get("inval_rate") {
                    None => 0.0,
                    Some(v) => v
                        .as_f64()
                        .filter(|r| r.is_finite() && *r >= 0.0)
                        .ok_or("`inval_rate` must be a non-negative number")?,
                };
                let sampled = match doc.get("sampled") {
                    None => false,
                    Some(v) => v.as_bool().ok_or("`sampled` must be a boolean")?,
                };
                Ok(JobSpec::Cell {
                    workload,
                    policy,
                    config,
                    scale,
                    inval_rate,
                    sampled,
                })
            }
            "experiment" => {
                let id = doc
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("experiment jobs need an `id`")?
                    .to_string();
                if experiments::find_experiment(&id).is_none() {
                    return Err(format!("unknown experiment `{id}` (see `dmdc list`)"));
                }
                Ok(JobSpec::Experiment { id, scale })
            }
            other => Err(format!("unknown job kind `{other}` (cell or experiment)")),
        }
    }
}

/// Executes one job under the daemon's `ctx` to its result payload —
/// the exact JSON document the CLI's `--format json` emitters produce for
/// the same work. `Err` is a human-readable failure (quarantined cells,
/// unknown ids) that becomes a `failed` job, never a dead daemon.
pub fn execute(ctx: &Context, spec: &JobSpec) -> Result<String, String> {
    match spec {
        JobSpec::Cell {
            workload,
            policy,
            config,
            scale,
            inval_rate,
            sampled,
        } => {
            let workloads = [find_workload(workload, *scale)?];
            let core = parse_config(&config.to_string())?;
            // The sampling mode is set on the spec itself: `RunSpec::opts`
            // is what cache keys hash.
            let spec = RunSpec {
                workload: 0,
                config: core.clone(),
                policy: policy.clone(),
                opts: SimOptions {
                    inval_per_kcycle: *inval_rate,
                    sampling: if *sampled {
                        SampleSpec::standard()
                    } else {
                        SampleSpec::EXACT
                    },
                    ..SimOptions::default()
                },
            };
            let cell = Engine::new(ctx, &workloads)
                .try_run_cell(&spec)
                .map_err(|f| format!("[{}] {}", f.kind, f.detail))?;
            let title = format!(
                "cell {} under {policy:?} on {}",
                workloads[0].name, core.name
            );
            Ok(Report::single("cell", Table::cells(title, [&cell])).json())
        }
        JobSpec::Experiment { id, scale } => {
            let exp = experiments::find_experiment(id)
                .ok_or_else(|| format!("unknown experiment `{id}`"))?;
            let report = experiments::run_experiment(&experiment_context(ctx, *scale), exp, *scale);
            if report.has_failures() {
                return Err(format!(
                    "{} cell(s) quarantined; report: {}",
                    report.failures().len(),
                    report.json()
                ));
            }
            Ok(report.json())
        }
    }
}

/// The context an experiment job runs under: the daemon's, sampling
/// exactly when `dmdc experiment` at the same scale would.
fn experiment_context(ctx: &Context, scale: Scale) -> Context {
    ctx.clone().with_sampling(sampling::spec_for(scale, None))
}

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    Queued,
    /// Being executed right now.
    Running,
    /// Finished; the result envelope holds the report.
    Done,
    /// Finished unsuccessfully; the result envelope holds the error.
    Failed,
}

impl JobState {
    /// Stable wire token.
    pub fn token(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    priority: u8,
    client: String,
    state: JobState,
    key: u64,
}

/// The wire id of job number `seq`.
fn job_id(seq: u64) -> String {
    format!("job-{seq}")
}

/// The number of job `id`; `None` unless `id` is exactly what
/// [`job_id`] renders (so `job-01` names no job).
fn job_seq(id: &str) -> Option<u64> {
    let seq = id.strip_prefix("job-")?.parse().ok()?;
    (job_id(seq) == id).then_some(seq)
}

/// Parses a sealed job envelope's body; `None` (and so quarantine) for
/// anything malformed or filed under another job's number.
fn decode_job(body: &str, seq: u64) -> Option<JobRecord> {
    let doc = json::parse(body).ok()?;
    if doc.get("id")?.as_str()? != job_id(seq) {
        return None;
    }
    let spec = JobSpec::from_json(doc.get("spec")?).ok()?;
    Some(JobRecord {
        priority: u8::try_from(doc.get("priority")?.as_u64()?).ok()?,
        client: doc.get("client")?.as_str()?.to_string(),
        state: JobState::Queued,
        key: spec.key(),
        spec,
    })
}

/// Parses a sealed result envelope's body into `(state, payload)`.
fn decode_result(body: &str) -> Option<(JobState, String)> {
    let rest = body.strip_prefix("dmdc-result v1\n")?;
    let (state_line, payload) = rest.split_once('\n')?;
    let state = match state_line.strip_prefix("state ")? {
        "done" => JobState::Done,
        "failed" => JobState::Failed,
        _ => return None,
    };
    Some((state, payload.to_string()))
}

/// The outcome of one submission.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// A new job was enqueued.
    Created(String),
    /// An identical job was already in flight; this submission merged
    /// onto it (the returned id is the in-flight job's).
    Coalesced(String),
    /// The client is at its in-flight quota; nothing was enqueued.
    OverQuota {
        /// The rejected client.
        client: String,
        /// The client's current in-flight (queued + running) job count.
        active: usize,
        /// The configured per-client limit.
        limit: usize,
    },
}

/// Monotonic service counters (all since daemon start; persisted state
/// contributes through `recovered`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// Submissions that created a new job.
    pub submitted: u64,
    /// Submissions merged onto an identical in-flight job.
    pub coalesced: u64,
    /// Submissions rejected for quota.
    pub rejected: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that finished with a failure.
    pub failed: u64,
    /// Jobs re-enqueued from a previous daemon life at startup.
    pub recovered: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Queued jobs in dispatch order: priority descending, then job
    /// number — submission order — ascending.
    queue: BTreeSet<(Reverse<u8>, u64)>,
    jobs: BTreeMap<u64, JobRecord>,
    active_by_key: HashMap<u64, u64>,
    active_per_client: HashMap<String, usize>,
    next_seq: u64,
    paused: bool,
    draining: bool,
}

impl Inner {
    /// Tracks job `seq` as queued and holds its coalescing key and its
    /// client's quota slot.
    fn enqueue(&mut self, seq: u64, record: JobRecord) {
        self.queue.insert((Reverse(record.priority), seq));
        self.active_by_key.insert(record.key, seq);
        *self
            .active_per_client
            .entry(record.client.clone())
            .or_insert(0) += 1;
        self.jobs.insert(seq, record);
    }
}

/// The daemon's job table: durable, quota-accounted, coalescing. See the
/// module docs for the lifecycle.
pub struct JobManager {
    /// Sealed job envelopes, `<016x>.job` by job number.
    jobs: SealedDir,
    /// Sealed result envelopes, `<016x>.result` by job number.
    results: SealedDir,
    quota: usize,
    inner: Mutex<Inner>,
    work: Condvar,
    submitted: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    recovered: AtomicU64,
}

impl JobManager {
    /// Opens (creating if needed) the job state under `dir`: sealed job
    /// envelopes in `dir/jobs/`, sealed result envelopes in
    /// `dir/results/`, both built in `ctx`, so its fault plan runs after
    /// every write and quarantines count in its recovery counters.
    /// `quota` is the per-client in-flight job limit.
    pub fn new(ctx: &Context, dir: impl Into<PathBuf>, quota: usize) -> Result<JobManager, String> {
        let dir = dir.into();
        let sealed = |sub: &str, ext| {
            let path = dir.join(sub);
            std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok::<_, String>(SealedDir::new(path, ext, String::new()).in_context(ctx))
        };
        Ok(JobManager {
            jobs: sealed("jobs", "job")?,
            results: sealed("results", "result")?,
            quota: quota.max(1),
            inner: Mutex::new(Inner {
                next_seq: 1,
                ..Inner::default()
            }),
            work: Condvar::new(),
            submitted: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
        })
    }

    /// Replays the previous daemon life's job state, one fold over the
    /// job envelopes in job-number order: a job with a result is
    /// reloaded finished; one without is re-enqueued at its recorded
    /// priority, so a restarted daemon executes the unfinished jobs in
    /// the order the original would have. A damaged envelope is
    /// quarantined and counted; a job whose result is damaged runs
    /// again. New job numbers continue past every number on disk.
    /// Returns the number of re-enqueued jobs.
    pub fn recover(&self) -> usize {
        let mut inner = self.lock();
        let keys = self.jobs.keys();
        let last = keys.iter().chain(&self.results.keys()).copied().max();
        inner.next_seq = inner.next_seq.max(last.map_or(1, |seq| seq + 1));
        let requeued = keys.into_iter().fold(0, |requeued, seq| {
            let Some(mut record) = self.jobs.load(seq, |body| decode_job(body, seq)) else {
                return requeued;
            };
            match self.results.load(seq, decode_result) {
                Some((state, _)) => {
                    record.state = state;
                    inner.jobs.insert(seq, record);
                    requeued
                }
                None => {
                    inner.enqueue(seq, record);
                    requeued + 1
                }
            }
        });
        drop(inner);
        self.recovered.fetch_add(requeued as u64, Ordering::Relaxed);
        if requeued > 0 {
            self.work.notify_all();
        }
        requeued
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Submits one parsed request. The sealed job envelope is on disk
    /// before the job becomes visible in the queue, so an accepted job
    /// survives any crash.
    pub fn submit(
        &self,
        spec: JobSpec,
        priority: u8,
        client: &str,
    ) -> Result<SubmitOutcome, String> {
        let key = spec.key();
        let mut inner = self.lock();
        if inner.draining {
            return Err("daemon is draining; not accepting jobs".to_string());
        }
        if let Some(&seq) = inner.active_by_key.get(&key) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Ok(SubmitOutcome::Coalesced(job_id(seq)));
        }
        let active = inner.active_per_client.get(client).copied().unwrap_or(0);
        if active >= self.quota {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Ok(SubmitOutcome::OverQuota {
                client: client.to_string(),
                active,
                limit: self.quota,
            });
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let id = job_id(seq);
        let body = format!(
            "{{\"id\": \"{}\", \"client\": \"{}\", \"priority\": {priority}, \"spec\": {}}}",
            json::escape(&id),
            json::escape(client),
            spec.to_json()
        );
        if !self.jobs.store(seq, &body) {
            return Err(format!("could not persist job envelope for {id}"));
        }
        inner.enqueue(
            seq,
            JobRecord {
                spec,
                priority,
                client: client.to_string(),
                state: JobState::Queued,
                key,
            },
        );
        drop(inner);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.work.notify_all();
        Ok(SubmitOutcome::Created(id))
    }

    /// Blocks until a job is available (or the manager is draining and
    /// empty, returning `None`). The returned job is marked running.
    pub fn next_job(&self) -> Option<(String, JobSpec)> {
        let mut inner = self.lock();
        loop {
            if !inner.paused {
                if let Some((_, seq)) = inner.queue.pop_first() {
                    let record = inner.jobs.get_mut(&seq).expect("queued job is tracked");
                    record.state = JobState::Running;
                    return Some((job_id(seq), record.spec.clone()));
                }
                if inner.draining {
                    return None;
                }
            } else if inner.draining {
                // Draining overrides a paused queue: finish the work.
                inner.paused = false;
                continue;
            }
            inner = self
                .work
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Parks until job `id` is done or failed, or `timeout` runs out, on
    /// the condvar every state change notifies — what a `?wait=` result
    /// poll blocks on. Returns the job's state then, `None` if unknown.
    pub fn wait_finished(&self, id: &str, timeout: Duration) -> Option<JobState> {
        let seq = job_seq(id)?;
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            let state = inner.jobs.get(&seq)?.state;
            let left = deadline.saturating_duration_since(Instant::now());
            if matches!(state, JobState::Done | JobState::Failed) || left.is_zero() {
                return Some(state);
            }
            inner = match self.work.wait_timeout(inner, left) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Records a finished job: the sealed result envelope lands on disk
    /// first, then the job flips to done/failed and its key and quota
    /// slot are released.
    pub fn complete(&self, id: &str, outcome: Result<String, String>) {
        let Some(seq) = job_seq(id) else {
            return;
        };
        let (state, payload) = match outcome {
            Ok(report) => (JobState::Done, report),
            Err(error) => (
                JobState::Failed,
                format!("{{\"error\": \"{}\"}}\n", json::escape(&error)),
            ),
        };
        let body = format!("dmdc-result v1\nstate {}\n{payload}", state.token());
        self.results.store(seq, &body);
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(&seq) {
            record.state = state;
            let key = record.key;
            let client = record.client.clone();
            inner.active_by_key.remove(&key);
            if let Some(n) = inner.active_per_client.get_mut(&client) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    inner.active_per_client.remove(&client);
                }
            }
        }
        drop(inner);
        match state {
            JobState::Done => self.completed.fetch_add(1, Ordering::Relaxed),
            _ => self.failed.fetch_add(1, Ordering::Relaxed),
        };
        self.work.notify_all();
    }

    /// Pauses or resumes dispatch. Paused, submissions still enqueue;
    /// nothing pops. (The black-box tests use this to make coalescing
    /// and quota behavior deterministic.)
    pub fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        self.work.notify_all();
    }

    /// Whether dispatch is paused.
    pub fn paused(&self) -> bool {
        self.lock().paused
    }

    /// Switches to drain mode: no new submissions, the queue keeps
    /// popping (even if paused) until empty, then [`JobManager::next_job`]
    /// returns `None`.
    pub fn begin_drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        inner.paused = false;
        drop(inner);
        self.work.notify_all();
    }

    /// Number of queued (not yet running) jobs.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Ids of all tracked jobs, in numeric id order.
    pub fn job_ids(&self) -> Vec<String> {
        self.lock().jobs.keys().map(|&seq| job_id(seq)).collect()
    }

    /// The status document for one job, or `None` if unknown.
    pub fn status_json(&self, id: &str) -> Option<String> {
        let inner = self.lock();
        let record = inner.jobs.get(&job_seq(id)?)?;
        Some(format!(
            "{{\"id\": \"{}\", \"state\": \"{}\", \"priority\": {}, \"client\": \"{}\", \
             \"spec\": {}}}\n",
            json::escape(id),
            record.state.token(),
            record.priority,
            json::escape(&record.client),
            record.spec.to_json()
        ))
    }

    /// The state of one job, or `None` if unknown.
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.lock().jobs.get(&job_seq(id)?).map(|r| r.state)
    }

    /// A finished job's persisted result: `(state, payload)`, where the
    /// payload is the byte-exact stored document (a report for done jobs,
    /// an error document for failed ones). `None` while unfinished or if
    /// the envelope is missing; a damaged one is quarantined.
    pub fn load_result(&self, id: &str) -> Option<(JobState, String)> {
        self.results.load(job_seq(id)?, decode_result)
    }

    /// A snapshot of the service counters.
    pub fn counters(&self) -> ServiceCounters {
        ServiceCounters {
            submitted: self.submitted.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: &str) -> JobSpec {
        JobSpec::Cell {
            workload: workload.to_string(),
            policy: PolicyKind::DmdcGlobal,
            config: 2,
            scale: Scale::Smoke,
            inval_rate: 0.0,
            sampled: false,
        }
    }

    fn manager(tag: &str, quota: usize) -> (JobManager, PathBuf) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("dmdc-jobs-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        (JobManager::new(&Context::new(), &dir, quota).unwrap(), dir)
    }

    #[test]
    fn spec_json_roundtrip() {
        for s in [
            spec("histo"),
            JobSpec::Cell {
                workload: "synthetic".to_string(),
                policy: PolicyKind::Yla {
                    regs: 8,
                    line_interleaved: true,
                },
                config: 3,
                scale: Scale::Default,
                inval_rate: 2.5,
                sampled: true,
            },
            JobSpec::Experiment {
                id: "fig2".to_string(),
                scale: Scale::Smoke,
            },
        ] {
            let doc = json::parse(&s.to_json()).unwrap();
            assert_eq!(JobSpec::from_json(&doc).unwrap(), s);
        }
    }

    #[test]
    fn submission_validation_rejects_garbage() {
        for bad in [
            r#"{"kind": "cell"}"#,
            r#"{"kind": "cell", "workload": "nope", "policy": "baseline"}"#,
            r#"{"kind": "cell", "workload": "histo", "policy": "bogus"}"#,
            r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "config": 9}"#,
            r#"{"kind": "experiment", "id": "not-an-experiment"}"#,
            r#"{"kind": "mystery"}"#,
        ] {
            let doc = json::parse(bad).unwrap();
            assert!(
                JobSpec::from_json(&doc).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn identical_inflight_submissions_coalesce() {
        let (m, dir) = manager("coalesce", 16);
        let a = m.submit(spec("histo"), 100, "alice").unwrap();
        let SubmitOutcome::Created(id) = a else {
            panic!("first submission creates");
        };
        for _ in 0..3 {
            assert_eq!(
                m.submit(spec("histo"), 100, "bob").unwrap(),
                SubmitOutcome::Coalesced(id.clone())
            );
        }
        // A different spec is a new job.
        assert!(matches!(
            m.submit(spec("saxpy"), 100, "bob").unwrap(),
            SubmitOutcome::Created(_)
        ));
        let c = m.counters();
        assert_eq!((c.submitted, c.coalesced), (2, 3));
        // Completion releases the key: the next identical submission is new.
        m.set_paused(true);
        m.complete(&id, Ok("{}\n".to_string()));
        assert!(matches!(
            m.submit(spec("histo"), 100, "carol").unwrap(),
            SubmitOutcome::Created(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_limits_inflight_jobs_per_client() {
        let (m, dir) = manager("quota", 2);
        assert!(matches!(
            m.submit(spec("histo"), 100, "alice").unwrap(),
            SubmitOutcome::Created(_)
        ));
        assert!(matches!(
            m.submit(spec("saxpy"), 100, "alice").unwrap(),
            SubmitOutcome::Created(_)
        ));
        match m.submit(spec("crc"), 100, "alice").unwrap() {
            SubmitOutcome::OverQuota {
                client,
                active,
                limit,
            } => {
                assert_eq!((client.as_str(), active, limit), ("alice", 2, 2));
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // Another client is unaffected.
        assert!(matches!(
            m.submit(spec("crc"), 100, "bob").unwrap(),
            SubmitOutcome::Created(_)
        ));
        // Completing one of alice's jobs frees a slot. (A fresh spec —
        // `crc` would coalesce onto bob's in-flight job.)
        m.complete("job-1", Ok("{}\n".to_string()));
        assert!(matches!(
            m.submit(spec("mm"), 100, "alice").unwrap(),
            SubmitOutcome::Created(_)
        ));
        assert_eq!(m.counters().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parked_dispatcher_and_result_polls_wake_on_state_changes() {
        // No timer backs these waits: each must end on the notify of the
        // state change it waits for, well inside the 5 s receive bound.
        // The 50 ms receives assert a waiter is still parked (and give it
        // time to park) before the change that should wake it.
        use std::sync::{mpsc, Arc};
        let bound = Duration::from_secs(5);
        let parked = Duration::from_millis(50);
        let (m, dir) = manager("wake", 16);
        let m = Arc::new(m);
        let next_job = || {
            let (tx, rx) = mpsc::channel();
            let m = Arc::clone(&m);
            std::thread::spawn(move || tx.send(m.next_job().map(|(id, _)| id)));
            rx
        };
        m.set_paused(true);
        m.submit(spec("histo"), 100, "c").unwrap(); // job-1
        let next = next_job();
        let finished = {
            let (tx, rx) = mpsc::channel();
            let m = Arc::clone(&m);
            std::thread::spawn(move || tx.send(m.wait_finished("job-1", Duration::from_secs(60))));
            rx
        };
        assert!(next.recv_timeout(parked).is_err());
        m.set_paused(false);
        assert_eq!(next.recv_timeout(bound).unwrap().as_deref(), Some("job-1"));
        assert!(finished.recv_timeout(parked).is_err());
        m.complete("job-1", Ok("{}\n".to_string()));
        assert_eq!(finished.recv_timeout(bound).unwrap(), Some(JobState::Done));

        let next = next_job();
        assert!(next.recv_timeout(parked).is_err());
        m.submit(spec("crc"), 100, "c").unwrap(); // job-2
        assert_eq!(next.recv_timeout(bound).unwrap().as_deref(), Some("job-2"));
        m.complete("job-2", Ok("{}\n".to_string()));

        let next = next_job();
        assert!(next.recv_timeout(parked).is_err());
        m.begin_drain();
        assert_eq!(next.recv_timeout(bound).unwrap(), None);
        assert_eq!(m.wait_finished("job-9", Duration::from_secs(60)), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_jobs_store_error_documents() {
        let (m, dir) = manager("failed", 16);
        m.submit(spec("histo"), 100, "c").unwrap();
        m.complete("job-1", Err("it broke".to_string()));
        let (state, payload) = m.load_result("job-1").unwrap();
        assert_eq!(state, JobState::Failed);
        let doc = json::parse(&payload).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("it broke"));
        assert_eq!(m.state("job-1"), Some(JobState::Failed));
        assert_eq!(m.counters().failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_job_executes_to_report_json() {
        let s = spec("histo");
        let payload = execute(&Context::new(), &s).unwrap();
        let doc = json::parse(&payload).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("cell"));
        let tables = doc.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        let rows = tables[0].get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("histo"));
    }

    /// `dmdc submit --experiment fig2 --scale full` samples in the daemon
    /// exactly as `dmdc experiment fig2 --scale full` does on the CLI.
    #[test]
    fn experiment_jobs_sample_like_the_cli() {
        let exp = experiments::find_experiment("fig2").unwrap();
        for (scale, want) in [
            (Scale::Full, SampleSpec::standard()),
            (Scale::Smoke, SampleSpec::EXACT),
        ] {
            let ctx = experiment_context(&Context::new(), scale);
            let plan = experiments::plan_experiment(&ctx, exp, scale);
            assert!(
                plan.specs().iter().all(|s| s.opts.sampling == want),
                "{scale:?} experiment job planned the wrong sampling mode"
            );
        }
    }
}
