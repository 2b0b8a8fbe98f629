//! Job model, durable queue state and execution for `dmdc serve`.
//!
//! A **job** is one [`Work`] a client submitted over HTTP: a single
//! (workload, policy, config) cell or a whole registry experiment (the
//! daemon refuses the suite kind). Its `spec` is [`Work::to_json`], the
//! document the CLI and the fleet exchange too. Job `job-N` is the Nth
//! submission; its number is its FIFO rank and the key of its files.
//! The [`JobManager`] owns the complete lifecycle:
//!
//! * **submit** — parse and validate the request, account it against the
//!   client's quota, coalesce it onto an identical in-flight job if one
//!   exists (see below), persist a sealed `jobs/<N as 016x>.job`
//!   envelope, and enqueue;
//! * **dispatch** — a worker pops jobs in priority order (FIFO within a
//!   priority) and runs each through [`experiments::execute`], the path
//!   `dmdc suite` and `dmdc experiment` take, under the daemon's
//!   [`Context`], whose cell cache means a cell an earlier job simulated
//!   is read, not re-run;
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
//! [`Work::key`]s — fnv64 over the simulator fingerprint ‖
//! [`Work::to_json`] — are equal. While a job for a key is queued or running,
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

use crate::cache::SealedDir;
use crate::experiments::{self, Work};
use crate::runner::Context;
use crate::service::json;

/// Executes one job under the daemon's `ctx` to its result payload —
/// the exact JSON document the CLI's `--format json` emitters produce for
/// the same work, through the same [`experiments::execute`]. `Err` is a
/// human-readable failure (quarantined cells, unknown ids) that becomes a
/// `failed` job, never a dead daemon.
pub fn execute(ctx: &Context, work: &Work) -> Result<String, String> {
    let report = experiments::execute(ctx, work, None)?;
    if report.has_failures() {
        return Err(format!(
            "{} cell(s) quarantined; report: {}",
            report.failures().len(),
            report.json()
        ));
    }
    Ok(report.json())
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
    spec: Work,
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
    let spec = Work::from_json(doc.get("spec")?).ok()?;
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
    pub fn submit(&self, spec: Work, priority: u8, client: &str) -> Result<SubmitOutcome, String> {
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
    pub fn next_job(&self) -> Option<(String, Work)> {
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

    fn spec(workload: &str) -> Work {
        let body = format!(r#"{{"kind": "cell", "workload": "{workload}", "policy": "dmdc"}}"#);
        Work::from_json(&json::parse(&body).unwrap()).unwrap()
    }

    fn manager(tag: &str, quota: usize) -> (JobManager, PathBuf) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("dmdc-jobs-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        (JobManager::new(&Context::new(), &dir, quota).unwrap(), dir)
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
            assert!(Work::from_json(&doc).is_err(), "`{bad}` must be rejected");
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
}
