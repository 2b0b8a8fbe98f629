//! Distributed suite execution: a lease-based coordinator/worker fleet
//! over the shared content-addressed cell store.
//!
//! The coordinator publishes an experiment's cell list as leases; `dmdc
//! worker --connect <addr>` processes claim them over the PR9 HTTP
//! layer, execute cells through the ordinary [`Engine`], publish results
//! into the shared [`CellCache`], and heartbeat while they work. The
//! design follows the detectable-recoverability discipline the roadmap
//! cites: every operation is idempotent and keyed by durable state (the
//! content-addressed cell key), so a worker dying at any instant costs
//! nothing but a forfeited lease.
//!
//! The protocol, in one screen:
//!
//! * **`GET /plan`** — the plan descriptor (experiment id or suite
//!   parameters), the simulator fingerprint (a mismatched worker refuses
//!   to participate, exactly like `--resume` does) and the shared cache
//!   directory. Workers rebuild the *identical* spec list locally from
//!   the descriptor — specs never travel over the wire.
//! * **`POST /claim`** — a lease `{index, attempt, ttl_ms}`, or `{done}`.
//!   When nothing is claimable the request long-polls on a condvar and
//!   answers `{wait}` only if no cell turns claimable before it times out;
//!   the worker then claims again at once.
//! * **`POST /heartbeat`** — extends the lease; answers `{lost}` once
//!   the lease has expired under the worker.
//! * **`POST /complete`** — reports success (the result is already in
//!   the store; the coordinator *verifies* it loads intact before accepting)
//!   or a structured failure. Completions from expired lease holders are
//!   rejected as stale — double publication into a content-addressed
//!   store is benign, double *accounting* is not.
//!
//! Expired leases (missed heartbeats, kill -9, hangs) are reclaimed and
//! re-issued with bounded retries and exponential backoff; a cell that
//! outlives [`LeaseConfig::poison_after`] distinct dying workers (or the
//! attempt bound) is **poisoned** — quarantined through the PR5 failure
//! table instead of wedging the run. When the whole fleet goes quiet for
//! a grace period the coordinator degrades to local serial execution on
//! its own thread, so the run terminates with zero workers, all workers
//! lost, or anything in between.
//!
//! The final report is assembled by running every cell through
//! [`Engine::try_run_cell`] in spec order — the store, then (for
//! anything the fleet failed to publish) local simulation — so the
//! output is byte-identical to the single-process path by construction:
//! reducers consume the same verified [`CellResult`]s in the same order,
//! wherever they were computed.
//!
//! The coordinator keeps its lease table in memory only. The run's crash
//! record is the cell store: a re-run's pre-sweep marks every cell already
//! in it done before a single lease is issued. Reclaims and poisonings
//! reach the context's recovery counters and stderr.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dmdc_ooo::{SampleSpec, SimOptions};
use dmdc_workloads::{full_suite, Scale};

use crate::cache::{default_fingerprint, workload_digest, CellCache};
use crate::cell::{CellFailure, CellResult, FailureKind};
use crate::experiments::{parse_config, parse_scale, scale_token, Experiment, Plan, PolicyKind};
use crate::recovery::{Recovery, RecoveryKind};
use crate::report::Report;
use crate::runner::{Context, Engine};
use crate::service::http;
use crate::service::json::{self, Json};

/// `eprintln!` in one `write` call. The coordinator and the workers it
/// spawns share one stderr, and `eprintln!` may split a line over several
/// writes, so two processes' lines could interleave mid-line.
macro_rules! log_line {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let line = format!("{}\n", format_args!($($arg)*));
        let _ = std::io::stderr().write_all(line.as_bytes());
    }};
}

/// Configuration for one distributed run.
#[derive(Debug, Clone)]
pub struct DistribOptions {
    /// Coordinator bind address; port 0 picks an ephemeral port (the
    /// bound address is printed to stderr for external workers).
    pub bind: String,
    /// Worker processes the coordinator spawns itself (`dmdc worker
    /// --connect`). External workers can join at the printed address
    /// regardless.
    pub workers: usize,
    /// Lease time-to-live: a lease not heartbeated within this window is
    /// reclaimed and re-issued.
    pub lease_ttl: Duration,
    /// Distinct workers that must die holding a cell's lease before the
    /// cell is poisoned (quarantined as a structured failure).
    pub poison_after: u32,
    /// Fleet-silence grace period after which the coordinator claims
    /// leases itself and executes serially (the all-workers-lost
    /// degradation path).
    pub grace: Duration,
    /// `--inject-faults` spec forwarded verbatim to spawned workers, so
    /// the chaos harness reaches the processes where worker-side faults
    /// (kill-after, dropped heartbeats, stale claims, partial uploads)
    /// actually fire.
    pub worker_faults: Option<String>,
}

impl Default for DistribOptions {
    fn default() -> DistribOptions {
        DistribOptions {
            bind: "127.0.0.1:0".to_string(),
            workers: 0,
            lease_ttl: Duration::from_secs(5),
            poison_after: 3,
            grace: Duration::from_secs(10),
            worker_faults: None,
        }
    }
}

/// How a worker rebuilds the coordinator's exact cell list without specs
/// ever crossing the wire: both ends run the same binary (enforced by
/// the fingerprint check), so planning is deterministic from this small
/// descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDescriptor {
    /// A registry experiment at a scale.
    Experiment {
        /// Registry id (`fig2`, `table6`, ...).
        id: String,
        /// Workload scale.
        scale: Scale,
        /// Whether the coordinator's context samples.
        sampled: bool,
    },
    /// The `dmdc suite` matrix: every workload under one policy/config.
    Suite {
        /// Dependence-checking policy.
        policy: PolicyKind,
        /// Machine configuration (1, 2 or 3).
        config: u8,
        /// Workload scale.
        scale: Scale,
        /// Whether the coordinator's context samples.
        sampled: bool,
    },
}

impl PlanDescriptor {
    /// Serializes the descriptor for `GET /plan`.
    pub fn to_json(&self) -> String {
        match self {
            PlanDescriptor::Experiment { id, scale, sampled } => format!(
                "{{\"kind\": \"experiment\", \"id\": \"{}\", \"scale\": \"{}\", \
                 \"sampled\": {sampled}}}",
                json::escape(id),
                scale_token(*scale)
            ),
            PlanDescriptor::Suite {
                policy,
                config,
                scale,
                sampled,
            } => format!(
                "{{\"kind\": \"suite\", \"policy\": \"{}\", \"config\": {config}, \
                 \"scale\": \"{}\", \"sampled\": {sampled}}}",
                json::escape(&policy.token()),
                scale_token(*scale)
            ),
        }
    }

    /// Parses a descriptor back from the `GET /plan` document.
    pub fn from_json(doc: &Json) -> Result<PlanDescriptor, String> {
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("plan descriptor has no `kind`")?;
        let scale = parse_scale(
            doc.get("scale")
                .and_then(Json::as_str)
                .ok_or("plan descriptor has no `scale`")?,
        )?;
        let sampled = doc
            .get("sampled")
            .and_then(Json::as_bool)
            .ok_or("plan descriptor has no `sampled`")?;
        match kind {
            "experiment" => Ok(PlanDescriptor::Experiment {
                id: doc
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("experiment descriptor has no `id`")?
                    .to_string(),
                scale,
                sampled,
            }),
            "suite" => {
                let policy = PolicyKind::parse_token(
                    doc.get("policy")
                        .and_then(Json::as_str)
                        .ok_or("suite descriptor has no `policy`")?,
                )?;
                let config = match doc.get("config").and_then(Json::as_u64) {
                    Some(c @ 1..=3) => c as u8,
                    _ => return Err("suite descriptor `config` must be 1, 2 or 3".to_string()),
                };
                Ok(PlanDescriptor::Suite {
                    policy,
                    config,
                    scale,
                    sampled,
                })
            }
            other => Err(format!("unknown plan descriptor kind `{other}`")),
        }
    }

    /// Rebuilds the cell matrix this descriptor names, with its sampling
    /// mode applied to every variant. Deterministic: coordinator and
    /// workers get byte-identical spec lists.
    pub fn plan(&self) -> Result<Plan, String> {
        let plan = match self {
            PlanDescriptor::Experiment { id, scale, .. } => crate::experiments::find_experiment(id)
                .ok_or_else(|| format!("unknown experiment `{id}`"))?
                .plan(*scale),
            PlanDescriptor::Suite {
                policy,
                config,
                scale,
                ..
            } => {
                let config = parse_config(&config.to_string())?;
                let variants = vec![(config, policy.clone(), SimOptions::default())];
                Plan::matrix(full_suite(*scale), variants)
            }
        };
        let (PlanDescriptor::Experiment { sampled, .. } | PlanDescriptor::Suite { sampled, .. }) =
            self;
        let spec = if *sampled {
            SampleSpec::standard()
        } else {
            SampleSpec::EXACT
        };
        Ok(plan.sampled(spec))
    }
}

/// Lease bounds: TTL, poison threshold, and the absolute re-issue cap.
#[derive(Debug, Clone, Copy)]
pub struct LeaseConfig {
    /// Milliseconds a lease lives without a heartbeat.
    pub ttl_ms: u64,
    /// Distinct dying workers that poison a cell.
    pub poison_after: u32,
    /// Absolute bound on issues of one cell's lease (backstop against a
    /// single pathological worker re-claiming forever).
    pub max_attempts: u32,
}

impl Default for LeaseConfig {
    fn default() -> LeaseConfig {
        LeaseConfig {
            ttl_ms: 5_000,
            poison_after: 3,
            max_attempts: 8,
        }
    }
}

/// One cell's position in the lease lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellState {
    /// Claimable once the backoff deadline passes.
    Ready {
        /// Issues so far (0 = never leased).
        attempt: u32,
        /// Logical-clock ms before which the cell is not re-issued
        /// (exponential backoff after a reclaim).
        eligible_at: u64,
    },
    /// Held by a worker until `expires_at` (extended by heartbeats).
    Leased {
        /// The holder.
        worker: String,
        /// Which issue of this cell's lease this is.
        attempt: u32,
        /// Logical-clock ms at which the lease is forfeit.
        expires_at: u64,
    },
    /// Verified result in the store. Terminal.
    Done,
    /// A worker reported a structured [`CellFailure`] (the cell
    /// exhausted its retries *inside* a healthy worker). Terminal.
    Failed,
    /// Too many distinct workers died holding this cell (or the attempt
    /// bound hit); quarantined. Terminal.
    Poisoned,
}

impl CellState {
    fn terminal(&self) -> bool {
        matches!(
            self,
            CellState::Done | CellState::Failed | CellState::Poisoned
        )
    }
}

/// The answer to one claim request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Claim {
    /// A lease on cell `index`.
    Lease {
        /// Spec index of the claimed cell.
        index: usize,
        /// Which issue of the lease this is (1-based).
        attempt: u32,
        /// Lease TTL the worker must heartbeat within.
        ttl_ms: u64,
    },
    /// Nothing claimable right now; retry after this many ms.
    Wait {
        /// How long to wait before claiming again; the coordinator
        /// long-polls for up to this long before answering `{wait}`.
        retry_ms: u64,
    },
    /// Every cell is terminal; the worker can exit.
    Done,
}

/// One reclaimed lease, reported by [`LeaseTable::expire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reclaim {
    /// Spec index of the cell.
    pub index: usize,
    /// The worker that lost the lease.
    pub worker: String,
    /// The lease issue that expired.
    pub attempt: u32,
    /// Whether this reclaim poisoned the cell.
    pub poisoned: bool,
}

/// The lease lifecycle as a pure state machine over an injected logical
/// clock (milliseconds). All policy — TTLs, backoff, poisoning — lives
/// here, socket-free, so the property tests can drive arbitrary
/// interleavings of claim/heartbeat/expire/complete deterministically.
#[derive(Debug)]
pub struct LeaseTable {
    cells: Vec<CellState>,
    /// Distinct workers that died holding each cell's lease.
    lost: Vec<Vec<String>>,
    /// Accepted completions per cell — the double-publish guard the
    /// property tests assert never exceeds one.
    completions: Vec<u32>,
    cfg: LeaseConfig,
}

impl LeaseTable {
    /// A table over `n` cells, all immediately claimable.
    pub fn new(n: usize, cfg: LeaseConfig) -> LeaseTable {
        LeaseTable {
            cells: vec![
                CellState::Ready {
                    attempt: 0,
                    eligible_at: 0
                };
                n
            ],
            lost: vec![Vec::new(); n],
            completions: vec![0; n],
            cfg,
        }
    }

    /// The state of cell `index`.
    pub fn state(&self, index: usize) -> &CellState {
        &self.cells[index]
    }

    /// Marks a cell terminal-done without leasing (the pre-sweep for
    /// cells already in the store).
    pub fn mark_done(&mut self, index: usize) {
        if !self.cells[index].terminal() {
            self.cells[index] = CellState::Done;
        }
    }

    /// Whether every cell is terminal.
    pub fn all_terminal(&self) -> bool {
        self.cells.iter().all(CellState::terminal)
    }

    /// Count of cells not yet terminal.
    pub fn outstanding(&self) -> usize {
        self.cells.iter().filter(|c| !c.terminal()).count()
    }

    /// Issues the lowest-indexed claimable lease to `worker`, or says
    /// when to retry, or that the run is over.
    pub fn claim(&mut self, worker: &str, now: u64) -> Claim {
        if self.all_terminal() {
            return Claim::Done;
        }
        let mut next_eligible: Option<u64> = None;
        for i in 0..self.cells.len() {
            if let CellState::Ready {
                attempt,
                eligible_at,
            } = self.cells[i]
            {
                if eligible_at <= now {
                    let attempt = attempt + 1;
                    self.cells[i] = CellState::Leased {
                        worker: worker.to_string(),
                        attempt,
                        expires_at: now + self.cfg.ttl_ms,
                    };
                    return Claim::Lease {
                        index: i,
                        attempt,
                        ttl_ms: self.cfg.ttl_ms,
                    };
                }
                next_eligible = Some(next_eligible.map_or(eligible_at, |e| e.min(eligible_at)));
            }
        }
        // Everything live is leased out (or backing off): poll again in
        // half a TTL, or as soon as the nearest backoff expires.
        let retry = next_eligible
            .map(|e| e.saturating_sub(now))
            .unwrap_or(self.cfg.ttl_ms / 2)
            .clamp(25, self.cfg.ttl_ms.max(50) / 2);
        Claim::Wait { retry_ms: retry }
    }

    /// Extends `worker`'s lease on `index`. `false` means the lease is
    /// no longer theirs (expired and possibly re-issued) — the worker
    /// may keep computing (publication is idempotent) but its completion
    /// will be rejected.
    pub fn heartbeat(&mut self, worker: &str, index: usize, now: u64) -> bool {
        match &mut self.cells[index] {
            CellState::Leased {
                worker: holder,
                expires_at,
                ..
            } if holder == worker => {
                *expires_at = now + self.cfg.ttl_ms;
                true
            }
            _ => false,
        }
    }

    /// Accepts `worker`'s completion of `index` iff it still holds the
    /// lease; a stale completion (expired, re-issued, or already done)
    /// is rejected. The result itself is already in the content-
    /// addressed store either way — rejecting here keeps the accounting
    /// single-writer.
    pub fn complete(&mut self, worker: &str, index: usize) -> bool {
        match &self.cells[index] {
            CellState::Leased { worker: holder, .. } if holder == worker => {
                self.cells[index] = CellState::Done;
                self.completions[index] += 1;
                true
            }
            _ => false,
        }
    }

    /// Records a structured failure from `worker` for `index` (the cell
    /// quarantined *inside* the worker after its own retry budget). Only
    /// the current lease holder may fail a cell.
    pub fn record_failure(&mut self, worker: &str, index: usize) -> bool {
        match &self.cells[index] {
            CellState::Leased { worker: holder, .. } if holder == worker => {
                self.cells[index] = CellState::Failed;
                true
            }
            _ => false,
        }
    }

    /// Takes the lease back from `worker` because its published result
    /// failed verification (a partial upload): the cell returns to the
    /// pool with backoff, but nobody *died*, so it does not count toward
    /// poisoning (the attempt bound still applies).
    pub fn fail_publish(&mut self, worker: &str, index: usize, now: u64) -> bool {
        match &self.cells[index] {
            CellState::Leased {
                worker: holder,
                attempt,
                ..
            } if holder == worker => {
                let attempt = *attempt;
                self.reissue(index, attempt, now);
                true
            }
            _ => false,
        }
    }

    /// Reclaims every expired lease, recording the lost worker and
    /// poisoning cells that have now killed `poison_after` distinct
    /// workers (or hit the attempt bound).
    pub fn expire(&mut self, now: u64) -> Vec<Reclaim> {
        let mut out = Vec::new();
        for i in 0..self.cells.len() {
            let (worker, attempt) = match &self.cells[i] {
                CellState::Leased {
                    worker,
                    attempt,
                    expires_at,
                } if *expires_at <= now => (worker.clone(), *attempt),
                _ => continue,
            };
            if !self.lost[i].contains(&worker) {
                self.lost[i].push(worker.clone());
            }
            self.reissue(i, attempt, now);
            out.push(Reclaim {
                index: i,
                worker,
                attempt,
                poisoned: self.cells[i] == CellState::Poisoned,
            });
        }
        out
    }

    /// Returns a cell to the pool after attempt `attempt`, with
    /// exponential backoff — or poisons it when the bounds are hit.
    fn reissue(&mut self, index: usize, attempt: u32, now: u64) {
        if self.lost[index].len() as u32 >= self.cfg.poison_after
            || attempt >= self.cfg.max_attempts
        {
            self.cells[index] = CellState::Poisoned;
            return;
        }
        // 50 ms doubling per re-issue, capped at 800 ms: long enough to
        // let a transiently sick store settle, short enough to not
        // matter against simulation times.
        let backoff = 50u64 << attempt.saturating_sub(1).min(4);
        self.cells[index] = CellState::Ready {
            attempt,
            eligible_at: now + backoff,
        };
    }

    /// The distinct workers that died holding cell `index`.
    pub fn lost_workers(&self, index: usize) -> &[String] {
        &self.lost[index]
    }

    /// Accepted completions of cell `index` (the property tests assert
    /// this never exceeds 1).
    pub fn completions(&self, index: usize) -> u32 {
        self.completions[index]
    }
}

/// The longest gap between two lease sweeps of the supervision loop; it
/// bounds recovery latency at TTL + `SWEEP`.
const SWEEP: Duration = Duration::from_millis(25);

/// The longest a claim long-polls before answering `{wait}`: well inside
/// the 120 s read timeout of the HTTP client workers speak through, so a
/// huge `--lease-ttl` cannot turn a parked claim into a worker error.
const LONG_POLL_MAX: Duration = Duration::from_secs(60);

/// Per-cell metadata the coordinator needs at the protocol layer.
struct CellMeta {
    key: u64,
    workload: String,
    desc: String,
}

/// Shared coordinator state: the lease table, the store handle, and the
/// pieces of the `GET /plan` document.
struct Coord {
    table: Mutex<LeaseTable>,
    /// Signalled (always `notify_all`) after every table change that can
    /// alter a claim's answer — a completion, a failure, a reissue, a
    /// reclaim — and at shutdown. Long-polling claims and the supervision
    /// loop wait on it.
    changed: Condvar,
    meta: Vec<CellMeta>,
    cache: Arc<CellCache>,
    plan_doc: String,
    /// Worker-reported structured failures, index-aligned with specs.
    failures: Mutex<Vec<Option<CellFailure>>>,
    /// Last time any worker claimed/heartbeat/completed — the fleet
    /// liveness signal the degradation ladder watches.
    activity: Mutex<Instant>,
    start: Instant,
    /// The run context's recovery counters.
    recovery: Arc<Recovery>,
    /// Set (under the table lock) when the run is over.
    done: AtomicBool,
}

impl Coord {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn lock(&self) -> MutexGuard<'_, LeaseTable> {
        self.table.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Releases `table` until a notify or `timeout`, then retakes it.
    fn wait<'a>(
        &self,
        table: MutexGuard<'a, LeaseTable>,
        timeout: Duration,
    ) -> MutexGuard<'a, LeaseTable> {
        self.changed
            .wait_timeout(table, timeout)
            .unwrap_or_else(|p| p.into_inner())
            .0
    }

    /// Ends the run: sets `done` under the table lock, so a claim that
    /// has just checked it cannot miss the notify, and wakes every waiter.
    fn finish(&self) {
        let table = self.lock();
        self.done.store(true, Ordering::SeqCst);
        drop(table);
        self.changed.notify_all();
    }

    fn touch(&self) {
        *self.activity.lock().unwrap_or_else(|p| p.into_inner()) = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        self.activity
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .elapsed()
    }
}

/// Maps a [`FailureKind::label`] back to the kind (the complete wire
/// carries labels).
fn parse_failure_kind(label: &str) -> FailureKind {
    match label {
        "timeout" => FailureKind::Timeout,
        "sim-error" => FailureKind::SimError,
        "oracle-must-halt" => FailureKind::OracleMustHalt,
        "state-divergence" => FailureKind::StateDivergence,
        "audit-violation" => FailureKind::Audit,
        _ => FailureKind::Panic,
    }
}

/// Executes a plan across a worker fleet and returns `(cells, failures)`
/// in exactly the shape of [`Engine::run_all_recovered`], so suite and
/// experiment reducers downstream cannot tell the two paths apart. The
/// fleet publishes into `ctx`'s cell cache; reclaims and poisonings count
/// in `ctx`'s recovery counters.
pub fn execute_plan_distributed(
    ctx: &Context,
    desc: &PlanDescriptor,
    opts: &DistribOptions,
) -> Result<(Vec<Option<CellResult>>, Vec<CellFailure>), String> {
    let cache = ctx
        .cache()
        .cloned()
        .ok_or("distributed execution publishes through the cell cache (drop --no-cache)")?;
    let plan = desc.plan()?;
    let specs = plan.specs();
    let engine = Engine::new(ctx, &plan.workloads);

    // The shared store's location travels as an absolute path: workers
    // may run from any directory on the shared filesystem.
    std::fs::create_dir_all(cache.dir())
        .map_err(|e| format!("cannot create cache dir {}: {e}", cache.dir().display()))?;
    let cache_dir = std::fs::canonicalize(cache.dir())
        .map_err(|e| format!("cannot resolve cache dir {}: {e}", cache.dir().display()))?;

    let cfg = LeaseConfig {
        ttl_ms: opts.lease_ttl.as_millis().max(50) as u64,
        poison_after: opts.poison_after.max(1),
        ..LeaseConfig::default()
    };
    let mut table = LeaseTable::new(specs.len(), cfg);

    // Metadata + pre-sweep: cells already in the store are done before a
    // single lease is issued.
    let mut meta = Vec::with_capacity(specs.len());
    let mut digests: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let digest = *digests
            .entry(spec.workload)
            .or_insert_with(|| workload_digest(&plan.workloads[spec.workload]));
        let desc_s = spec.desc();
        let key = cache.key(digest, &desc_s);
        let workload = plan.workloads[spec.workload].name.to_string();
        if cache.load(key, &workload).is_some() {
            table.mark_done(i);
        }
        meta.push(CellMeta {
            key,
            workload,
            desc: desc_s,
        });
    }

    let plan_doc = format!(
        "{{\"fingerprint\": \"{}\", \"cache_dir\": \"{}\", \"cells\": {}, \"plan\": {}}}\n",
        json::escape(&default_fingerprint()),
        json::escape(&cache_dir.display().to_string()),
        specs.len(),
        desc.to_json().trim_end()
    );

    let listener =
        std::net::TcpListener::bind(&opts.bind).map_err(|e| format!("{}: {e}", opts.bind))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    log_line!(
        "[distrib] coordinator listening on {addr} ({} cells, {} already in store)",
        specs.len(),
        specs.len() - table.outstanding()
    );

    let coord = Arc::new(Coord {
        table: Mutex::new(table),
        changed: Condvar::new(),
        meta,
        cache: Arc::clone(&cache),
        plan_doc,
        failures: Mutex::new(vec![None; specs.len()]),
        activity: Mutex::new(Instant::now()),
        start: Instant::now(),
        recovery: Arc::clone(&ctx.recovery),
        done: AtomicBool::new(false),
    });

    // The protocol thread: a blocking accept loop. Connections are handled
    // on their own threads so one slow worker cannot delay another's
    // heartbeat, and a long-polling claim parks only its own thread.
    let listener_thread = {
        let coord = Arc::clone(&coord);
        std::thread::spawn(move || {
            let serving = Arc::clone(&coord);
            let (handlers, _) = http::accept_loop(
                &listener,
                || coord.done.load(Ordering::SeqCst),
                Duration::from_secs(10),
                move |request| route(request, &serving),
            );
            for h in handlers {
                let _ = h.join();
            }
        })
    };

    // Spawn the local fleet — unless the pre-sweep already satisfied
    // every cell, in which case there is nothing to shard.
    // Each worker's stdout is a pipe drained on its own thread; the pipe
    // closing (the worker exiting) is announced on `exits`.
    let outstanding = coord.lock().outstanding();
    let mut children = Vec::new();
    let mut drains = Vec::new();
    let (exited, exits) = mpsc::channel();
    if outstanding > 0 {
        for i in 0..opts.workers {
            match spawn_worker(&addr.to_string(), &format!("w{i}"), opts) {
                Ok(mut child) => {
                    if let Some(mut stdout) = child.stdout.take() {
                        let exited = exited.clone();
                        drains.push(std::thread::spawn(move || {
                            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
                            let _ = exited.send(());
                        }));
                    }
                    children.push(child);
                }
                Err(e) => log_line!("[distrib] could not spawn worker w{i}: {e}"),
            }
        }
    }
    drop(exited);

    // The supervision loop: reclaim expired leases, and when the fleet
    // goes quiet past the grace period, execute cells locally — the
    // degradation ladder's bottom rung, which also serves the
    // zero-worker case. Between sweeps it waits on the condvar, so it
    // sweeps at least every `SWEEP` and ends the moment the last cell
    // turns terminal.
    loop {
        let mut table = coord.lock();
        let reclaims = table.expire(coord.now_ms());
        if !reclaims.is_empty() {
            coord.changed.notify_all();
        }
        let finished = table.all_terminal();
        drop(table);
        for r in &reclaims {
            let m = &coord.meta[r.index];
            if r.poisoned {
                ctx.recovery.record(RecoveryKind::CellPoisoned);
                log_line!(
                    "[distrib] cell {} ({}) poisoned after worker {} died (attempt {})",
                    r.index,
                    m.workload,
                    r.worker,
                    r.attempt
                );
            } else {
                ctx.recovery.record(RecoveryKind::LeaseReclaimed);
                log_line!(
                    "[distrib] reclaimed cell {} ({}) from worker {} (attempt {})",
                    r.index,
                    m.workload,
                    r.worker,
                    r.attempt
                );
            }
        }
        if finished {
            break;
        }

        // Reap any dead children so their loss is visible promptly.
        children.retain_mut(|c| match c.try_wait() {
            Ok(Some(status)) => {
                if !status.success() {
                    log_line!("[distrib] worker exited with {status}");
                }
                false
            }
            _ => true,
        });

        if coord.idle_for() >= opts.grace {
            // Nobody out there is making progress: claim and execute one
            // cell locally, then sweep again at once.
            let claim = coord.lock().claim("coordinator", coord.now_ms());
            if let Claim::Lease { index, .. } = claim {
                let m = &coord.meta[index];
                log_line!(
                    "[distrib] fleet quiet for {:?}; running cell {index} ({}) locally",
                    opts.grace,
                    m.workload
                );
                let outcome = engine.try_run_cell(&specs[index]);
                let mut table = coord.lock();
                match outcome {
                    Ok(_) => {
                        table.complete("coordinator", index);
                    }
                    Err(f) => {
                        if table.record_failure("coordinator", index) {
                            coord.failures.lock().unwrap_or_else(|p| p.into_inner())[index] =
                                Some(f);
                        }
                    }
                }
                coord.changed.notify_all();
                continue;
            }
        }

        let table = coord.lock();
        if !table.all_terminal() {
            drop(coord.wait(table, SWEEP));
        }
    }

    // Reap the fleet while the listener still answers: every claim now
    // answers `{done}`, including a late worker's first, so each live
    // worker exits on its own and its stdout pipe closes. Only a wedged
    // worker still holds its pipe after `LONG_POLL_MAX`, and only that
    // one is killed.
    let deadline = Instant::now() + LONG_POLL_MAX;
    let all_closed = loop {
        match exits.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(()) => {}
            Err(RecvTimeoutError::Disconnected) => break true,
            Err(RecvTimeoutError::Timeout) => break false,
        }
    };
    for mut child in children {
        if !all_closed && matches!(child.try_wait(), Ok(None)) {
            log_line!(
                "[distrib] worker pid {} still running {LONG_POLL_MAX:?} after the run ended; killing it",
                child.id()
            );
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    for drain in drains {
        let _ = drain.join();
    }
    // Stop the protocol thread: release every handler parked in a long
    // poll (each answers `{done}`), then wake the blocking accept with
    // one connection of our own.
    coord.finish();
    let _ = std::net::TcpStream::connect_timeout(&http::wake_addr(addr), Duration::from_secs(1));
    let _ = listener_thread.join();

    // Assembly: every cell goes back through the engine in spec order —
    // the store the fleet published into, then (for poisoned/evicted
    // cells) local simulation. Structured failures the
    // workers reported stand in for their cells, exactly as the
    // single-process quarantine path would have produced them.
    let table = coord.lock();
    let worker_failures = coord.failures.lock().unwrap_or_else(|p| p.into_inner());
    let mut cells: Vec<Option<CellResult>> = Vec::with_capacity(specs.len());
    let mut failures: Vec<CellFailure> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        match table.state(i) {
            CellState::Poisoned => {
                let m = &coord.meta[i];
                let lost = table.lost_workers(i);
                failures.push(CellFailure {
                    workload: m.workload.clone(),
                    spec: m.desc.clone(),
                    kind: FailureKind::Panic,
                    detail: format!(
                        "cell poisoned: {} distinct worker(s) died holding its lease ({})",
                        lost.len(),
                        lost.join(", ")
                    ),
                    attempts: lost.len() as u32,
                });
                cells.push(None);
            }
            CellState::Failed => {
                let f = worker_failures[i].clone().unwrap_or_else(|| CellFailure {
                    workload: coord.meta[i].workload.clone(),
                    spec: coord.meta[i].desc.clone(),
                    kind: FailureKind::Panic,
                    detail: "worker reported a failure without detail".to_string(),
                    attempts: 1,
                });
                failures.push(f);
                cells.push(None);
            }
            _ => match engine.try_run_cell(spec) {
                Ok(cell) => cells.push(Some(cell)),
                Err(f) => {
                    failures.push(f);
                    cells.push(None);
                }
            },
        }
    }
    let recovered = ctx.recovery();
    log_line!(
        "[distrib] run complete: {} cells, {} failures, {} reclaims, {} poisoned",
        specs.len(),
        failures.len(),
        recovered.leases_reclaimed,
        recovered.cells_poisoned,
    );
    Ok((cells, failures))
}

/// Runs one registry experiment across a worker fleet: the distributed
/// twin of [`crate::experiments::run_experiment`], producing the
/// byte-identical [`Report`].
pub fn run_experiment_distributed(
    ctx: &Context,
    exp: &dyn Experiment,
    scale: Scale,
    opts: &DistribOptions,
) -> Result<Report, String> {
    let desc = PlanDescriptor::Experiment {
        id: exp.id().to_string(),
        scale,
        sampled: ctx.sampling().enabled(),
    };
    let (cells, failures) = execute_plan_distributed(ctx, &desc, opts)?;
    Ok(crate::experiments::report_of(exp, cells, failures))
}

/// Spawns one `dmdc worker --connect` child, stderr shared. Its stdout
/// is a pipe the coordinator drains and discards (stdout belongs to the
/// coordinator's report); the pipe closing is how the reap sees the
/// worker exit.
fn spawn_worker(
    addr: &str,
    id: &str,
    opts: &DistribOptions,
) -> Result<std::process::Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("worker")
        .arg("--connect")
        .arg(addr)
        .arg("--id")
        .arg(id)
        .stdout(std::process::Stdio::piped());
    if let Some(spec) = &opts.worker_faults {
        cmd.arg("--inject-faults").arg(spec);
    }
    cmd.spawn().map_err(|e| e.to_string())
}

/// Routes one coordinator request to its `(status, body)`.
fn route(request: &http::Request, coord: &Coord) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/plan") => (200, coord.plan_doc.clone()),
        ("POST", "/claim") => handle_claim(&request.body, coord),
        ("POST", "/heartbeat") => handle_heartbeat(&request.body, coord),
        ("POST", "/complete") => handle_complete(&request.body, coord),
        (method, path) => (
            404,
            format!(
                "{{\"error\": \"no route for {} {}\"}}\n",
                json::escape(method),
                json::escape(path)
            ),
        ),
    }
}

/// Parses `worker` (and optionally `index`) out of a protocol body.
fn parse_actor(body: &str) -> Result<(String, Option<usize>), String> {
    let doc = json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let worker = doc
        .get("worker")
        .and_then(Json::as_str)
        .filter(|w| !w.is_empty())
        .ok_or("`worker` must be a non-empty string")?
        .to_string();
    let index = doc.get("index").and_then(Json::as_u64).map(|i| i as usize);
    Ok((worker, index))
}

/// Answers a claim. When nothing is claimable the request long-polls:
/// it waits on the condvar for up to the table's `retry_ms` (capped at
/// [`LONG_POLL_MAX`]) and re-claims on every notify, so a worker learns of
/// a freed cell, a reclaim or the end of the run the moment it happens.
/// `{wait}` goes out only when the whole wait times out.
fn handle_claim(body: &str, coord: &Coord) -> (u16, String) {
    let (worker, _) = match parse_actor(body) {
        Ok(a) => a,
        Err(e) => return (400, http::error_body(&e)),
    };
    coord.touch();
    let mut deadline: Option<Instant> = None;
    let mut table = coord.lock();
    let claim = loop {
        if coord.done.load(Ordering::SeqCst) {
            break Claim::Done;
        }
        let claim = table.claim(&worker, coord.now_ms());
        let Claim::Wait { retry_ms } = claim else {
            break claim;
        };
        let retry = Duration::from_millis(retry_ms);
        let deadline = *deadline.get_or_insert_with(|| Instant::now() + retry.min(LONG_POLL_MAX));
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break claim;
        }
        table = coord.wait(table, left.min(retry));
    };
    match claim {
        Claim::Lease {
            index,
            attempt,
            ttl_ms,
        } => (
            200,
            format!(
                "{{\"lease\": {{\"index\": {index}, \"attempt\": {attempt}, \
                 \"ttl_ms\": {ttl_ms}}}}}\n"
            ),
        ),
        Claim::Wait { retry_ms } => (200, format!("{{\"wait\": {retry_ms}}}\n")),
        Claim::Done => (200, "{\"done\": true}\n".to_string()),
    }
}

fn handle_heartbeat(body: &str, coord: &Coord) -> (u16, String) {
    let (worker, index) = match parse_actor(body) {
        Ok(a) => a,
        Err(e) => return (400, http::error_body(&e)),
    };
    let Some(index) = index.filter(|i| *i < coord.meta.len()) else {
        return (400, "{\"error\": \"`index` out of range\"}\n".to_string());
    };
    coord.touch();
    let now = coord.now_ms();
    let alive = coord.lock().heartbeat(&worker, index, now);
    if alive {
        (200, "{\"ok\": true}\n".to_string())
    } else {
        (200, "{\"lost\": true}\n".to_string())
    }
}

fn handle_complete(body: &str, coord: &Coord) -> (u16, String) {
    let doc = match json::parse(body) {
        Ok(d) => d,
        Err(e) => {
            return (
                400,
                format!("{{\"error\": \"bad JSON: {}\"}}\n", json::escape(&e)),
            )
        }
    };
    let (worker, index) = match parse_actor(body) {
        Ok(a) => a,
        Err(e) => return (400, http::error_body(&e)),
    };
    let Some(index) = index.filter(|i| *i < coord.meta.len()) else {
        return (400, "{\"error\": \"`index` out of range\"}\n".to_string());
    };
    let ok = doc.get("ok").and_then(Json::as_bool).unwrap_or(false);
    coord.touch();
    let now = coord.now_ms();
    let m = &coord.meta[index];

    // Trust nothing: a reported success must actually load intact from
    // the shared store before the lease is retired. A partial upload reads as
    // a missing/corrupt entry and re-issues the lease. The store is read
    // before the table lock is taken.
    let verified = ok && coord.cache.load(m.key, &m.workload).is_some();
    let mut table = coord.lock();
    let (accepted, reissued) = if verified {
        (table.complete(&worker, index), false)
    } else if ok {
        (false, table.fail_publish(&worker, index, now))
    } else {
        let failure = CellFailure {
            workload: m.workload.clone(),
            spec: m.desc.clone(),
            kind: parse_failure_kind(doc.get("kind").and_then(Json::as_str).unwrap_or("panic")),
            detail: doc
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("worker reported a failure without detail")
                .to_string(),
            attempts: doc.get("attempts").and_then(Json::as_u64).unwrap_or(1) as u32,
        };
        let recorded = table.record_failure(&worker, index);
        if recorded {
            coord.failures.lock().unwrap_or_else(|p| p.into_inner())[index] = Some(failure);
        }
        (recorded, false)
    };
    coord.changed.notify_all();
    drop(table);
    if reissued {
        coord.recovery.record(RecoveryKind::LeaseReclaimed);
        log_line!(
            "[distrib] cell {index} ({}): result from {worker} failed \
             verification; lease re-issued",
            m.workload
        );
    }
    (200, format!("{{\"accepted\": {accepted}}}\n"))
}

/// How long a worker waits for the coordinator before giving up — both
/// at startup (the coordinator may still be binding) and mid-run (it may
/// be briefly saturated).
const WORKER_MAX_WAIT: Duration = Duration::from_secs(20);

/// The `dmdc worker --connect <addr>` loop: fetch the plan, verify the
/// fingerprint, rebuild the spec list, then claim → execute → publish →
/// complete until the coordinator says `{done}`. Heartbeats run on a
/// side thread at a third of the lease TTL. Every cell executes through
/// the ordinary [`Engine`] under `ctx` (its retries, watchdog and fault
/// plan) against the shared store, so a worker's results are
/// bit-identical to anyone else's.
pub fn run_worker(ctx: &Context, addr: &str, id: &str) -> Result<(), String> {
    let (status, body) = http::request_with_retry(addr, "GET", "/plan", None, WORKER_MAX_WAIT)?;
    if status != 200 {
        return Err(format!("coordinator {addr} returned {status} for /plan"));
    }
    let doc = json::parse(&body).map_err(|e| format!("bad /plan document: {e}"))?;
    let fingerprint = doc
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("/plan document has no fingerprint")?;
    let ours = default_fingerprint();
    if fingerprint != ours {
        return Err(format!(
            "coordinator runs simulator fingerprint '{fingerprint}' but this \
             binary is '{ours}'; refusing to publish mismatched results"
        ));
    }
    let cache_dir = doc
        .get("cache_dir")
        .and_then(Json::as_str)
        .ok_or("/plan document has no cache_dir")?;
    let desc = PlanDescriptor::from_json(doc.get("plan").ok_or("/plan document has no plan")?)?;
    // The descriptor carries the sampling mode into every spec.
    let plan = desc.plan()?;
    let specs = plan.specs();
    let ctx = ctx.clone().with_store(Path::new(cache_dir));
    let engine = Engine::new(&ctx, &plan.workloads);
    log_line!(
        "[worker {id}] joined {addr}: {} cells, store at {cache_dir}",
        specs.len()
    );

    loop {
        let claim_body = format!("{{\"worker\": \"{}\"}}", json::escape(id));
        let (status, reply) =
            http::request_with_retry(addr, "POST", "/claim", Some(&claim_body), WORKER_MAX_WAIT)?;
        if status != 200 {
            return Err(format!("coordinator {addr} returned {status} for /claim"));
        }
        let doc = json::parse(&reply).map_err(|e| format!("bad /claim reply: {e}"))?;
        if doc.get("done").and_then(Json::as_bool) == Some(true) {
            log_line!("[worker {id}] coordinator reports done; exiting");
            return Ok(());
        }
        // The coordinator already long-polled before answering `{wait}`:
        // claim again at once.
        if doc.get("wait").is_some() {
            continue;
        }
        let lease = doc.get("lease").ok_or("claim reply has no lease")?;
        let index = lease
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("lease has no index")? as usize;
        let ttl_ms = lease.get("ttl_ms").and_then(Json::as_u64).unwrap_or(5_000);
        if index >= specs.len() {
            return Err(format!("lease index {index} out of range"));
        }

        // Chaos: a stale-claim worker sits on its first lease past the
        // TTL before doing any work, so the cell is re-issued while this
        // worker still intends to finish it.
        if let Some(ms) = ctx.faults.as_ref().and_then(|f| f.take_stale_claim_ms()) {
            log_line!("[worker {id}] injected stale-claim: sleeping {ms} ms on cell {index}");
            std::thread::sleep(Duration::from_millis(ms));
        }

        // Heartbeat thread: every ttl/3 until the cell is finished (or
        // the chaos plan silences it). Dropping `stop` ends it at once.
        let (stop, stopped) = mpsc::channel::<()>();
        let hb = {
            let addr = addr.to_string();
            let id = id.to_string();
            let silent = ctx.faults.as_ref().is_some_and(|f| f.drop_heartbeats);
            std::thread::spawn(move || {
                if silent {
                    return;
                }
                let interval = Duration::from_millis((ttl_ms / 3).max(25));
                let body = format!(
                    "{{\"worker\": \"{}\", \"index\": {index}}}",
                    json::escape(&id)
                );
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    match http::request(&addr, "POST", "/heartbeat", Some(&body)) {
                        Ok((200, reply)) if reply.contains("\"lost\"") => {
                            log_line!(
                                "[worker {id}] lease on cell {index} expired under us; \
                                 finishing anyway (publication is idempotent)"
                            );
                            return;
                        }
                        Ok(_) => {}
                        Err(_) => return,
                    }
                }
            })
        };

        let outcome = engine.try_run_cell(&specs[index]);
        drop(stop);
        let _ = hb.join();

        // Chaos: a kill-after worker aborts here — cell executed and
        // (on success) already published, but the lease still held and
        // the completion unsent. The coordinator reclaims the lease
        // after the TTL and the next claimant hits the store.
        if let Some(faults) = &ctx.faults {
            faults.on_distrib_cell_done();
        }

        let complete_body = match &outcome {
            Ok(_) => format!(
                "{{\"worker\": \"{}\", \"index\": {index}, \"ok\": true}}",
                json::escape(id)
            ),
            Err(f) => format!(
                "{{\"worker\": \"{}\", \"index\": {index}, \"ok\": false, \
                 \"kind\": \"{}\", \"detail\": \"{}\", \"attempts\": {}}}",
                json::escape(id),
                f.kind.label(),
                json::escape(&f.detail),
                f.attempts
            ),
        };
        let (status, reply) = http::request_with_retry(
            addr,
            "POST",
            "/complete",
            Some(&complete_body),
            WORKER_MAX_WAIT,
        )?;
        if status != 200 {
            return Err(format!(
                "coordinator {addr} returned {status} for /complete"
            ));
        }
        let accepted = json::parse(&reply)
            .ok()
            .and_then(|d| d.get("accepted").and_then(Json::as_bool))
            .unwrap_or(false);
        match &outcome {
            Ok(_) => log_line!(
                "[worker {id}] cell {index} published ({})",
                if accepted { "accepted" } else { "stale" }
            ),
            Err(f) => log_line!(
                "[worker {id}] cell {index} failed: [{}] {}",
                f.kind,
                f.detail
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunSpec;

    fn cfg(ttl: u64, poison: u32) -> LeaseConfig {
        LeaseConfig {
            ttl_ms: ttl,
            poison_after: poison,
            max_attempts: 8,
        }
    }

    #[test]
    fn lease_lifecycle_claims_heartbeats_completes() {
        let mut t = LeaseTable::new(2, cfg(100, 3));
        let Claim::Lease { index, attempt, .. } = t.claim("a", 0) else {
            panic!("first claim must lease");
        };
        assert_eq!((index, attempt), (0, 1));
        assert!(matches!(t.claim("b", 0), Claim::Lease { index: 1, .. }));
        // Everything is leased out: a third worker waits.
        assert!(matches!(t.claim("c", 0), Claim::Wait { .. }));
        // Heartbeats extend; completion finishes.
        assert!(t.heartbeat("a", 0, 50));
        assert!(!t.heartbeat("c", 0, 50), "not the holder");
        assert!(t.complete("a", 0));
        assert!(!t.complete("a", 0), "double-complete rejected");
        assert!(t.complete("b", 1));
        assert!(t.all_terminal());
        assert!(matches!(t.claim("a", 200), Claim::Done));
        assert_eq!(t.completions(0), 1);
    }

    #[test]
    fn expiry_reclaims_and_backoff_delays_reissue() {
        let mut t = LeaseTable::new(1, cfg(100, 3));
        assert!(matches!(t.claim("a", 0), Claim::Lease { .. }));
        // A heartbeat at 80 pushes expiry to 180.
        assert!(t.heartbeat("a", 0, 80));
        assert!(t.expire(150).is_empty(), "lease extended by heartbeat");
        let reclaims = t.expire(180);
        assert_eq!(reclaims.len(), 1);
        assert_eq!(reclaims[0].worker, "a");
        assert!(!reclaims[0].poisoned);
        // Stale actions from the old holder bounce.
        assert!(!t.heartbeat("a", 0, 181));
        assert!(!t.complete("a", 0));
        // Backoff: not immediately claimable, then claimable.
        assert!(matches!(t.claim("b", 181), Claim::Wait { .. }));
        let Claim::Lease { attempt, .. } = t.claim("b", 181 + 60) else {
            panic!("reissue after backoff");
        };
        assert_eq!(attempt, 2);
        assert!(t.complete("b", 0));
        assert_eq!(t.completions(0), 1, "only the live holder published");
    }

    #[test]
    fn poisoning_after_distinct_worker_deaths() {
        let mut t = LeaseTable::new(1, cfg(10, 2));
        // Worker a dies.
        assert!(matches!(t.claim("a", 0), Claim::Lease { .. }));
        let r = t.expire(10);
        assert!(!r[0].poisoned);
        // Worker b dies: second distinct death poisons.
        let Claim::Lease { .. } = t.claim("b", 100) else {
            panic!("reissued after backoff");
        };
        let r = t.expire(200);
        assert!(r[0].poisoned, "{r:?}");
        assert_eq!(*t.state(0), CellState::Poisoned);
        assert!(t.all_terminal());
        assert_eq!(t.lost_workers(0), ["a".to_string(), "b".to_string()]);
        // The same worker dying twice does not double-count.
        let mut t = LeaseTable::new(1, cfg(10, 2));
        for round in 0..2 {
            let now = round * 100;
            assert!(matches!(t.claim("a", now), Claim::Lease { .. }));
            let r = t.expire(now + 50);
            assert!(!r[0].poisoned, "one distinct worker is below the bar");
        }
        assert_eq!(t.lost_workers(0).len(), 1);
    }

    #[test]
    fn failed_publish_reissues_without_poison_credit() {
        let mut t = LeaseTable::new(1, cfg(100, 2));
        assert!(matches!(t.claim("a", 0), Claim::Lease { .. }));
        assert!(t.fail_publish("a", 0, 0));
        assert!(t.lost_workers(0).is_empty(), "nobody died");
        let Claim::Lease { attempt, .. } = t.claim("a", 60) else {
            panic!("reissued");
        };
        assert_eq!(attempt, 2);
        assert!(!t.fail_publish("b", 0, 60), "only the holder");
    }

    #[test]
    fn attempt_bound_poisons_runaway_cells() {
        let mut t = LeaseTable::new(1, cfg(100, 99));
        let mut now = 0;
        for _ in 0..8 {
            now += 10_000;
            match t.claim("a", now) {
                Claim::Lease { .. } => {
                    assert!(t.fail_publish("a", 0, now));
                }
                other => panic!("expected lease, got {other:?}"),
            }
        }
        assert_eq!(*t.state(0), CellState::Poisoned, "attempt bound hit");
    }

    /// A claim parked in a long poll must wake the moment another
    /// worker's completion ends the run. Worker `a` holds cell 0, cell 1
    /// is done, and `b`'s claim has nothing to take: with a 600 s TTL a
    /// missed notify would park it for the whole [`LONG_POLL_MAX`].
    #[test]
    fn parked_claim_wakes_when_the_run_ends() {
        let dir = std::env::temp_dir().join(format!("dmdc-distrib-test-{}", std::process::id()));
        let mut table = LeaseTable::new(2, cfg(600_000, 3));
        table.mark_done(1);
        assert!(matches!(table.claim("a", 0), Claim::Lease { index: 0, .. }));
        let meta = (0..2)
            .map(|i| CellMeta {
                key: i,
                workload: format!("w{i}"),
                desc: format!("cell {i}"),
            })
            .collect();
        let coord = Arc::new(Coord {
            table: Mutex::new(table),
            changed: Condvar::new(),
            meta,
            cache: Arc::new(CellCache::new(dir.join("cache"))),
            plan_doc: String::new(),
            failures: Mutex::new(vec![None, None]),
            activity: Mutex::new(Instant::now()),
            start: Instant::now(),
            recovery: Arc::default(),
            done: AtomicBool::new(false),
        });

        let (tx, rx) = mpsc::channel();
        let parked = {
            let coord = Arc::clone(&coord);
            std::thread::spawn(move || {
                let _ = tx.send(handle_claim("{\"worker\": \"b\"}", &coord));
            })
        };
        assert!(
            matches!(
                rx.recv_timeout(Duration::from_millis(200)),
                Err(RecvTimeoutError::Timeout)
            ),
            "b must park while a holds the only live cell"
        );

        let failed = "{\"worker\": \"a\", \"index\": 0, \"ok\": false, \
                      \"kind\": \"panic\", \"detail\": \"boom\"}";
        assert_eq!(
            handle_complete(failed, &coord),
            (200, "{\"accepted\": true}\n".to_string())
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5))
                .expect("the failed completion must wake the parked claim"),
            (200, "{\"done\": true}\n".to_string())
        );
        parked.join().unwrap();

        // The table holds the transition that ended the run.
        assert_eq!(*coord.lock().state(0), CellState::Failed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn descriptor_roundtrips_through_json() {
        let descs = [
            PlanDescriptor::Experiment {
                id: "fig2".to_string(),
                scale: Scale::Smoke,
                sampled: false,
            },
            PlanDescriptor::Suite {
                policy: PolicyKind::DmdcGlobal,
                config: 2,
                scale: Scale::Default,
                sampled: true,
            },
        ];
        for d in descs {
            let doc = json::parse(&d.to_json()).unwrap();
            assert_eq!(PlanDescriptor::from_json(&doc).unwrap(), d);
        }
        assert!(PlanDescriptor::from_json(&json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn suite_descriptor_plans_the_suite_matrix() {
        let d = PlanDescriptor::Suite {
            policy: PolicyKind::Baseline,
            config: 2,
            scale: Scale::Smoke,
            sampled: false,
        };
        let plan = d.plan().unwrap();
        assert_eq!(plan.variants.len(), 1);
        assert_eq!(plan.workloads.len(), full_suite(Scale::Smoke).len());
        // The spec list matches what `dmdc suite` builds by hand.
        let config = dmdc_ooo::CoreConfig::config2();
        let by_hand: Vec<RunSpec> = (0..plan.workloads.len())
            .map(|i| RunSpec::new(i, &config, PolicyKind::Baseline))
            .collect();
        let planned = plan.specs();
        assert_eq!(planned.len(), by_hand.len());
        for (a, b) in planned.iter().zip(&by_hand) {
            assert_eq!(a.desc(), b.desc());
        }
    }
}
