//! The parallel, deterministic experiment engine.
//!
//! Every figure/table regenerator expresses its work as a flat list of
//! independent [`RunSpec`] cells — one (workload, config, policy, options)
//! simulation each — and hands it to [`Engine::run_all`], which executes
//! the cells across a scoped worker pool and reassembles results **in spec
//! order**. Aggregation code downstream is therefore byte-identical
//! between `jobs = 1` and `jobs = N`; the only thing parallelism changes
//! is wall-clock time.
//!
//! The engine also owns the **emulator oracle cache**: the functional
//! reference checksum a halting run is verified against depends only on
//! the workload (the emulator models no timing, no policy and no
//! invalidation traffic), so it is computed at most once per distinct
//! workload per engine and shared across every policy × config cell. The
//! [`Engine::oracle_stats`] counters make the sharing observable.
//!
//! An engine can additionally carry a persistent [`CellCache`]
//! ([`Engine::with_cache`], or process-wide via
//! [`set_global_cell_cache`]): each cell is then looked up by content
//! address before simulating, and a hit returns the previously verified
//! result without running either the simulator or the emulator oracle.
//! Because the cache stores full [`CellResult`]s keyed on everything that
//! can influence them (see [`crate::cache`]), reducers cannot tell cached
//! and fresh cells apart.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

use dmdc_isa::Emulator;
use dmdc_ooo::{
    CoreConfig, SampleSpec, SimOptions, SimProfile, SimStats, PROFILE_STAGES, PROFILE_STAGE_NAMES,
};
use dmdc_workloads::Workload;

use crate::cache::{workload_digest, CacheCounters, CellCache};
use crate::cell::{CellError, CellFailure, CellResult, FailureKind};
use crate::experiments::{PolicyKind, Run};
use crate::recovery::{self, RecoveryKind};

/// One independent experiment cell: a single verified simulation.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Index into the engine's workload slice.
    pub workload: usize,
    /// Machine configuration to simulate.
    pub config: CoreConfig,
    /// Dependence-checking design to instantiate.
    pub policy: PolicyKind,
    /// Run options (invalidation rate, limits, ...).
    pub opts: SimOptions,
}

impl RunSpec {
    /// A cell with default options, under the process-wide default
    /// sampling mode (see [`set_default_sampling`]) — applied here, before
    /// the spec's description and hence any cache key is derived, so
    /// sampled and exact cells can never collide.
    pub fn new(workload: usize, config: &CoreConfig, policy: PolicyKind) -> RunSpec {
        RunSpec {
            workload,
            config: config.clone(),
            policy,
            opts: SimOptions {
                sampling: default_sampling(),
                ..SimOptions::default()
            },
        }
    }

    /// The spec's content-addressing description: the `Debug` rendering of
    /// every field that can influence the simulation (the workload is
    /// covered separately by its own digest). Cache keys hash this string,
    /// so any config, policy or option change moves the key.
    pub fn desc(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.config, self.policy, self.opts)
    }
}

/// Process-wide default cell cache. The CLI installs one here (unless
/// `--no-cache`); library callers and tests are uncached unless they opt
/// in per engine with [`Engine::with_cache`].
static GLOBAL_CACHE: Mutex<Option<Arc<CellCache>>> = Mutex::new(None);

/// Installs (or, with `None`, removes) the process-wide default cell
/// cache picked up by every subsequently created [`Engine`].
pub fn set_global_cell_cache(cache: Option<Arc<CellCache>>) {
    *GLOBAL_CACHE.lock().expect("cell cache poisoned") = cache;
}

/// The process-wide default cell cache, if one is installed.
pub fn global_cell_cache() -> Option<Arc<CellCache>> {
    GLOBAL_CACHE.lock().expect("cell cache poisoned").clone()
}

/// The directory of the current `--run-id` run, if any. Sampled cells
/// keep their partial-progress envelopes under its `samples/`, so a
/// killed run continues mid-cell on resume; completed cells persist
/// through the cell cache alone.
static RUN_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Sets (or, with `None`, clears) the process-wide run directory.
pub fn set_run_dir(dir: Option<PathBuf>) {
    *RUN_DIR.lock().expect("run dir poisoned") = dir;
}

/// The process-wide run directory, if one is set.
pub fn run_dir() -> Option<PathBuf> {
    RUN_DIR.lock().expect("run dir poisoned").clone()
}

/// Process-wide persistent checkpoint store (see
/// [`CheckpointStore`](crate::cache::CheckpointStore)). The CLI installs
/// one alongside the cell cache (unless `--no-cache`); with it, sampled
/// cells restore their fast-forward checkpoints from the shared store
/// instead of re-emulating.
static GLOBAL_CHECKPOINTS: Mutex<Option<Arc<crate::cache::CheckpointStore>>> = Mutex::new(None);

/// Installs (or, with `None`, removes) the process-wide checkpoint store
/// consulted by every subsequently executed sampled cell.
pub fn set_global_checkpoint_store(store: Option<Arc<crate::cache::CheckpointStore>>) {
    *GLOBAL_CHECKPOINTS
        .lock()
        .expect("checkpoint store poisoned") = store;
}

/// The process-wide checkpoint store, if one is installed.
pub fn global_checkpoint_store() -> Option<Arc<crate::cache::CheckpointStore>> {
    GLOBAL_CHECKPOINTS
        .lock()
        .expect("checkpoint store poisoned")
        .clone()
}

/// Process-wide default for per-cell retries (how many times a panicking,
/// timed-out or erroring cell is re-attempted before quarantine). The
/// CLI's `--retries` flag sets this.
static RETRIES: AtomicUsize = AtomicUsize::new(DEFAULT_RETRIES);

/// Retries a failing cell gets by default: one — enough to absorb any
/// transient fault while a deterministic bug only costs one extra
/// attempt before it is quarantined.
pub const DEFAULT_RETRIES: usize = 1;

/// Sets the process-wide default retry count.
pub fn set_default_retries(retries: usize) {
    RETRIES.store(retries, Ordering::Relaxed);
}

/// The process-wide default retry count.
pub fn default_retries() -> usize {
    RETRIES.load(Ordering::Relaxed)
}

/// Process-wide default per-cell wall-clock watchdog in milliseconds
/// (0 = no watchdog). The CLI's `--cell-timeout` flag sets this.
static CELL_TIMEOUT_MS: AtomicU64 = AtomicU64::new(0);

/// Sets the process-wide default cell watchdog (`None` disables it).
pub fn set_default_cell_timeout(timeout: Option<Duration>) {
    CELL_TIMEOUT_MS.store(
        timeout.map_or(0, |t| t.as_millis().max(1) as u64),
        Ordering::Relaxed,
    );
}

/// The process-wide default cell watchdog, if one is set.
pub fn default_cell_timeout() -> Option<Duration> {
    match CELL_TIMEOUT_MS.load(Ordering::Relaxed) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

/// Process-wide override for the worker count (0 = unset). The CLI's
/// `--jobs` flag sets this; `DMDC_JOBS` and the machine's parallelism are
/// the fallbacks.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (`0` clears the override).
pub fn set_default_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// Resolves the worker count: explicit override (`set_default_jobs`), then
/// the `DMDC_JOBS` environment variable, then available parallelism.
pub fn default_jobs() -> usize {
    let o = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = std::env::var("DMDC_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process-wide default sampling spec (the CLI sets this for `--scale
/// full` unless `--exact`, or anywhere with `--sampled`). Experiment
/// plans apply it to every variant that does not carry its own spec, so
/// the spec lands in [`RunSpec::opts`] **before** any cache key is
/// computed — sampled and exact cells can never collide.
static DEFAULT_SAMPLING: Mutex<SampleSpec> = Mutex::new(SampleSpec::EXACT);

/// Sets the process-wide default sampling spec ([`SampleSpec::EXACT`]
/// restores exact simulation).
pub fn set_default_sampling(spec: SampleSpec) {
    *DEFAULT_SAMPLING.lock().expect("sampling spec poisoned") = spec;
}

/// The process-wide default sampling spec.
pub fn default_sampling() -> SampleSpec {
    *DEFAULT_SAMPLING.lock().expect("sampling spec poisoned")
}

/// Process-wide switch (the CLI's `--profile` flag): when set, every
/// verified run collects a [`SimProfile`] and folds it into the global
/// [`ProfileTotals`], so experiment commands can report a per-stage
/// breakdown without threading an option through every regenerator.
static PROFILE_ENABLED: AtomicBool = AtomicBool::new(false);

static PROFILE_TOTALS: Mutex<ProfileTotals> = Mutex::new(ProfileTotals::new());

/// Enables (or disables) run profiling process-wide.
pub fn set_profile(enabled: bool) {
    PROFILE_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether run profiling is enabled process-wide.
pub fn profile_enabled() -> bool {
    PROFILE_ENABLED.load(Ordering::Relaxed)
}

/// Folds one run's profile into the process-wide totals. Called by the
/// execution funnel whenever a run carries a profile.
pub(crate) fn record_profile(profile: &SimProfile, stats: &SimStats) {
    PROFILE_TOTALS
        .lock()
        .expect("profile totals poisoned")
        .add(profile, stats);
}

/// Returns and resets the accumulated profile totals.
pub fn take_profile_totals() -> ProfileTotals {
    std::mem::take(&mut *PROFILE_TOTALS.lock().expect("profile totals poisoned"))
}

/// One sampled cell's mode breakdown, folded into the process-wide
/// [`ProfileTotals`] by the sampling driver when profiling is on: how
/// many instructions the functional fast-forward covered (and how — whole
/// compiled blocks vs. single-step fallbacks), how many cycles and
/// commits the detailed windows simulated, and how the host time split
/// between block compilation, fast-forwarding and detailed windows.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SamplingSample {
    pub ff_insts: u64,
    pub ff_nanos: u64,
    pub compile_nanos: u64,
    pub ff_blocks: u64,
    pub ff_fallback_steps: u64,
    pub ckpt_shared: u64,
    pub window_nanos: u64,
    pub window_cycles: u64,
    pub window_committed: u64,
}

/// Folds one sampled cell's breakdown into the process-wide totals.
pub(crate) fn record_sampling(sample: SamplingSample) {
    let mut totals = PROFILE_TOTALS.lock().expect("profile totals poisoned");
    totals.ff_insts += sample.ff_insts;
    totals.ff_nanos += sample.ff_nanos;
    totals.compile_nanos += sample.compile_nanos;
    totals.ff_blocks += sample.ff_blocks;
    totals.ff_fallback_steps += sample.ff_fallback_steps;
    totals.ckpt_shared += sample.ckpt_shared;
    totals.window_nanos += sample.window_nanos;
    totals.window_cycles += sample.window_cycles;
    totals.window_committed += sample.window_committed;
    totals.sampled_cells += 1;
}

/// Aggregated [`SimProfile`]s across every profiled run since the last
/// [`take_profile_totals`] call.
#[derive(Debug, Clone, Copy)]
pub struct ProfileTotals {
    /// Host nanoseconds per stage, summed over runs.
    pub stage_nanos: [u64; PROFILE_STAGES],
    /// Active (work-performing) cycles per stage, summed over runs.
    pub stage_active_cycles: [u64; PROFILE_STAGES],
    /// Executed cycles, summed.
    pub executed_cycles: u64,
    /// Simulated cycles, summed.
    pub simulated_cycles: u64,
    /// Skipped cycles, summed.
    pub skipped_cycles: u64,
    /// Fast-forward jumps, summed.
    pub fast_forwards: u64,
    /// Number of runs folded in.
    pub runs: u64,
    /// Instructions covered by the sampling driver's functional
    /// fast-forward (never detailed-simulated), summed over sampled cells.
    pub ff_insts: u64,
    /// Host nanoseconds spent in functional fast-forward, summed.
    pub ff_nanos: u64,
    /// Host nanoseconds spent pre-decoding programs into block code,
    /// summed over sampled cells.
    pub compile_nanos: u64,
    /// Straight-line blocks / control transfers the silent-run engine
    /// executed whole during fast-forward, summed.
    pub ff_blocks: u64,
    /// Fast-forward instructions that went through the single-step
    /// fallback (partial blocks at stop boundaries), summed.
    pub ff_fallback_steps: u64,
    /// Windows whose checkpoint came from the in-process memo (shared
    /// from an earlier cell in this run) instead of a fast-forward or the
    /// persistent store, summed.
    pub ckpt_shared: u64,
    /// Host nanoseconds spent in detailed sample windows, summed.
    pub window_nanos: u64,
    /// Cycles the detailed sample windows simulated, summed.
    pub window_cycles: u64,
    /// Instructions the detailed sample windows committed, summed.
    pub window_committed: u64,
    /// Number of sampled cells folded in.
    pub sampled_cells: u64,
}

impl ProfileTotals {
    const fn new() -> ProfileTotals {
        ProfileTotals {
            stage_nanos: [0; PROFILE_STAGES],
            stage_active_cycles: [0; PROFILE_STAGES],
            executed_cycles: 0,
            simulated_cycles: 0,
            skipped_cycles: 0,
            fast_forwards: 0,
            runs: 0,
            ff_insts: 0,
            ff_nanos: 0,
            compile_nanos: 0,
            ff_blocks: 0,
            ff_fallback_steps: 0,
            ckpt_shared: 0,
            window_nanos: 0,
            window_cycles: 0,
            window_committed: 0,
            sampled_cells: 0,
        }
    }

    fn add(&mut self, p: &SimProfile, stats: &SimStats) {
        for i in 0..PROFILE_STAGES {
            self.stage_nanos[i] += p.stage_nanos[i];
            self.stage_active_cycles[i] += p.stage_active_cycles[i];
        }
        self.executed_cycles += p.executed_cycles;
        self.simulated_cycles += stats.cycles;
        self.skipped_cycles += stats.skipped_cycles;
        self.fast_forwards += stats.fast_forwards;
        self.runs += 1;
    }

    /// Multi-line human-readable report over all folded-in runs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let skipped_pct = if self.simulated_cycles == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 * 100.0 / self.simulated_cycles as f64
        };
        let _ = writeln!(
            out,
            "[profile] {} runs: {} cycles simulated, {} executed, {} skipped ({:.1}%) in {} fast-forwards",
            self.runs,
            self.simulated_cycles,
            self.executed_cycles,
            self.skipped_cycles,
            skipped_pct,
            self.fast_forwards,
        );
        let _ = writeln!(
            out,
            "[profile] {:<10} {:>12} {:>14}",
            "stage", "time(ms)", "active-cycles"
        );
        for (i, name) in PROFILE_STAGE_NAMES.iter().enumerate() {
            let _ = writeln!(
                out,
                "[profile] {:<10} {:>12.2} {:>14}",
                name,
                self.stage_nanos[i] as f64 / 1.0e6,
                self.stage_active_cycles[i],
            );
        }
        if self.sampled_cells > 0 {
            let _ = writeln!(
                out,
                "[profile] sampling: {} cells, {} insts fast-forwarded, {} committed in detailed windows ({} cycles); host time {:.2} ms fast-forward, {:.2} ms detailed windows",
                self.sampled_cells,
                self.ff_insts,
                self.window_committed,
                self.window_cycles,
                self.ff_nanos as f64 / 1.0e6,
                self.window_nanos as f64 / 1.0e6,
            );
            let _ = writeln!(
                out,
                "[profile] sampling: fast-forward ran {} compiled blocks + {} single-step fallbacks; block compile {:.2} ms; {} in-memory checkpoint restores",
                self.ff_blocks,
                self.ff_fallback_steps,
                self.compile_nanos as f64 / 1.0e6,
                self.ckpt_shared,
            );
        }
        out
    }
}

impl Default for ProfileTotals {
    fn default() -> ProfileTotals {
        ProfileTotals::new()
    }
}

/// Memoized functional-emulator reference state, one slot per workload:
/// the final architectural checksum plus the dynamic instruction count
/// (the sampling driver's population size). A workload that does not halt
/// under emulation memoizes a structured error — surfaced by the engine
/// as a failed cell in the report, never a process-killing panic.
struct EmuOracle {
    references: Vec<OnceLock<Result<(u64, u64), String>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EmuOracle {
    fn new(n: usize) -> EmuOracle {
        EmuOracle {
            references: (0..n).map(|_| OnceLock::new()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The reference `(checksum, retired)` for `workloads[index]`,
    /// emulating on first use only. Concurrent first users block on one
    /// computation. The error (a must-halt violation) is memoized exactly
    /// like a reference: every cell of the broken workload fails the same
    /// way, once.
    fn reference(&self, workloads: &[Workload], index: usize) -> Result<(u64, u64), String> {
        let slot = &self.references[index];
        // Track whether *this* call ran the initializer: a caller that
        // blocks inside `get_or_init` while another thread computes is a
        // cache hit too, so hits + misses always equals consultations.
        let mut computed = false;
        let c = slot
            .get_or_init(|| {
                computed = true;
                self.misses.fetch_add(1, Ordering::Relaxed);
                let w = &workloads[index];
                // The oracle only needs the final state and retired count,
                // so the block-compiled silent run (bit-identical to
                // stepping; see `dmdc_isa::BlockCode`) does the whole
                // emulation on the fast path.
                let code = dmdc_isa::BlockCode::compile(&w.program);
                let mut emu = Emulator::new(&w.program);
                emu.run_silent(&code, u64::MAX)
                    .map_err(|e| format!("{} must halt under emulation: {e}", w.name))?;
                Ok((emu.state_checksum(), emu.retired()))
            })
            .clone();
        if !computed {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        c
    }
}

/// The parallel experiment engine for one workload set.
///
/// # Examples
///
/// ```
/// use dmdc_core::experiments::PolicyKind;
/// use dmdc_core::runner::{Engine, RunSpec};
/// use dmdc_ooo::CoreConfig;
/// use dmdc_workloads::SyntheticKernel;
///
/// let workloads = vec![SyntheticKernel::new(500).build()];
/// let config = CoreConfig::config2();
/// let engine = Engine::with_jobs(&workloads, 2);
/// let specs = vec![
///     RunSpec::new(0, &config, PolicyKind::Baseline),
///     RunSpec::new(0, &config, PolicyKind::DmdcGlobal),
/// ];
/// let runs = engine.run_all(&specs);
/// assert_eq!(runs.len(), 2);
/// let (hits, misses) = engine.oracle_stats();
/// assert_eq!((hits, misses), (1, 1), "one emulation, shared by the second cell");
/// ```
pub struct Engine<'w> {
    workloads: &'w [Workload],
    oracle: EmuOracle,
    jobs: usize,
    cache: Option<Arc<CellCache>>,
    retries: usize,
    cell_timeout: Option<Duration>,
    digests: Vec<OnceLock<u64>>,
}

impl<'w> Engine<'w> {
    /// An engine using the resolved default worker count and the
    /// process-wide cell cache and retry policy (if installed).
    pub fn new(workloads: &'w [Workload]) -> Engine<'w> {
        Engine::with_jobs(workloads, default_jobs())
    }

    /// An engine with an explicit worker count (`1` = fully serial) and
    /// the process-wide cell cache and retry policy.
    pub fn with_jobs(workloads: &'w [Workload], jobs: usize) -> Engine<'w> {
        Engine {
            workloads,
            oracle: EmuOracle::new(workloads.len()),
            jobs: jobs.max(1),
            cache: global_cell_cache(),
            retries: default_retries(),
            cell_timeout: default_cell_timeout(),
            digests: (0..workloads.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Replaces the engine's cell cache (`None` disables caching for this
    /// engine regardless of the process-wide default).
    pub fn with_cache(mut self, cache: Option<Arc<CellCache>>) -> Engine<'w> {
        self.cache = cache;
        self
    }

    /// Sets how many times a failing cell is retried before quarantine
    /// (`0` = quarantine on the first failure).
    pub fn with_retries(mut self, retries: usize) -> Engine<'w> {
        self.retries = retries;
        self
    }

    /// Sets the per-cell wall-clock watchdog. With a timeout, each attempt
    /// runs on a detached watchdog thread; an attempt that outlives the
    /// timeout is abandoned and counted as a [`FailureKind::Timeout`].
    pub fn with_cell_timeout(mut self, timeout: Option<Duration>) -> Engine<'w> {
        self.cell_timeout = timeout;
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cell cache's counters, if this engine carries a cache.
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        self.cache.as_ref().map(|c| c.counters())
    }

    /// The content digest of `workloads[index]`, computed at most once.
    fn digest(&self, index: usize) -> u64 {
        *self.digests[index].get_or_init(|| workload_digest(&self.workloads[index]))
    }

    /// (hits, misses) of the emulator-oracle cache so far. `misses` never
    /// exceeds the number of distinct workloads referenced by any spec.
    pub fn oracle_stats(&self) -> (u64, u64) {
        (
            self.oracle.hits.load(Ordering::Relaxed),
            self.oracle.misses.load(Ordering::Relaxed),
        )
    }

    /// Executes one cell, verifying a halting run against the memoized
    /// emulator reference. Wrapper over [`Engine::try_run_cell`] for
    /// callers with nowhere to surface a structured failure.
    ///
    /// # Panics
    ///
    /// Panics if the cell exhausts its retries — the experiment's numbers
    /// would be meaningless, so for this entry point that is fatal.
    pub fn run_cell(&self, spec: &RunSpec) -> CellResult {
        self.try_run_cell(spec).unwrap_or_else(|f| {
            panic!(
                "cell {} quarantined after {} attempts: [{}] {}",
                f.workload, f.attempts, f.kind, f.detail
            )
        })
    }

    /// Executes one cell under the fault-tolerant layer:
    ///
    /// 1. a **cache hit** (including a cell a crashed run completed
    ///    before it died) returns the verified result without touching
    ///    the simulator;
    /// 2. otherwise the cell is simulated under `catch_unwind` — with a
    ///    wall-clock watchdog when a cell timeout is configured — retried
    ///    with bounded backoff up to the configured retry budget, and
    ///    stored;
    /// 3. a cell that exhausts its retries comes back as a structured
    ///    [`CellFailure`] instead of killing the process.
    pub fn try_run_cell(&self, spec: &RunSpec) -> Result<CellResult, CellFailure> {
        let name = self.workloads[spec.workload].name;
        let desc = spec.desc();
        let digest = self.digest(spec.workload);
        let cached = self
            .cache
            .as_ref()
            .and_then(|cache| cache.load(cache.key(digest, &desc), name));
        if let Some(cell) = cached {
            return Ok(cell);
        }
        let attempts = self.retries + 1;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let err: &CellError = last.as_ref().expect("retry follows a failure");
                recovery::record(RecoveryKind::CellRetry, name, err.to_string());
                std::thread::sleep(backoff(attempt));
            }
            match self.attempt(spec, attempt as u32) {
                Ok(cell) => {
                    if let Some(cache) = &self.cache {
                        cache.store(cache.key(digest, &desc), &cell);
                    }
                    return Ok(cell);
                }
                Err(e) => last = Some(e),
            }
        }
        let err = last.expect("at least one attempt ran");
        recovery::record(RecoveryKind::CellQuarantined, name, err.to_string());
        Err(CellFailure {
            workload: name.to_string(),
            spec: desc,
            kind: err.kind,
            detail: err.detail,
            attempts: attempts as u32,
        })
    }

    /// One isolated attempt at a cell: panics are caught, and with a cell
    /// timeout configured the attempt runs on a detached watchdog thread
    /// so a hung simulation cannot wedge the suite.
    fn attempt(&self, spec: &RunSpec, attempt: u32) -> Result<CellResult, CellError> {
        match self.cell_timeout {
            None => {
                let w = &self.workloads[spec.workload];
                catch_attempt(w, spec, attempt, || {
                    self.oracle.reference(self.workloads, spec.workload)
                })
            }
            Some(timeout) => self.attempt_with_watchdog(spec, attempt, timeout),
        }
    }

    /// Runs one attempt on a detached thread and abandons it if it
    /// outlives `timeout`. The emulator oracle is resolved on the calling
    /// thread first (memoization lives in the engine; the emulator is
    /// cheap and bounded relative to a detailed simulation), so the
    /// watchdog thread owns everything it needs.
    fn attempt_with_watchdog(
        &self,
        spec: &RunSpec,
        attempt: u32,
        timeout: Duration,
    ) -> Result<CellResult, CellError> {
        let oracle = self.oracle.reference(self.workloads, spec.workload);
        let workload = self.workloads[spec.workload].clone();
        let owned = spec.clone();
        let (tx, rx) = mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name("dmdc-cell-watchdog".to_string())
            .spawn(move || {
                let result = catch_attempt(&workload, &owned, attempt, move || oracle);
                let _ = tx.send(result);
            });
        if spawned.is_err() {
            // Thread exhaustion: degrade to an inline attempt rather than
            // failing the cell.
            let w = &self.workloads[spec.workload];
            return catch_attempt(w, spec, attempt, || {
                self.oracle.reference(self.workloads, spec.workload)
            });
        }
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => Err(CellError::new(
                FailureKind::Timeout,
                format!("cell exceeded the {timeout:?} wall-clock watchdog"),
            )),
        }
    }

    /// Executes every cell and returns the results in spec order.
    /// Wrapper over [`Engine::run_all_recovered`] for callers with
    /// nowhere to surface structured failures.
    ///
    /// # Panics
    ///
    /// Panics if any cell exhausts its retries.
    pub fn run_all(&self, specs: &[RunSpec]) -> Vec<Run> {
        let (cells, failures) = self.run_all_recovered(specs);
        if let Some(f) = failures.first() {
            panic!(
                "cell {} quarantined after {} attempts: [{}] {}",
                f.workload, f.attempts, f.kind, f.detail
            );
        }
        cells
            .into_iter()
            .map(|c| c.expect("no failures, so every cell is present"))
            .collect()
    }

    /// Executes every cell under the fault-tolerant layer and returns
    /// `(results, failures)`, both index-aligned with `specs` (a failed
    /// cell leaves a `None` slot; its [`CellFailure`] appears in spec
    /// order in the second vector).
    ///
    /// With `jobs = 1` the cells run serially on the calling thread; with
    /// more, a scoped worker pool pulls cells off a shared cursor. A
    /// worker that dies (a panic escaping the per-cell isolation) is
    /// recorded and its unfinished cells are re-claimed **serially on the
    /// calling thread**, so a lost worker degrades throughput, never
    /// results. Either way the returned vectors are index-aligned with
    /// `specs`, so the output of any aggregation over them is identical.
    pub fn run_all_recovered(&self, specs: &[RunSpec]) -> (Vec<Option<Run>>, Vec<CellFailure>) {
        let workers = self.jobs.min(specs.len());
        let slots: Vec<Mutex<Option<Result<Run, CellFailure>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        if workers > 1 {
            let next = AtomicUsize::new(0);
            let lost = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= specs.len() {
                                break;
                            }
                            crate::faults::on_worker_cell(i);
                            let result = self.try_run_cell(&specs[i]);
                            *lock_slot(&slots[i]) = Some(result);
                        }));
                        if outcome.is_err() {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            for _ in 0..lost.load(Ordering::Relaxed) {
                recovery::record(
                    RecoveryKind::WorkerLost,
                    "worker",
                    "worker thread died; its cells re-ran serially",
                );
            }
        }
        // Serial path — and the degradation path: any cell not completed
        // by the pool (jobs = 1, or a slot claimed by a worker that died)
        // runs here on the calling thread.
        for (i, slot) in slots.iter().enumerate() {
            let done = lock_slot(slot).is_some();
            if !done {
                let result = self.try_run_cell(&specs[i]);
                *lock_slot(slot) = Some(result);
            }
        }
        let mut cells = Vec::with_capacity(specs.len());
        let mut failures = Vec::new();
        for slot in slots {
            match lock_slot(&slot).take().expect("every slot filled") {
                Ok(cell) => cells.push(Some(cell)),
                Err(failure) => {
                    failures.push(failure);
                    cells.push(None);
                }
            }
        }
        (cells, failures)
    }
}

/// Locks a result slot, surviving poisoning (a worker that died while
/// holding the lock must not take the suite down with it).
fn lock_slot<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Bounded exponential backoff between cell attempts: 25 ms, 50 ms,
/// 100 ms, ... capped at 400 ms. Long enough to ride out a transient
/// (page cache pressure, a racing writer), short enough to not matter
/// against simulation times.
fn backoff(attempt: usize) -> Duration {
    Duration::from_millis(25u64 << (attempt - 1).min(4))
}

/// One isolated cell attempt: the fault-injection hook and the verified
/// execution funnel, under `catch_unwind` so a panicking policy or
/// simulator bug becomes a structured [`CellError`].
fn catch_attempt(
    workload: &Workload,
    spec: &RunSpec,
    attempt: u32,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<CellResult, CellError> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        crate::faults::on_cell_attempt(workload.name, attempt);
        crate::experiments::execute_verified(
            workload,
            &spec.config,
            &spec.policy,
            spec.opts,
            oracle,
        )
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(CellError::new(FailureKind::Panic, panic_message(&*payload))),
    }
}

/// Extracts a human-readable message from a panic payload. Callers must
/// pass the payload itself (`&*boxed`), not a reference to the box — a
/// `&Box<dyn Any>` would unsize-coerce to `&dyn Any` *of the box*, and
/// every downcast would miss.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Convenience: runs `specs` over `workloads` with the default worker
/// count and reports the oracle counters through the returned engine-less
/// tuple `(runs, hits, misses)`.
pub fn run_specs(workloads: &[Workload], specs: &[RunSpec]) -> (Vec<Run>, u64, u64) {
    let engine = Engine::new(workloads);
    let runs = engine.run_all(specs);
    let (hits, misses) = engine.oracle_stats();
    (runs, hits, misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdc_workloads::{fp_suite, int_suite, Scale};

    fn mini() -> Vec<Workload> {
        vec![
            int_suite(Scale::Smoke).remove(6),
            fp_suite(Scale::Smoke).remove(1),
        ]
    }

    #[test]
    fn parallel_matches_serial_cell_for_cell() {
        let ws = mini();
        let config = CoreConfig::config2();
        let specs: Vec<RunSpec> = (0..ws.len())
            .flat_map(|i| {
                [
                    RunSpec::new(i, &config, PolicyKind::Baseline),
                    RunSpec::new(i, &config, PolicyKind::DmdcGlobal),
                    RunSpec::new(i, &config, PolicyKind::DmdcLocal),
                ]
            })
            .collect();
        let serial = Engine::with_jobs(&ws, 1).run_all(&specs);
        let parallel = Engine::with_jobs(&ws, 4).run_all(&specs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.group, p.group);
            assert_eq!(s.stats.cycles, p.stats.cycles);
            assert_eq!(s.stats.committed, p.stats.committed);
            assert_eq!(s.stats.replay_squashes, p.stats.replay_squashes);
        }
    }

    #[test]
    fn oracle_emulates_each_workload_once() {
        let ws = mini();
        let config = CoreConfig::config2();
        let mut specs = Vec::new();
        for _ in 0..5 {
            for i in 0..ws.len() {
                specs.push(RunSpec::new(i, &config, PolicyKind::DmdcGlobal));
            }
        }
        let engine = Engine::with_jobs(&ws, 2);
        engine.run_all(&specs);
        let (hits, misses) = engine.oracle_stats();
        assert_eq!(
            misses,
            ws.len() as u64,
            "one emulation per distinct workload"
        );
        assert_eq!(
            hits + misses,
            specs.len() as u64,
            "every halting cell consulted the oracle"
        );
    }

    #[test]
    fn cache_serves_repeated_cells_verbatim() {
        let ws = mini();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/dmdc-cache-runner-test");
        let _ = std::fs::remove_dir_all(&dir);
        let config = CoreConfig::config2();
        let specs = vec![
            RunSpec::new(0, &config, PolicyKind::DmdcGlobal),
            RunSpec::new(1, &config, PolicyKind::Baseline),
        ];
        let cold_engine =
            Engine::with_jobs(&ws, 1).with_cache(Some(Arc::new(CellCache::new(&dir))));
        let cold = cold_engine.run_all(&specs);
        let c = cold_engine.cache_counters().unwrap();
        assert_eq!((c.hits, c.misses, c.stores), (0, 2, 2));
        let warm_engine =
            Engine::with_jobs(&ws, 1).with_cache(Some(Arc::new(CellCache::new(&dir))));
        let warm = warm_engine.run_all(&specs);
        let c = warm_engine.cache_counters().unwrap();
        assert_eq!((c.hits, c.misses, c.stores), (2, 0, 0));
        assert_eq!(cold, warm, "cached cells must replay byte-for-byte");
        let (hits, misses) = warm_engine.oracle_stats();
        assert_eq!((hits, misses), (0, 0), "warm cells never touch the oracle");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_resolution_prefers_override() {
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }
}
