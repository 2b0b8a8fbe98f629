//! The parallel, deterministic experiment engine and its run context.
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
//! Everything an engine reads besides its cells lives in one explicit
//! [`Context`]: the worker count, retries, cell watchdog and default
//! sampling spec; the persistent [`CellCache`] and checkpoint store; the
//! profile sink, the fault plan, the recovery counters and the in-process
//! checkpoint memo. Each front end builds one — `dmdc` from its flags,
//! `dmdc serve` at boot, `dmdc worker` from the plan it joins — and
//! passes it down. Nothing below it reads process
//! state, so two contexts run side by side in one process without seeing
//! each other. With a cell cache installed, each cell is looked up by
//! content address before simulating, and a hit returns the previously
//! verified result without running either the simulator or the emulator
//! oracle. Because the cache stores full [`CellResult`]s keyed on
//! everything that can influence them (see [`crate::cache`]), reducers
//! cannot tell cached and fresh cells apart.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

use dmdc_isa::Emulator;
use dmdc_ooo::{
    CoreConfig, SampleSpec, SimOptions, SimProfile, SimStats, PROFILE_STAGES, PROFILE_STAGE_NAMES,
};
use dmdc_workloads::Workload;

use crate::cache::{workload_digest, CacheCounters, CellCache, CheckpointStore};
use crate::cell::{CellError, CellFailure, CellResult, FailureKind};
use crate::experiments::{PolicyKind, Run};
use crate::faults::FaultPlan;
use crate::recovery::{Recovery, RecoveryCounters, RecoveryKind};
use crate::sampling::CkptMemo;

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
    /// A cell with default options, under the process-default sampling
    /// spec — exact unless [`set_default_sampling`] changed it; that
    /// default goes away with the benchmark change that ports the trace
    /// binary to [`Context`]. Code with a context plans through
    /// [`Plan`](crate::experiments::Plan), which applies its spec.
    pub fn new(workload: usize, config: &CoreConfig, policy: PolicyKind) -> RunSpec {
        RunSpec {
            workload,
            config: config.clone(),
            policy,
            opts: SimOptions {
                sampling: compat(|c| c.sampling),
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

/// Retries a failing cell gets by default: one — enough to absorb any
/// transient fault while a deterministic bug only costs one extra
/// attempt before it is quarantined.
pub const DEFAULT_RETRIES: usize = 1;

/// Everything one run of the engine reads besides its cells. Cloning is
/// cheap: the stores, the profile sink, the fault plan, the recovery
/// counters and the checkpoint memo sit behind `Arc`s, so every clone —
/// each [`Engine`] holds one — reports into the same places.
#[derive(Clone)]
pub struct Context {
    pub(crate) jobs: usize,
    pub(crate) retries: usize,
    pub(crate) cell_timeout: Option<Duration>,
    pub(crate) sampling: SampleSpec,
    pub(crate) cache: Option<Arc<CellCache>>,
    pub(crate) checkpoints: Option<Arc<CheckpointStore>>,
    pub(crate) profile: Option<Arc<Mutex<ProfileTotals>>>,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) recovery: Arc<Recovery>,
    pub(crate) memo: Arc<CkptMemo>,
}

impl Context {
    /// An exact, uncached context: the default worker count (the
    /// `DMDC_JOBS` environment variable, else the machine's available
    /// parallelism), [`DEFAULT_RETRIES`], no watchdog, no stores,
    /// profiling off, no fault plan.
    pub fn new() -> Context {
        let jobs = std::env::var("DMDC_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Context {
            jobs,
            retries: DEFAULT_RETRIES,
            cell_timeout: None,
            sampling: SampleSpec::EXACT,
            cache: None,
            checkpoints: None,
            profile: None,
            faults: None,
            recovery: Arc::default(),
            memo: Arc::default(),
        }
    }

    /// Sets the worker count (`1` = fully serial).
    pub fn with_jobs(mut self, jobs: usize) -> Context {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets how many times a failing cell is retried before quarantine
    /// (`0` = quarantine on the first failure).
    pub fn with_retries(mut self, retries: usize) -> Context {
        self.retries = retries;
        self
    }

    /// Sets the per-cell wall-clock watchdog. With a timeout, each attempt
    /// runs on a detached watchdog thread; an attempt that outlives the
    /// timeout is abandoned and counted as a [`FailureKind::Timeout`].
    pub fn with_cell_timeout(mut self, timeout: Option<Duration>) -> Context {
        self.cell_timeout = timeout;
        self
    }

    /// Sets the sampling spec experiment plans give every variant that
    /// does not carry its own ([`SampleSpec::EXACT`] keeps them exact).
    /// It lands in [`RunSpec::opts`] when the plan is built, before any
    /// cache key is derived, so sampled and exact cells never collide.
    pub fn with_sampling(mut self, spec: SampleSpec) -> Context {
        self.sampling = spec;
        self
    }

    /// Installs a fault plan. Stores take the plan when they are built, so
    /// it must come before [`Context::with_store`].
    ///
    /// # Panics
    ///
    /// Panics if a store is already installed.
    pub fn with_faults(mut self, plan: FaultPlan) -> Context {
        assert!(
            self.cache.is_none() && self.checkpoints.is_none(),
            "install the fault plan before the stores that run it"
        );
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Installs the cell cache and the checkpoint store under `root`
    /// (checkpoints in its `checkpoints/`), both counting quarantines in
    /// this context's recovery counters and running its fault plan. The
    /// two stores are every run's crash record: a killed run's finished
    /// cells and captured checkpoints are there for its resume.
    pub fn with_store(mut self, root: impl Into<PathBuf>) -> Context {
        let root = root.into();
        let store = CheckpointStore(CheckpointStore::new(&root).0.in_context(&self));
        self.checkpoints = Some(Arc::new(store));
        self.cache = Some(Arc::new(CellCache(
            CellCache::new(root).0.in_context(&self),
        )));
        self
    }

    /// Turns profiling on: every verified run collects a [`SimProfile`]
    /// and folds it into this context's [`ProfileTotals`].
    pub fn with_profile(mut self) -> Context {
        self.profile = Some(Arc::default());
        self
    }

    /// The sampling spec plans apply by default.
    pub fn sampling(&self) -> SampleSpec {
        self.sampling
    }

    /// The cell cache, if one is installed.
    pub fn cache(&self) -> Option<&Arc<CellCache>> {
        self.cache.as_ref()
    }

    /// The checkpoint store, if one is installed.
    pub fn checkpoints(&self) -> Option<&Arc<CheckpointStore>> {
        self.checkpoints.as_ref()
    }

    /// Snapshot of the faults this context survived so far.
    pub fn recovery(&self) -> RecoveryCounters {
        self.recovery.counters()
    }

    /// Returns and resets the accumulated profile totals; `None` unless
    /// profiling is on.
    pub fn take_profile(&self) -> Option<ProfileTotals> {
        let sink = self.profile.as_ref()?;
        Some(std::mem::take(
            &mut *sink.lock().expect("profile totals poisoned"),
        ))
    }

    /// Folds one run's profile into the totals (a no-op with profiling
    /// off).
    pub(crate) fn record_profile(&self, profile: &SimProfile, stats: &SimStats) {
        if let Some(sink) = &self.profile {
            sink.lock()
                .expect("profile totals poisoned")
                .add(profile, stats);
        }
    }

    /// Folds one sampled cell's breakdown into the totals (a no-op with
    /// profiling off).
    pub(crate) fn record_sampling(&self, sample: SamplingSample) {
        let Some(sink) = &self.profile else { return };
        let mut totals = sink.lock().expect("profile totals poisoned");
        totals.ff_insts += sample.ff_insts;
        totals.ff_nanos += sample.ff_nanos;
        totals.compile_nanos += sample.compile_nanos;
        totals.ff_silent_insts += sample.ff_silent_insts;
        totals.ff_warmed_insts += sample.ff_warmed_insts;
        totals.ff_blocks += sample.ff_blocks;
        totals.ff_fallback_steps += sample.ff_fallback_steps;
        totals.ckpt_shared += sample.ckpt_shared;
        totals.window_nanos += sample.window_nanos;
        totals.window_cycles += sample.window_cycles;
        totals.window_committed += sample.window_committed;
        totals.sampled_cells += 1;
    }
}

impl Default for Context {
    fn default() -> Context {
        Context::new()
    }
}

// ---------------------------------------------------------------------
// Compat entry points. The benchmark's trace binary still drives the
// engine through the API that predates `Context`; these act on one
// process-default context that nothing in this workspace sets.

/// The process-default context behind the compat entry points.
static COMPAT: Mutex<Option<Context>> = Mutex::new(None);

fn compat<T>(f: impl FnOnce(&mut Context) -> T) -> T {
    let mut slot = COMPAT.lock().expect("process-default context poisoned");
    f(slot.get_or_insert_with(Context::new))
}

/// Sets the process-default sampling spec [`RunSpec::new`] applies.
/// Goes away with the benchmark change that ports the trace binary to
/// [`Context`].
pub fn set_default_sampling(spec: SampleSpec) {
    compat(|c| c.sampling = spec);
}

/// Installs (or, with `None`, removes) the process-default checkpoint
/// store of engines built by [`Engine::with_jobs`]. Goes away with the
/// benchmark change that ports the trace binary to [`Context`].
pub fn set_global_checkpoint_store(store: Option<Arc<CheckpointStore>>) {
    compat(|c| c.checkpoints = store);
}

/// Turns profiling on or off for engines built by [`Engine::with_jobs`].
/// Goes away with the benchmark change that ports the trace binary to
/// [`Context`].
pub fn set_profile(enabled: bool) {
    compat(|c| c.profile = enabled.then(|| c.profile.clone().unwrap_or_default()));
}

/// Returns and resets the process-default profile totals. Goes away with
/// the benchmark change that ports the trace binary to [`Context`].
pub fn take_profile_totals() -> ProfileTotals {
    compat(|c| c.take_profile()).unwrap_or_default()
}

/// One sampled cell's mode breakdown, folded into its context's
/// [`ProfileTotals`] by the sampling driver when profiling is on: how
/// many instructions the functional fast-forward covered (and how —
/// silently, in whole compiled blocks or single-step fallbacks, or
/// warming the shadow structures), how many cycles and
/// commits the detailed windows simulated, and how the host time split
/// between block compilation, fast-forwarding and detailed windows.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SamplingSample {
    pub ff_insts: u64,
    pub ff_nanos: u64,
    pub compile_nanos: u64,
    pub ff_silent_insts: u64,
    pub ff_warmed_insts: u64,
    pub ff_blocks: u64,
    pub ff_fallback_steps: u64,
    pub ckpt_shared: u64,
    pub window_nanos: u64,
    pub window_cycles: u64,
    pub window_committed: u64,
}

/// Aggregated [`SimProfile`]s across every profiled run since the last
/// [`Context::take_profile`] call.
#[derive(Debug, Clone, Copy, Default)]
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
    /// Fast-forward instructions emulated silently (before the warming
    /// horizon), summed. With [`ProfileTotals::ff_warmed_insts`] it adds
    /// up to [`ProfileTotals::ff_insts`].
    pub ff_silent_insts: u64,
    /// Fast-forward instructions that warmed the shadow caches,
    /// predictor and BTB (inside the warming horizon), summed.
    pub ff_warmed_insts: u64,
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
                "[profile] sampling: fast-forward ran {} insts silent ({} compiled blocks + {} single-step fallbacks) + {} insts warmed; block compile {:.2} ms; {} in-memory checkpoint restores",
                self.ff_silent_insts,
                self.ff_blocks,
                self.ff_fallback_steps,
                self.ff_warmed_insts,
                self.compile_nanos as f64 / 1.0e6,
                self.ckpt_shared,
            );
        }
        out
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
/// use dmdc_core::runner::{Context, Engine, RunSpec};
/// use dmdc_ooo::CoreConfig;
/// use dmdc_workloads::SyntheticKernel;
///
/// let workloads = vec![SyntheticKernel::new(500).build()];
/// let config = CoreConfig::config2();
/// let engine = Engine::new(&Context::new().with_jobs(2), &workloads);
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
    ctx: Context,
    digests: Vec<OnceLock<u64>>,
}

impl<'w> Engine<'w> {
    /// An engine over `workloads` under `ctx`: its worker count, cell
    /// cache, retry policy, watchdog, fault plan and profile sink.
    pub fn new(ctx: &Context, workloads: &'w [Workload]) -> Engine<'w> {
        Engine {
            workloads,
            oracle: EmuOracle::new(workloads.len()),
            ctx: ctx.clone(),
            digests: (0..workloads.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// An engine with an explicit worker count under the process-default
    /// context. Goes away with the benchmark change that ports the trace
    /// binary to [`Context`].
    pub fn with_jobs(workloads: &'w [Workload], jobs: usize) -> Engine<'w> {
        Engine::new(&compat(|c| c.clone()).with_jobs(jobs), workloads)
    }

    /// Replaces the engine's cell cache (`None` disables caching for this
    /// engine whatever its context holds).
    pub fn with_cache(mut self, cache: Option<Arc<CellCache>>) -> Engine<'w> {
        self.ctx.cache = cache;
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.ctx.jobs
    }

    /// The cell cache's counters, if this engine carries a cache.
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        self.ctx.cache.as_ref().map(|c| c.counters())
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
        let cache = self.ctx.cache.as_ref();
        if let Some(cell) = cache.and_then(|c| c.load(c.key(digest, &desc), name)) {
            return Ok(cell);
        }
        let attempts = self.ctx.retries + 1;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.ctx.recovery.record(RecoveryKind::CellRetry);
                std::thread::sleep(backoff(attempt));
            }
            match self.attempt(spec, attempt as u32) {
                Ok(cell) => {
                    if let Some(cache) = cache {
                        cache.store(cache.key(digest, &desc), &cell);
                    }
                    return Ok(cell);
                }
                Err(e) => last = Some(e),
            }
        }
        let err: CellError = last.expect("at least one attempt ran");
        self.ctx.recovery.record(RecoveryKind::CellQuarantined);
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
        match self.ctx.cell_timeout {
            None => {
                let w = &self.workloads[spec.workload];
                catch_attempt(&self.ctx, w, spec, attempt, || {
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
        let ctx = self.ctx.clone();
        let (tx, rx) = mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name("dmdc-cell-watchdog".to_string())
            .spawn(move || {
                let result = catch_attempt(&ctx, &workload, &owned, attempt, move || oracle);
                let _ = tx.send(result);
            });
        if spawned.is_err() {
            // Thread exhaustion: degrade to an inline attempt rather than
            // failing the cell.
            let w = &self.workloads[spec.workload];
            return catch_attempt(&self.ctx, w, spec, attempt, || {
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
        let workers = self.ctx.jobs.min(specs.len());
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
                            if let Some(faults) = &self.ctx.faults {
                                faults.on_worker_cell(i);
                            }
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
                self.ctx.recovery.record(RecoveryKind::WorkerLost);
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
    ctx: &Context,
    workload: &Workload,
    spec: &RunSpec,
    attempt: u32,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<CellResult, CellError> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(faults) = &ctx.faults {
            faults.on_cell_attempt(workload.name, attempt);
        }
        crate::experiments::execute_verified(
            ctx,
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
        let serial = Engine::new(&Context::new().with_jobs(1), &ws).run_all(&specs);
        let parallel = Engine::new(&Context::new().with_jobs(4), &ws).run_all(&specs);
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
        let engine = Engine::new(&Context::new().with_jobs(2), &ws);
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
        let serial = Context::new().with_jobs(1);
        let cold_engine =
            Engine::new(&serial, &ws).with_cache(Some(Arc::new(CellCache::new(&dir))));
        let cold = cold_engine.run_all(&specs);
        let c = cold_engine.cache_counters().unwrap();
        assert_eq!((c.hits, c.misses, c.stores), (0, 2, 2));
        let warm_engine =
            Engine::new(&serial, &ws).with_cache(Some(Arc::new(CellCache::new(&dir))));
        let warm = warm_engine.run_all(&specs);
        let c = warm_engine.cache_counters().unwrap();
        assert_eq!((c.hits, c.misses, c.stores), (2, 0, 0));
        assert_eq!(cold, warm, "cached cells must replay byte-for-byte");
        let (hits, misses) = warm_engine.oracle_stats();
        assert_eq!((hits, misses), (0, 0), "warm cells never touch the oracle");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_resolution_prefers_the_explicit_count() {
        let jobs = |ctx: Context| Engine::new(&ctx, &[]).jobs();
        assert_eq!(jobs(Context::new().with_jobs(3)), 3);
        assert_eq!(jobs(Context::new().with_jobs(0)), 1, "at least one worker");
        assert!(jobs(Context::new()) >= 1);
    }
}
