//! The cycle-level out-of-order core.
//!
//! Execution is *value-accurate*: operands flow through physical registers,
//! loads sample committed memory (or forward from the store queue) at issue
//! time, and stores write memory at commit. A premature load therefore
//! really returns stale data, and the active [`MemDepPolicy`] must arrange
//! for its replay before it commits — the core panics if a stale value ever
//! reaches architectural state, and the integration suite additionally
//! compares the final state checksum against the functional emulator.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use dmdc_isa::{arch_checksum, ArchReg, Inst, InstClass, Program, SparseMemory};
use dmdc_types::{AccessSize, Addr, Age, Cycle, MemSpan, SplitMix64};

use crate::audit::{AuditKind, AuditReport, Auditor};
use crate::bpred::{BranchPredictor, Btb, HistorySnapshot};
use crate::cache::MemoryHierarchy;
use crate::config::CoreConfig;
use crate::exec::{compute, extract_forwarded, load_value, store_raw};
use crate::lsq::{
    CheckOutcome, CommitInfo, CommitKind, LoadQueue, MemDepPolicy, PolicyCtx, StoreQueue,
};
use crate::multicore::CoherenceHub;
use crate::regs::{Operand, PhysReg, RegFiles, RegValue};
use crate::stats::{ReplayKind, SimProfile, SimStats};
use crate::trace::{PipelineTrace, Stage};

/// Statistical-sampling specification: how a sampled run carves the
/// dynamic instruction stream into detailed measurement windows.
///
/// A sampled run fast-forwards through a functional model, takes
/// `windows` evenly spaced checkpoints, and simulates
/// `warmup_insts + window_insts` instructions in detail from each — the
/// warmup prefix trains the out-of-order structures after the restore and
/// is discarded; only the `window_insts` suffix is measured. The spec is
/// part of [`SimOptions`], so it flows into every content-address key:
/// sampled and exact results can never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Number of detailed measurement windows (0 = exact simulation).
    pub windows: u32,
    /// Measured instructions per window.
    pub window_insts: u32,
    /// Detailed-warmup instructions run (and discarded) before each
    /// window's measurement starts.
    pub warmup_insts: u32,
}

impl SampleSpec {
    /// The exact (unsampled) spec: every instruction simulated in detail.
    pub const EXACT: SampleSpec = SampleSpec {
        windows: 0,
        window_insts: 0,
        warmup_insts: 0,
    };

    /// The default sampled spec: enough windows for a stable standard
    /// error, windows long enough to amortize the detailed warmup.
    pub fn standard() -> SampleSpec {
        SampleSpec {
            windows: 24,
            window_insts: 1_500,
            warmup_insts: 1_500,
        }
    }

    /// Whether this spec asks for sampling at all.
    pub fn enabled(&self) -> bool {
        self.windows > 0
    }

    /// Detailed instructions one window costs (warmup + measurement).
    pub fn insts_per_window(&self) -> u64 {
        self.warmup_insts as u64 + self.window_insts as u64
    }
}

impl Default for SampleSpec {
    fn default() -> SampleSpec {
        SampleSpec::EXACT
    }
}

/// Run-control options orthogonal to the machine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Hard cycle limit; exceeding it returns [`SimError::CycleLimit`].
    pub max_cycles: u64,
    /// Stop cleanly after this many commits (the run reports
    /// `halted == false`). `None` runs to `halt`.
    pub max_commits: Option<u64>,
    /// External invalidations per 1000 cycles (paper §6.2.4). Zero disables
    /// coherence traffic entirely.
    pub inval_per_kcycle: f64,
    /// Seed for the invalidation address/timing stream.
    pub inval_seed: u64,
    /// Keep the most recent N pipeline-trace events (0 = tracing off).
    pub trace_capacity: usize,
    /// Record the program counter of every committed instruction, for
    /// instruction-by-instruction comparison against the emulator.
    pub collect_commit_log: bool,
    /// Fast-forward over provably idle cycles (the event-horizon loop).
    /// Results are bit-identical either way — `false` forces the plain
    /// per-cycle loop and exists for the lockstep equivalence tests.
    pub event_skipping: bool,
    /// Collect a per-stage wall-clock/activity breakdown of the run
    /// (returned in [`SimResult::profile`]).
    pub profile: bool,
    /// Run the invariant auditor (see [`crate::audit`]) alongside the
    /// simulation and return its [`AuditReport`] in
    /// [`SimResult::audit`]. Defaults to `false` — or to `true` when the
    /// crate is built with the `audit` cargo feature, which audits every
    /// run in the whole test suite. When `false`, no auditor code runs
    /// and the simulation output is byte-identical to a build without it.
    pub audit: bool,
    /// Statistical-sampling spec ([`SampleSpec::EXACT`] = simulate every
    /// instruction). The simulator itself never reads this — the sampling
    /// driver in `dmdc-core` interprets it — but it lives here so every
    /// cache key separates sampled from exact cells.
    pub sampling: SampleSpec,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            max_cycles: 200_000_000,
            max_commits: None,
            inval_per_kcycle: 0.0,
            inval_seed: 1,
            trace_capacity: 0,
            collect_commit_log: false,
            event_skipping: true,
            profile: false,
            audit: cfg!(feature = "audit"),
            sampling: SampleSpec::EXACT,
        }
    }
}

/// Why a run could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle limit elapsed before the program halted.
    CycleLimit {
        /// The limit that was hit.
        max_cycles: u64,
        /// Instructions committed by then.
        committed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimit {
                max_cycles,
                committed,
            } => {
                write!(
                    f,
                    "cycle limit {max_cycles} reached after {committed} commits"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// All counters.
    pub stats: SimStats,
    /// Checksum over final architectural state; must equal the functional
    /// emulator's [`dmdc_isa::Emulator::state_checksum`] for the same
    /// program when the run halted.
    pub checksum: u64,
    /// Whether the program executed `halt` (vs. stopping at `max_commits`).
    pub halted: bool,
    /// Committed program counters, in order (empty unless
    /// [`SimOptions::collect_commit_log`] was set).
    pub commit_log: Vec<u32>,
    /// Per-stage breakdown of the run (`None` unless
    /// [`SimOptions::profile`] was set).
    pub profile: Option<SimProfile>,
    /// Invariant-auditor report (`None` unless [`SimOptions::audit`] was
    /// set).
    pub audit: Option<AuditReport>,
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: u32,
    inst: Inst,
    predicted_next: u32,

    hist: HistorySnapshot,
    ready_at: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    age: Age,
    pc: u32,
    inst: Inst,
    class: InstClass,
    done: bool,
    srcs: [Option<Operand>; 2],
    dest: Option<(ArchReg, crate::regs::PhysReg, crate::regs::PhysReg)>,
    result: Option<RegValue>,
    predicted_next: u32,

    hist: HistorySnapshot,
    actual_next: Option<u32>,
    actual_taken: Option<bool>,
    span: Option<MemSpan>,
    load_raw: Option<u64>,
    safe_load: bool,
    forwarded: bool,
    issue_cycle: Option<Cycle>,
    misaligned: bool,
    /// A cross-core invalidation hit this in-flight load's line after it
    /// issued (multi-core runs only; never set single-core). The snooping
    /// load queue replays it at commit if its value went stale.
    xinv: bool,
}

#[derive(Debug, Clone, Copy)]
struct IqEntry {
    age: Age,
    srcs: [Option<Operand>; 2],
    ready: [bool; 2],
    sleep_until: Cycle,
}

impl IqEntry {
    fn is_ready(&self, now: Cycle) -> bool {
        self.sleep_until <= now && self.ready[0] && self.ready[1]
    }
}

/// One IQ source slot waiting on a physical register, registered at
/// dispatch and drained by [`Simulator::wake`]. Records for squashed
/// entries go stale; they are skipped lazily (ages are never reused, so a
/// stale age can never match a live IQ entry).
#[derive(Debug, Clone, Copy)]
struct Waiter {
    age: Age,
    fp_queue: bool,
    slot: u8,
}

struct UnitBudget {
    int_alu: u32,
    int_muldiv: u32,
    fp_alu: u32,
    fp_muldiv: u32,
    issue: u32,
}

/// The simulator.
///
/// # Examples
///
/// ```
/// use dmdc_isa::Assembler;
/// use dmdc_ooo::{BaselinePolicy, CoreConfig, SimOptions, Simulator};
///
/// let program = Assembler::new().assemble("li x1, 41\naddi x1, x1, 1\nhalt").unwrap();
/// let mut sim = Simulator::new(&program, CoreConfig::config2(), Box::new(BaselinePolicy::new()));
/// let result = sim.run(SimOptions::default()).unwrap();
/// assert!(result.halted);
/// assert_eq!(result.stats.committed, 3);
/// ```
pub struct Simulator<'p> {
    program: &'p Program,
    config: CoreConfig,
    policy: Box<dyn MemDepPolicy>,
    cycle: Cycle,
    next_age: u64,
    rf: RegFiles,
    rob: VecDeque<RobEntry>,
    int_iq: Vec<IqEntry>,
    fp_iq: Vec<IqEntry>,
    lq: LoadQueue,
    sq: StoreQueue,
    mem: SparseMemory,
    hier: MemoryHierarchy,
    bpred: BranchPredictor,
    btb: Btb,
    fq: VecDeque<Fetched>,
    fetch_pc: u32,
    fetch_stall_until: Cycle,
    fetch_blocked: bool,
    last_fetch_line: u64,
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    stats: SimStats,
    halted: bool,
    stopped_early: bool,
    last_commit_cycle: Cycle,
    last_committed_age: Age,
    ports_this_cycle: u32,
    rng: SplitMix64,
    footprint: Vec<Addr>,
    trace: PipelineTrace,
    commit_log: Option<Vec<u32>>,
    // Indexed wakeup: per-physical-register waiter lists (flat index, int
    // file first), a sorted list of fully ready IQ ages, and a min-heap of
    // sleeping (rejected) loads keyed by their retry deadline.
    waiters: Vec<Vec<Waiter>>,
    ready: Vec<Age>,
    sleepers: BinaryHeap<Reverse<(u64, u64)>>,
    // Reusable scratch buffers so the hot loop never allocates.
    scratch_due: Vec<u64>,
    scratch_cands: Vec<Age>,
    prof: Option<Box<SimProfile>>,
    audit: Option<Box<Auditor<'p>>>,
    // Multi-core wiring: `(core id, hub)` when this core's data accesses
    // route through a coherent system instead of the private hierarchy.
    coherence: Option<(usize, Rc<RefCell<CoherenceHub>>)>,
    // Pages that received an invalidation (injected or delivered), kept
    // only while the auditor runs: the INV-bit consistency invariant
    // checks every marked LQ entry against this set.
    seen_inval_pages: HashSet<u64>,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator for `program` under `config` with the given
    /// memory-dependence policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`CoreConfig::validate`]).
    pub fn new(
        program: &'p Program,
        config: CoreConfig,
        policy: Box<dyn MemDepPolicy>,
    ) -> Simulator<'p> {
        config.validate();
        // DMDC-style FIFO load queues lift the in-flight-load limit to the
        // ROB size (paper §6.2.1); CAM designs keep the configured LQ size.
        let lq_cap = if policy.needs_associative_lq() {
            config.lq_size as usize
        } else {
            config.rob_size as usize
        };
        let mem = program.initial_memory();
        let footprint = mem.touched_pages();
        Simulator {
            program,
            policy,
            cycle: Cycle(0),
            next_age: 1,
            rf: RegFiles::new(config.int_regs, config.fp_regs),
            rob: VecDeque::with_capacity(config.rob_size as usize),
            int_iq: Vec::with_capacity(config.int_iq_size as usize),
            fp_iq: Vec::with_capacity(config.fp_iq_size as usize),
            lq: LoadQueue::new(lq_cap),
            sq: StoreQueue::new(config.sq_size as usize),
            mem,
            hier: MemoryHierarchy::new(&config),
            bpred: BranchPredictor::new(
                config.bimodal_entries,
                config.gshare_entries,
                config.gshare_history_bits,
                config.meta_entries,
            ),
            btb: Btb::new(config.btb_entries),
            fq: VecDeque::new(),
            fetch_pc: program.entry(),
            fetch_stall_until: Cycle(0),
            fetch_blocked: false,
            last_fetch_line: u64::MAX,
            completions: BinaryHeap::new(),
            stats: SimStats::default(),
            halted: false,
            stopped_early: false,
            last_commit_cycle: Cycle(0),
            last_committed_age: Age::OLDEST,
            ports_this_cycle: 0,
            rng: SplitMix64::new(1),
            footprint,
            trace: PipelineTrace::new(0),
            commit_log: None,
            waiters: vec![Vec::new(); (config.int_regs + config.fp_regs) as usize],
            ready: Vec::new(),
            sleepers: BinaryHeap::new(),
            scratch_due: Vec::new(),
            scratch_cands: Vec::new(),
            prof: None,
            audit: None,
            coherence: None,
            seen_inval_pages: HashSet::new(),
            config,
        }
    }

    /// Runs to `halt` (or a limit from `opts`).
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if the cycle budget runs out.
    ///
    /// # Panics
    ///
    /// Panics on simulator-invariant violations: a stale load reaching
    /// commit without a replay, a misaligned committed-path access, or a
    /// 200k-cycle commit drought (deadlock).
    pub fn run(&mut self, opts: SimOptions) -> Result<SimResult, SimError> {
        self.rng = SplitMix64::new(opts.inval_seed);
        self.trace = PipelineTrace::new(opts.trace_capacity);
        self.commit_log = opts.collect_commit_log.then(Vec::new);
        self.prof = opts.profile.then(Box::default);
        self.audit = opts
            .audit
            .then(|| Box::new(Auditor::new(self.program, self.policy.name().to_string())));
        self.run_loop(&opts)?;
        Ok(self.finalize())
    }

    /// Continues a run that stopped cleanly at [`SimOptions::max_commits`],
    /// typically with a larger commit budget. Everything carries over —
    /// cycle count, statistics, pipeline state, the invalidation RNG
    /// stream — so `run(a)` + `resume(b)` commits exactly the same
    /// instruction stream as a single `run(b)`. The sampling driver uses
    /// this to split a detailed window into its discarded-warmup and
    /// measured halves.
    ///
    /// The invariant auditor (if any) was consumed by the previous
    /// [`Simulator::run`]'s result and is not re-armed.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if the cycle budget runs out.
    ///
    /// # Panics
    ///
    /// Panics if the previous run halted or errored rather than stopping
    /// at its commit budget.
    pub fn resume(&mut self, opts: SimOptions) -> Result<SimResult, SimError> {
        assert!(
            self.stopped_early && !self.halted,
            "resume requires a previous run stopped cleanly at max_commits"
        );
        self.stopped_early = false;
        self.run_loop(&opts)?;
        Ok(self.finalize())
    }

    fn run_loop(&mut self, opts: &SimOptions) -> Result<(), SimError> {
        let inval_prob = opts.inval_per_kcycle / 1000.0;
        let has_hook = self.policy.has_cycle_hook();
        while !self.halted && !self.stopped_early {
            if self.cycle.0 >= opts.max_cycles {
                return Err(SimError::CycleLimit {
                    max_cycles: opts.max_cycles,
                    committed: self.stats.committed,
                });
            }
            self.cycle.tick();
            self.ports_this_cycle = 0;
            if has_hook {
                let mut ctx = PolicyCtx {
                    cycle: self.cycle,
                    energy: &mut self.stats.energy,
                    stats: &mut self.stats.policy,
                };
                self.policy.on_cycle(&mut ctx);
            }
            let mut progress = false;
            if inval_prob > 0.0 && self.rng.chance(inval_prob) {
                self.inject_invalidation();
                progress = true;
            }
            progress |= self.step_pipeline(opts.max_commits);
            if self.halted || self.stopped_early {
                break;
            }
            self.assert_no_deadlock();
            if self.audit.is_some() {
                self.audit_structures();
            }
            if opts.event_skipping && !progress {
                self.fast_forward(opts, inval_prob, has_hook);
            }
        }
        Ok(())
    }

    fn finalize(&mut self) -> SimResult {
        self.stats.cycles = self.cycle.0;
        self.stats.l1i = self.hier.l1i.stats;
        self.stats.l1d = self.hier.l1d.stats;
        self.stats.l2 = self.hier.l2.stats;
        let checksum = arch_checksum(
            &self.rf.arch_int_values(),
            &self.rf.arch_fp_values(),
            &self.mem,
        );
        SimResult {
            stats: self.stats.clone(),
            checksum,
            halted: self.halted,
            // Cloned, not taken: a resumed run keeps appending to the log
            // and the profile it started with.
            commit_log: self.commit_log.clone().unwrap_or_default(),
            profile: self.prof.as_deref().copied(),
            audit: self.audit.take().map(|a| a.into_report()),
        }
    }

    /// Seeds a **fresh** simulator with mid-program state captured from the
    /// functional model: the next program counter, the architectural
    /// register files, the committed memory image, and functionally warmed
    /// cache/branch-predictor/BTB structures. The subsequent
    /// [`Simulator::run`] then behaves as if the machine had been
    /// executing all along — this is the restore half of the sampling
    /// engine's checkpoint machinery.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has already executed anything: the rename
    /// maps, ROB and queues must still be in their pristine reset state.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_checkpoint(
        &mut self,
        pc: u32,
        int_regs: &[u64; 32],
        fp_regs: &[f64; 32],
        mem: SparseMemory,
        hier: MemoryHierarchy,
        bpred: BranchPredictor,
        btb: Btb,
    ) {
        assert!(
            self.cycle.0 == 0 && self.rob.is_empty() && self.stats.committed == 0,
            "restore_checkpoint must precede the first run"
        );
        self.fetch_pc = pc;
        self.rf.set_arch_values(int_regs, fp_regs);
        self.footprint = mem.touched_pages();
        self.mem = mem;
        self.hier = hier;
        self.bpred = bpred;
        self.btb = btb;
    }

    /// The statistics accumulated so far (also returned by [`Simulator::run`]).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The pipeline trace recorded during [`Simulator::run`] (empty unless
    /// [`SimOptions::trace_capacity`] was nonzero).
    pub fn trace(&self) -> &PipelineTrace {
        &self.trace
    }

    fn rob_index_of(&self, age: Age) -> Option<usize> {
        self.rob.binary_search_by_key(&age, |e| e.age).ok()
    }

    fn schedule(&mut self, at: Cycle, age: Age) {
        self.completions.push(Reverse((at.0, age.0)));
    }

    // ----- the event horizon ----------------------------------------------

    /// Runs all five pipeline stages for the current cycle, in commit-first
    /// order. Returns `true` if any stage did observable work — `false`
    /// means the cycle changed nothing but the cycle counter itself (and
    /// one RNG draw, performed by the caller), which is what licenses
    /// fast-forwarding.
    fn step_pipeline(&mut self, max_commits: Option<u64>) -> bool {
        if self.prof.is_some() {
            return self.step_pipeline_profiled(max_commits);
        }
        let mut progress = self.commit(max_commits);
        if self.halted || self.stopped_early {
            return true;
        }
        progress |= self.writeback();
        progress |= self.issue();
        progress |= self.dispatch();
        progress |= self.fetch();
        progress
    }

    fn step_pipeline_profiled(&mut self, max_commits: Option<u64>) -> bool {
        self.prof.as_mut().expect("profiled path").executed_cycles += 1;
        let mut progress = self.timed(0, |s| s.commit(max_commits));
        if self.halted || self.stopped_early {
            return true;
        }
        progress |= self.timed(1, Simulator::writeback);
        progress |= self.timed(2, Simulator::issue);
        progress |= self.timed(3, Simulator::dispatch);
        progress |= self.timed(4, Simulator::fetch);
        progress
    }

    fn timed(&mut self, stage: usize, f: impl FnOnce(&mut Self) -> bool) -> bool {
        let t0 = std::time::Instant::now();
        let did = f(self);
        let p = self.prof.as_mut().expect("profiled path");
        p.stage_nanos[stage] += t0.elapsed().as_nanos() as u64;
        p.stage_active_cycles[stage] += u64::from(did);
        did
    }

    fn assert_no_deadlock(&self) {
        assert!(
            self.cycle.since(self.last_commit_cycle) < 200_000,
            "deadlock: no commit for 200k cycles (policy {}, pc {}, rob {} entries, head done={:?})",
            self.policy.name(),
            self.fetch_pc,
            self.rob.len(),
            self.rob.front().map(|e| e.done),
        );
    }

    /// The first future cycle at which a stalled pipeline can change state:
    /// the earliest of the pending writeback completions, the IQ sleeper
    /// deadlines, the fetch stall release, and the front fetch-queue entry
    /// becoming dispatch-eligible. Capped so the deadlock assertion and the
    /// cycle limit fire at exactly the same cycle as the per-cycle loop.
    /// Returns `None` when no skip of more than one cycle is possible.
    fn next_event_cycle(&self, opts: &SimOptions) -> Option<u64> {
        let now = self.cycle.0;
        let mut e = u64::MAX;
        if let Some(&Reverse((c, _))) = self.completions.peek() {
            e = e.min(c);
        }
        if let Some(&Reverse((until, _))) = self.sleepers.peek() {
            e = e.min(until);
        }
        if !self.fetch_blocked && self.fetch_stall_until.0 > now {
            e = e.min(self.fetch_stall_until.0);
        }
        if let Some(f) = self.fq.front() {
            if f.ready_at.0 > now {
                e = e.min(f.ready_at.0);
            }
        }
        if e == u64::MAX {
            // Nothing in flight anywhere: the per-cycle loop will grind to
            // the deadlock assertion; don't skip over a genuine hang.
            return None;
        }
        let e = e
            .min(self.last_commit_cycle.0.saturating_add(200_000))
            .min(opts.max_cycles.saturating_add(1));
        (e > now + 1).then_some(e)
    }

    /// Jumps from a provably idle cycle to the eve of the next event.
    ///
    /// An idle cycle mutates nothing but the cycle counter and (when
    /// coherence traffic is enabled) one Bernoulli draw, so skipping `n`
    /// such cycles only requires advancing the RNG `n` times and batching
    /// the policy's per-cycle hook. A draw that hits inside the span ends
    /// it early: that cycle injects the invalidation and executes for real,
    /// exactly as the per-cycle loop would have.
    fn fast_forward(&mut self, opts: &SimOptions, inval_prob: f64, has_hook: bool) {
        let Some(target) = self.next_event_cycle(opts) else {
            return;
        };
        let now = self.cycle.0;
        // Last cycle of the idle span (the event cycle itself must run).
        let mut end = target - 1;
        let mut inject = false;
        if inval_prob > 0.0 {
            let mut c = now + 1;
            while c <= end {
                if self.rng.chance(inval_prob) {
                    end = c;
                    inject = true;
                    break;
                }
                c += 1;
            }
        }
        let n = end - now;
        if has_hook {
            let mut ctx = PolicyCtx {
                cycle: self.cycle,
                energy: &mut self.stats.energy,
                stats: &mut self.stats.policy,
            };
            self.policy.on_idle_cycles(&mut ctx, n);
        }
        self.stats.fast_forwards += 1;
        self.stats.skipped_cycles += n - u64::from(inject);
        self.cycle = Cycle(end);
        if inject {
            // The hook and the draw for `end` already ran above; replay the
            // rest of that cycle as the per-cycle loop would.
            self.ports_this_cycle = 0;
            self.inject_invalidation();
            self.step_pipeline(opts.max_commits);
            if self.halted || self.stopped_early {
                return;
            }
            self.assert_no_deadlock();
        }
    }

    // ----- commit ---------------------------------------------------------

    /// Returns `true` if any head instruction was processed (retired,
    /// halted, stopped or replayed) this cycle.
    fn commit(&mut self, max_commits: Option<u64>) -> bool {
        let mut did = false;
        for _ in 0..self.config.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.done {
                break;
            }
            let e = *head;
            match e.class {
                InstClass::Store => {
                    // Data may still be in flight even though AGEN finished.
                    let data_op = e.srcs[1].expect("store has a data operand");
                    if !self.rf.is_ready(data_op) {
                        break;
                    }
                    if self.ports_this_cycle >= self.config.dcache_ports {
                        break;
                    }
                    did = true;
                    self.ports_this_cycle += 1;
                    let span = e.span.expect("committed store has a span");
                    assert!(
                        !e.misaligned,
                        "misaligned store reached commit at pc {}",
                        e.pc
                    );
                    let raw = store_raw(e.inst, self.rf.read(data_op));
                    self.mem.write(span.addr, span.size, raw);
                    self.data_write_access(span.addr);
                    let info = CommitInfo {
                        age: e.age,
                        kind: CommitKind::Store,
                        span: Some(span),
                        safe_load: false,
                        value_correct: true,
                        issue_cycle: e.issue_cycle,
                    };
                    let outcome = self.policy_commit(&info);
                    assert_eq!(outcome, CheckOutcome::Ok, "policies must not replay stores");
                    self.audit_commit(e.age, e.pc, Some(span), Some(raw));
                    self.sq.pop_head(e.age);
                    self.retire_entry(&e);
                    self.stats.stores += 1;
                }
                InstClass::Load => {
                    did = true;
                    let span = e.span.expect("committed load has a span");
                    assert!(
                        !e.misaligned,
                        "misaligned load reached commit at pc {}",
                        e.pc
                    );
                    let raw = e.load_raw.expect("committed load has a value");
                    // All older stores have committed, so memory now holds
                    // the architecturally correct bytes: the replay oracle.
                    let expected = self.mem.read(span.addr, span.size);
                    let value_correct = expected == raw;
                    if !value_correct && e.safe_load && !e.xinv && self.audit.is_some() {
                        // Invariant 4: safe classification promised all older
                        // stores were resolved at issue, so the value was
                        // final then — staleness here breaks the promise no
                        // matter what the policy decides next.
                        self.audit_record(
                            AuditKind::StaleSafeLoad,
                            e.age,
                            e.pc,
                            Some(span),
                            format!("safe load got {raw:#x}, architectural {expected:#x}"),
                        );
                    }
                    if !value_correct && e.xinv {
                        // A cross-core invalidation marked this load after
                        // issue and its value really did go stale: the
                        // snooping load queue replays it at commit
                        // (POWER4-style), before the policy's check even
                        // runs. Not a policy bug — remote stores are
                        // invisible to local disambiguation.
                        self.stats.policy.replays.record(ReplayKind::Coherence);
                        self.replay_squash(e.age);
                        break;
                    }
                    let info = CommitInfo {
                        age: e.age,
                        kind: CommitKind::Load,
                        span: Some(span),
                        safe_load: e.safe_load,
                        value_correct,
                        issue_cycle: e.issue_cycle,
                    };
                    match self.policy_commit(&info) {
                        CheckOutcome::Replay => {
                            self.replay_squash(e.age);
                            break;
                        }
                        CheckOutcome::Ok => {
                            if !value_correct {
                                if self.audit.is_some() {
                                    // Invariant 5: count the missed replay,
                                    // then force the replay ourselves so the
                                    // run stays architecturally sound and
                                    // later misses are counted too. No loop:
                                    // the offending store has committed, so
                                    // the re-issued load reads fresh memory.
                                    self.audit_record(
                                        AuditKind::MissedReplay,
                                        e.age,
                                        e.pc,
                                        Some(span),
                                        format!(
                                            "policy committed stale load: got {raw:#x}, \
                                             architectural {expected:#x}; replay forced"
                                        ),
                                    );
                                    self.replay_squash(e.age);
                                    break;
                                }
                                panic!(
                                    "policy `{}` committed a stale load: pc {} addr {} got {:#x} expected {:#x}",
                                    self.policy.name(),
                                    e.pc,
                                    span.addr,
                                    raw,
                                    expected
                                );
                            }
                            self.audit_commit(e.age, e.pc, Some(span), Some(raw));
                            self.lq.pop_head(e.age);
                            self.retire_entry(&e);
                            self.stats.loads += 1;
                        }
                    }
                }
                InstClass::Branch => {
                    did = true;
                    if let (Inst::Branch { .. }, Some(taken)) = (e.inst, e.actual_taken) {
                        self.bpred.update(e.pc, taken, e.hist);
                        self.stats.branches += 1;
                    }
                    let info = CommitInfo {
                        age: e.age,
                        kind: CommitKind::Other,
                        span: None,
                        safe_load: false,
                        value_correct: true,
                        issue_cycle: None,
                    };
                    self.policy_commit(&info);
                    self.audit_commit(e.age, e.pc, None, None);
                    self.retire_entry(&e);
                }
                InstClass::Halt => {
                    did = true;
                    let info = CommitInfo {
                        age: e.age,
                        kind: CommitKind::Other,
                        span: None,
                        safe_load: false,
                        value_correct: true,
                        issue_cycle: None,
                    };
                    self.policy_commit(&info);
                    self.audit_commit(e.age, e.pc, None, None);
                    self.rob.pop_front();
                    self.note_commit(e.age, e.pc);
                    self.halted = true;
                    break;
                }
                _ => {
                    did = true;
                    let info = CommitInfo {
                        age: e.age,
                        kind: CommitKind::Other,
                        span: None,
                        safe_load: false,
                        value_correct: true,
                        issue_cycle: None,
                    };
                    self.policy_commit(&info);
                    self.audit_commit(e.age, e.pc, None, None);
                    self.retire_entry(&e);
                }
            }
            if let Some(limit) = max_commits {
                if self.stats.committed >= limit {
                    self.stopped_early = true;
                    break;
                }
            }
        }
        did
    }

    // ----- auditing -------------------------------------------------------

    /// Records one violation (no-op when the auditor is off).
    fn audit_record(
        &mut self,
        kind: AuditKind,
        age: Age,
        pc: u32,
        span: Option<MemSpan>,
        detail: String,
    ) {
        let cycle = self.cycle;
        if let Some(aud) = self.audit.as_deref_mut() {
            aud.record(kind, cycle, age, pc, span, detail);
        }
    }

    /// Audits one committed instruction: commit order plus emulator
    /// lockstep (no-op when the auditor is off).
    fn audit_commit(&mut self, age: Age, pc: u32, span: Option<MemSpan>, mem_raw: Option<u64>) {
        let cycle = self.cycle;
        if let Some(aud) = self.audit.as_deref_mut() {
            aud.check_commit(cycle, age, pc, span, mem_raw);
        }
    }

    /// One structural scan (audit invariants 2 and 7): a single merged
    /// pass over the ROB with the LQ/SQ iterators advanced alongside in
    /// age order, then the policy's self-audit. Called once per executed
    /// (non-skipped) cycle; skipped cycles cannot change any structure.
    fn audit_structures(&mut self) {
        let Some(mut aud) = self.audit.take() else {
            return;
        };
        aud.note_scan();
        let cycle = self.cycle;
        if self.rob.len() > self.config.rob_size as usize {
            aud.record(
                AuditKind::QueueShape,
                cycle,
                self.last_committed_age,
                0,
                None,
                format!(
                    "ROB holds {} > {} entries",
                    self.rob.len(),
                    self.config.rob_size
                ),
            );
        }
        let mut lq_it = self.lq.iter().peekable();
        let mut sq_it = self.sq.iter().peekable();
        let mut prev = self.last_committed_age;
        for e in self.rob.iter() {
            if !e.age.is_younger_than(prev) {
                aud.record(
                    AuditKind::QueueShape,
                    cycle,
                    e.age,
                    e.pc,
                    None,
                    format!("ROB not age-sorted: {} after {}", e.age.0, prev.0),
                );
            }
            prev = e.age;
            if lq_it.peek().is_some_and(|l| l.age == e.age) {
                let l = lq_it.next().expect("peeked");
                if e.class != InstClass::Load {
                    aud.record(
                        AuditKind::QueueRobSync,
                        cycle,
                        e.age,
                        e.pc,
                        l.span,
                        "LQ entry maps to a non-load ROB entry".to_string(),
                    );
                }
            }
            if sq_it.peek().is_some_and(|s| s.age == e.age) {
                let s = sq_it.next().expect("peeked");
                if e.class != InstClass::Store {
                    aud.record(
                        AuditKind::QueueRobSync,
                        cycle,
                        e.age,
                        e.pc,
                        s.span,
                        "SQ entry maps to a non-store ROB entry".to_string(),
                    );
                }
            }
        }
        // Leftover LSQ iterator entries are either out of age order (the
        // merge above skipped them) or reference ages absent from the ROB;
        // both break the LSQ ⊆ ROB, age-sorted invariant.
        for l in lq_it {
            aud.record(
                AuditKind::QueueRobSync,
                cycle,
                l.age,
                0,
                l.span,
                "LQ entry out of age order or without a ROB entry".to_string(),
            );
        }
        for s in sq_it {
            aud.record(
                AuditKind::QueueRobSync,
                cycle,
                s.age,
                0,
                s.span,
                "SQ entry out of age order or without a ROB entry".to_string(),
            );
        }
        // INV-bit consistency (coherence invariant): every marked LQ entry
        // must trace back to a real invalidation — injected or delivered by
        // the hub — on its page. Page granularity is exact here: policies
        // mark at line granularity and lines never straddle pages.
        for l in self.lq.iter() {
            if l.inv_marked
                && !l
                    .span
                    .is_some_and(|s| self.seen_inval_pages.contains(&(s.addr.0 >> 12)))
            {
                aud.record(
                    AuditKind::InvBitSync,
                    cycle,
                    l.age,
                    0,
                    l.span,
                    "LQ entry marked invalidated with no matching invalidation".to_string(),
                );
            }
        }
        if let Some(msg) = self.policy.audit_self(&self.lq) {
            aud.record(
                AuditKind::PolicyState,
                cycle,
                self.last_committed_age,
                0,
                None,
                msg,
            );
        }
        self.audit = Some(aud);
    }

    fn policy_commit(&mut self, info: &CommitInfo) -> CheckOutcome {
        let mut ctx = PolicyCtx {
            cycle: self.cycle,
            energy: &mut self.stats.energy,
            stats: &mut self.stats.policy,
        };
        self.policy.on_commit(&mut ctx, info)
    }

    /// Retires a non-replayed head entry: updates the retirement map and
    /// pops the ROB.
    fn retire_entry(&mut self, e: &RobEntry) {
        if let Some((arch, new, _prev_spec)) = e.dest {
            self.rf.retire_dest(arch, new);
        }
        let popped = self.rob.pop_front().expect("head exists");
        debug_assert_eq!(popped.age, e.age);
        self.note_commit(e.age, e.pc);
    }

    fn note_commit(&mut self, age: Age, pc: u32) {
        self.stats.committed += 1;
        self.last_commit_cycle = self.cycle;
        self.last_committed_age = age;
        self.trace.record(self.cycle, age, pc, Stage::Commit);
        if let Some(log) = &mut self.commit_log {
            log.push(pc);
        }
    }

    // ----- writeback ------------------------------------------------------

    /// Returns `true` if any completion was due this cycle (including ones
    /// whose instructions were squashed since issue).
    fn writeback(&mut self) -> bool {
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        while let Some(&Reverse((c, age))) = self.completions.peek() {
            if c <= self.cycle.0 {
                self.completions.pop();
                due.push(age);
            } else {
                break;
            }
        }
        due.sort_unstable();
        let any = !due.is_empty();
        for &age in &due {
            let age = Age(age);
            let Some(idx) = self.rob_index_of(age) else {
                continue;
            }; // squashed
            let e = self.rob[idx];
            match e.class {
                InstClass::Load => {
                    let value = load_value(e.inst, e.load_raw.expect("issued load has raw bytes"));
                    if let Some((_, phys, _)) = e.dest {
                        self.rf.write(phys, value);
                        self.wake(phys);
                    }
                    self.rob[idx].done = true;
                    self.trace.record(self.cycle, age, e.pc, Stage::Writeback);
                }
                InstClass::Store => {
                    self.rob[idx].done = true;
                    self.trace.record(self.cycle, age, e.pc, Stage::Writeback);
                }
                InstClass::Branch => {
                    if let (Some((_, phys, _)), Some(RegValue::Int(link))) = (e.dest, e.result) {
                        self.rf.write(phys, RegValue::Int(link));
                        self.wake(phys);
                    }
                    self.rob[idx].done = true;
                    self.trace.record(self.cycle, age, e.pc, Stage::Writeback);
                    let actual = e.actual_next.expect("branch executed before writeback");
                    if let Inst::Jalr { .. } = e.inst {
                        self.btb.insert(e.pc, actual);
                    }
                    if actual != e.predicted_next {
                        self.handle_mispredict(idx, actual);
                        // Younger due completions now dangle; their ROB
                        // lookups will miss. Stop trusting `idx` values.
                        continue;
                    }
                }
                _ => {
                    if let (Some((_, phys, _)), Some(result)) = (e.dest, e.result) {
                        self.rf.write(phys, result);
                        self.wake(phys);
                    }
                    self.rob[idx].done = true;
                    self.trace.record(self.cycle, age, e.pc, Stage::Writeback);
                }
            }
        }
        self.scratch_due = due;
        any
    }

    fn handle_mispredict(&mut self, branch_idx: usize, actual_next: u32) {
        let b = self.rob[branch_idx];
        self.stats.mispredicts += 1;
        self.squash_from(Age(b.age.0 + 1));
        self.bpred.restore(b.hist);
        if let (Inst::Branch { .. }, Some(taken)) = (b.inst, b.actual_taken) {
            self.bpred.speculate(b.pc, taken);
        }
        self.redirect_fetch(actual_next, self.config.mispredict_penalty);
    }

    /// Flat waiter-list index of a physical register (int file first).
    fn flat_reg(&self, p: PhysReg) -> usize {
        p.idx as usize
            + if p.fp {
                self.config.int_regs as usize
            } else {
                0
            }
    }

    /// Wakes every IQ source slot registered as waiting on `phys`. Stale
    /// records (squashed consumers) are dropped; ages are never reused, so
    /// a stale age cannot alias a live entry. Entries whose last source
    /// arrives join the ready list — unless they are sleeping, in which
    /// case the sleeper drain in [`Simulator::issue`] picks them up.
    fn wake(&mut self, phys: PhysReg) {
        let flat = self.flat_reg(phys);
        let mut list = std::mem::take(&mut self.waiters[flat]);
        for w in &list {
            let woke = {
                let q = if w.fp_queue {
                    &mut self.fp_iq
                } else {
                    &mut self.int_iq
                };
                match q.iter_mut().find(|e| e.age == w.age) {
                    Some(entry) => {
                        debug_assert_eq!(entry.srcs[w.slot as usize], Some(Operand::Phys(phys)));
                        entry.ready[w.slot as usize] = true;
                        entry.ready[0] && entry.ready[1] && entry.sleep_until <= self.cycle
                    }
                    None => false,
                }
            };
            if woke {
                self.insert_ready(w.age);
            }
        }
        list.clear();
        self.waiters[flat] = list;
    }

    /// Adds `age` to the sorted ready list (idempotent).
    fn insert_ready(&mut self, age: Age) {
        if let Err(pos) = self.ready.binary_search(&age) {
            self.ready.insert(pos, age);
        }
    }

    fn remove_ready(&mut self, age: Age) {
        if let Ok(pos) = self.ready.binary_search(&age) {
            self.ready.remove(pos);
        }
    }

    // ----- issue ----------------------------------------------------------

    /// Returns `true` if any issue candidate existed this cycle (even if
    /// structural hazards prevented it from issuing).
    fn issue(&mut self) -> bool {
        let now = self.cycle;
        // Wake sleeping (rejected) loads whose retry deadline arrived.
        // Entries squashed while dozing leave dangling heap records; the
        // IQ membership check drops them.
        while let Some(&Reverse((until, age))) = self.sleepers.peek() {
            if until > now.0 {
                break;
            }
            self.sleepers.pop();
            let age = Age(age);
            let eligible = self
                .int_iq
                .iter()
                .chain(self.fp_iq.iter())
                .any(|e| e.age == age && e.is_ready(now));
            if eligible {
                self.insert_ready(age);
            }
        }
        if self.ready.is_empty() {
            return false;
        }
        // Snapshot the (age-sorted) ready list: the loop below mutates it
        // through remove_iq/sleep_iq as candidates issue.
        let mut cands = std::mem::take(&mut self.scratch_cands);
        cands.clear();
        cands.extend_from_slice(&self.ready);

        let mut budget = UnitBudget {
            int_alu: self.config.int_alu_units,
            int_muldiv: self.config.int_muldiv_units,
            fp_alu: self.config.fp_alu_units,
            fp_muldiv: self.config.fp_muldiv_units,
            issue: self.config.issue_width,
        };

        for &age in &cands {
            if budget.issue == 0 {
                break;
            }
            // A squash earlier in this loop may have removed the entry.
            let Some(rob_idx) = self.rob_index_of(age) else {
                continue;
            };
            if !self.iq_contains(age) {
                continue;
            }
            let class = self.rob[rob_idx].class;
            let unit = match class {
                InstClass::IntAlu | InstClass::Branch | InstClass::Load | InstClass::Store => {
                    &mut budget.int_alu
                }
                InstClass::IntMulDiv => &mut budget.int_muldiv,
                InstClass::FpAlu => &mut budget.fp_alu,
                InstClass::FpMulDiv => &mut budget.fp_muldiv,
                InstClass::Halt | InstClass::Nop => unreachable!("never enter the IQ"),
            };
            if *unit == 0 {
                continue;
            }
            if class == InstClass::Load && self.ports_this_cycle >= self.config.dcache_ports {
                continue;
            }
            *unit -= 1;
            budget.issue -= 1;

            let squashed_something = match class {
                InstClass::Load => self.issue_load(age, rob_idx),
                InstClass::Store => self.issue_store(age, rob_idx),
                _ => {
                    self.issue_compute(age, rob_idx);
                    false
                }
            };
            if squashed_something {
                // The candidate list is stale after any squash.
                break;
            }
        }
        self.scratch_cands = cands;
        true
    }

    fn iq_contains(&self, age: Age) -> bool {
        self.int_iq
            .iter()
            .chain(self.fp_iq.iter())
            .any(|e| e.age == age)
    }

    fn remove_iq(&mut self, age: Age) {
        if let Some(pos) = self.int_iq.iter().position(|e| e.age == age) {
            self.int_iq.swap_remove(pos);
        } else if let Some(pos) = self.fp_iq.iter().position(|e| e.age == age) {
            self.fp_iq.swap_remove(pos);
        } else {
            panic!("issuing an instruction absent from both IQs");
        }
        self.remove_ready(age);
    }

    fn sleep_iq(&mut self, age: Age, until: Cycle) {
        let entry = self
            .int_iq
            .iter_mut()
            .chain(self.fp_iq.iter_mut())
            .find(|e| e.age == age)
            .expect("sleeping an instruction absent from the IQs");
        entry.sleep_until = until;
        self.remove_ready(age);
        self.sleepers.push(Reverse((until.0, age.0)));
    }

    /// Reads up to two renamed sources into a stack buffer; returns the
    /// buffer and the populated length.
    fn read_sources(&self, rob_idx: usize) -> ([RegValue; 2], usize) {
        let e = &self.rob[rob_idx];
        let mut vals = [RegValue::Int(0); 2];
        let mut n = 0;
        for &op in e.srcs.iter().flatten() {
            vals[n] = self.rf.read(op);
            n += 1;
        }
        (vals, n)
    }

    fn issue_compute(&mut self, age: Age, rob_idx: usize) {
        let e = self.rob[rob_idx];
        let (srcs, n) = self.read_sources(rob_idx);
        let out = compute(e.inst, e.pc, &srcs[..n]);
        let entry = &mut self.rob[rob_idx];
        entry.result = out.result;
        entry.actual_next = out.next_pc;
        entry.actual_taken = out.taken;
        entry.issue_cycle = Some(self.cycle);
        let latency = self.latency_of(e.inst, e.class);
        self.remove_iq(age);
        self.schedule(self.cycle.plus(latency), age);
        self.trace.record(self.cycle, age, e.pc, Stage::Issue);
    }

    fn latency_of(&self, inst: Inst, class: InstClass) -> u64 {
        use dmdc_isa::AluOp;
        match class {
            InstClass::IntAlu | InstClass::Branch => self.config.int_alu_latency,
            InstClass::IntMulDiv => match inst {
                Inst::Alu { op: AluOp::Mul, .. } | Inst::AluImm { op: AluOp::Mul, .. } => {
                    self.config.int_mul_latency
                }
                _ => self.config.int_div_latency,
            },
            InstClass::FpAlu => self.config.fp_alu_latency,
            InstClass::FpMulDiv => match inst {
                Inst::Fpu {
                    op: dmdc_isa::FpuOp::Fmul,
                    ..
                } => self.config.fp_mul_latency,
                _ => self.config.fp_div_latency,
            },
            InstClass::Store => 1,
            InstClass::Load | InstClass::Halt | InstClass::Nop => {
                unreachable!("latency handled elsewhere")
            }
        }
    }

    /// Issues a load. Returns `true` if a squash happened (coherence replay).
    fn issue_load(&mut self, age: Age, rob_idx: usize) -> bool {
        let e = self.rob[rob_idx];
        let base = self.read_sources(rob_idx).0[0];
        let size = e.inst.mem_size().expect("load has a size");
        let out = compute(e.inst, e.pc, &[base]);
        let raw_ea = out.ea.expect("load computes an address");
        let (ea, misaligned) = force_align(raw_ea, size);
        let span = MemSpan::new(ea, size);

        // Paper §3 "filtering for stores": a load older than the oldest
        // in-flight store has nothing to forward from or wait on, so with
        // the oldest-store-age register enabled its SQ search is skipped.
        let sq_filterable =
            self.sq.iter().next().map(|s| s.age.is_younger_than(age)) != Some(false);
        if sq_filterable {
            self.stats.sq_filterable_loads += 1;
        }
        if !(sq_filterable && self.config.sq_age_filter) {
            // Conventional forwarding CAM: searched by every other load.
            self.stats.energy.sq_cam_searches += 1;
        }
        let safe = self.sq.all_older_resolved(age);

        enum Path {
            Forward { raw: u64, latency: u64 },
            Memory,
            Reject,
        }
        let path = match self.sq.youngest_older_overlap(age, span) {
            Some(st) => {
                let st_span = st.span.expect("overlap implies resolved");
                if st_span.contains(span) {
                    let st_idx = self
                        .rob_index_of(st.age)
                        .expect("in-flight store is in the ROB");
                    let st_entry = self.rob[st_idx];
                    let data_op = st_entry.srcs[1].expect("store has a data operand");
                    if self.rf.is_ready(data_op) {
                        let sraw = store_raw(st_entry.inst, self.rf.read(data_op));
                        let raw = extract_forwarded(sraw, span.addr.0 - st_span.addr.0, span.size);
                        Path::Forward {
                            raw,
                            latency: self.config.forward_latency,
                        }
                    } else {
                        Path::Reject
                    }
                } else {
                    Path::Reject
                }
            }
            None => Path::Memory,
        };

        match path {
            Path::Reject => {
                // Store queue rejection \[22\]: retry later.
                self.stats.load_rejections += 1;
                self.sleep_iq(age, self.cycle.plus(self.config.reject_retry_delay));
                self.trace.record(self.cycle, age, e.pc, Stage::Reject);
                false
            }
            Path::Forward { raw, latency } => {
                self.finish_load_issue(age, rob_idx, span, raw, latency, true, safe, misaligned)
            }
            Path::Memory => {
                self.ports_this_cycle += 1;
                let latency = self.data_read_access(ea);
                let raw = self.mem.read(ea, size);
                self.finish_load_issue(age, rob_idx, span, raw, latency, false, safe, misaligned)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_load_issue(
        &mut self,
        age: Age,
        rob_idx: usize,
        span: MemSpan,
        raw: u64,
        latency: u64,
        forwarded: bool,
        safe: bool,
        misaligned: bool,
    ) -> bool {
        {
            let entry = &mut self.rob[rob_idx];
            entry.span = Some(span);
            entry.load_raw = Some(raw);
            entry.safe_load = safe;
            entry.forwarded = forwarded;
            entry.issue_cycle = Some(self.cycle);
            entry.misaligned = misaligned;
        }
        {
            let lqe = self.lq.entry_mut(age).expect("load has an LQ entry");
            lqe.span = Some(span);
            lqe.issued = true;
            lqe.safe = safe;
            lqe.issue_cycle = Some(self.cycle);
        }
        self.remove_iq(age);
        self.schedule(self.cycle.plus(latency), age);
        self.trace
            .record(self.cycle, age, self.rob[rob_idx].pc, Stage::Issue);

        let replay = {
            let mut ctx = PolicyCtx {
                cycle: self.cycle,
                energy: &mut self.stats.energy,
                stats: &mut self.stats.policy,
            };
            self.policy
                .on_load_issue(&mut ctx, age, span, safe, &mut self.lq)
        };
        if let Some(target) = replay {
            self.replay_squash(target);
            true
        } else {
            false
        }
    }

    /// Issues (address-generates) a store. Returns `true` on a squash.
    fn issue_store(&mut self, age: Age, rob_idx: usize) -> bool {
        let e = self.rob[rob_idx];
        let size = e.inst.mem_size().expect("store has a size");
        // Only the base register gates AGEN; the data operand is read later
        // by forwarding (if ready) and at commit. `compute` only touches
        // srcs[0] for stores, so a placeholder stands in for the data slot.
        let base = self.rf.read(e.srcs[0].expect("store has a base operand"));
        let out = compute(e.inst, e.pc, &[base, RegValue::Int(0)]);
        let (ea, misaligned) = force_align(out.ea.expect("store computes an address"), size);
        let span = MemSpan::new(ea, size);

        {
            let entry = &mut self.rob[rob_idx];
            entry.span = Some(span);
            entry.issue_cycle = Some(self.cycle);
            entry.misaligned = misaligned;
        }
        self.sq.entry_mut(age).expect("store has an SQ entry").span = Some(span);

        let resolution = {
            let mut ctx = PolicyCtx {
                cycle: self.cycle,
                energy: &mut self.stats.energy,
                stats: &mut self.stats.policy,
            };
            self.policy.on_store_resolve(&mut ctx, age, span, &self.lq)
        };
        self.sq.entry_mut(age).expect("store has an SQ entry").safe = resolution.safe;
        if resolution.safe && self.audit.is_some() {
            // Invariant 3: *safe* promises no younger issued overlapping
            // load exists, wrong-path ones included (they update YLA too).
            if let Some(young) = crate::baseline::search_lq_for_premature_loads(&self.lq, age, span)
            {
                self.audit_record(
                    AuditKind::SafeStoreYoungerLoad,
                    age,
                    e.pc,
                    Some(span),
                    format!(
                        "store declared safe over younger issued load age {}",
                        young.0
                    ),
                );
            }
        }
        self.remove_iq(age);
        self.schedule(self.cycle.plus(1), age);
        self.trace.record(self.cycle, age, e.pc, Stage::Issue);

        if let Some(target) = resolution.replay_from {
            self.replay_squash(target);
            true
        } else {
            false
        }
    }

    // ----- squash machinery ------------------------------------------------

    /// Squashes at `load_age` (inclusive) and refetches from its PC: the
    /// dependence-replay mechanism (POWER4-style group replay).
    fn replay_squash(&mut self, load_age: Age) {
        let idx = self
            .rob_index_of(load_age)
            .expect("replay target must be in flight");
        let pc = self.rob[idx].pc;
        let hist = self.rob[idx].hist;
        self.trace.record(self.cycle, load_age, pc, Stage::Replay);
        self.squash_from(load_age);
        self.bpred.restore(hist);
        self.redirect_fetch(pc, self.config.mispredict_penalty);
        self.stats.replay_squashes += 1;
    }

    /// Removes every instruction with `age >= first` from the pipeline and
    /// rebuilds the speculative rename map.
    fn squash_from(&mut self, first: Age) {
        while let Some(back) = self.rob.back() {
            if back.age < first {
                break;
            }
            let e = self.rob.pop_back().expect("back exists");
            self.stats.squashed += 1;
            self.trace.record(self.cycle, e.age, e.pc, Stage::Squash);
            if let Some((_, new, _)) = e.dest {
                self.rf.free(new);
            }
        }
        self.int_iq.retain(|q| q.age < first);
        self.fp_iq.retain(|q| q.age < first);
        // The ready list is age-sorted: drop the squashed tail. Waiter and
        // sleeper records for squashed entries are dropped lazily (their
        // ages no longer match any IQ entry, and ages are never reused).
        let cut = self.ready.partition_point(|&a| a < first);
        self.ready.truncate(cut);
        self.lq.squash(first);
        self.sq.squash(first);
        self.rf.reset_spec_to_retire();
        for i in 0..self.rob.len() {
            if let Some((arch, new, _)) = self.rob[i].dest {
                self.rf.reapply_spec(arch, new);
            }
        }
        let survivor = self
            .rob
            .back()
            .map(|e| e.age)
            .unwrap_or(self.last_committed_age);
        let mut ctx = PolicyCtx {
            cycle: self.cycle,
            energy: &mut self.stats.energy,
            stats: &mut self.stats.policy,
        };
        self.policy.on_squash(&mut ctx, survivor);
    }

    fn redirect_fetch(&mut self, pc: u32, penalty: u64) {
        self.fq.clear();
        self.fetch_pc = pc;
        self.fetch_blocked = false;
        self.fetch_stall_until = self.cycle.plus(penalty);
        self.last_fetch_line = u64::MAX;
    }

    // ----- dispatch ---------------------------------------------------------

    /// Returns `true` if at least one instruction dispatched this cycle.
    fn dispatch(&mut self) -> bool {
        let mut did = false;
        for _ in 0..self.config.dispatch_width {
            let Some(f) = self.fq.front().copied() else {
                break;
            };
            if f.ready_at > self.cycle {
                break;
            }
            if self.rob.len() >= self.config.rob_size as usize {
                break;
            }
            let class = f.inst.class();
            let needs_iq = !matches!(class, InstClass::Halt | InstClass::Nop);
            if needs_iq {
                let q = if class.is_fp_queue() {
                    &self.fp_iq
                } else {
                    &self.int_iq
                };
                let cap = if class.is_fp_queue() {
                    self.config.fp_iq_size
                } else {
                    self.config.int_iq_size
                };
                if q.len() >= cap as usize {
                    break;
                }
            }
            if let Some(arch) = f.inst.dest() {
                let free = match arch {
                    ArchReg::Int(_) => self.rf.int_free_count(),
                    ArchReg::Fp(_) => self.rf.fp_free_count(),
                };
                if free == 0 {
                    break;
                }
            }
            if class == InstClass::Load && self.lq.is_full() {
                break;
            }
            if class == InstClass::Store && self.sq.is_full() {
                break;
            }

            self.fq.pop_front();
            did = true;
            let age = Age(self.next_age);
            self.next_age += 1;

            let mut srcs: [Option<Operand>; 2] = [None, None];
            for (i, arch) in f.inst.sources().iter().enumerate() {
                srcs[i] = Some(self.rf.rename_source(arch));
            }
            let dest = f.inst.dest().map(|arch| {
                let (new, prev) = self
                    .rf
                    .allocate_dest(arch)
                    .expect("free count checked above");
                (arch, new, prev)
            });

            self.rob.push_back(RobEntry {
                age,
                pc: f.pc,
                inst: f.inst,
                class,
                done: !needs_iq,
                srcs,
                dest,
                result: None,
                predicted_next: f.predicted_next,
                hist: f.hist,
                actual_next: None,
                actual_taken: None,
                span: None,
                load_raw: None,
                safe_load: false,
                forwarded: false,
                issue_cycle: None,
                misaligned: false,
                xinv: false,
            });

            if class == InstClass::Load {
                self.lq.allocate(age);
                self.stats.energy.lq_writes += 1;
            }
            if class == InstClass::Store {
                self.sq.allocate(age);
                self.stats.energy.sq_writes += 1;
            }
            self.trace.record(self.cycle, age, f.pc, Stage::Dispatch);
            if needs_iq {
                // Stores issue (address-generate) as soon as the *base*
                // register is ready; the data operand is handled separately
                // by forwarding and commit (paper §2 footnote: a store is
                // resolved when its address is ready).
                let iq_srcs = if class == InstClass::Store {
                    [srcs[0], None]
                } else {
                    srcs
                };
                let ready = [
                    iq_srcs[0].map(|op| self.rf.is_ready(op)).unwrap_or(true),
                    iq_srcs[1].map(|op| self.rf.is_ready(op)).unwrap_or(true),
                ];
                let entry = IqEntry {
                    age,
                    srcs: iq_srcs,
                    ready,
                    sleep_until: Cycle(0),
                };
                let fp_queue = class.is_fp_queue();
                if fp_queue {
                    self.fp_iq.push(entry);
                } else {
                    self.int_iq.push(entry);
                }
                if ready[0] && ready[1] {
                    self.insert_ready(age);
                } else {
                    // Register each pending slot with its producer; a
                    // not-yet-ready operand is always a physical register.
                    for (slot, (src, rdy)) in iq_srcs.iter().zip(ready).enumerate() {
                        if let (Some(Operand::Phys(p)), false) = (src, rdy) {
                            let flat = self.flat_reg(*p);
                            self.waiters[flat].push(Waiter {
                                age,
                                fp_queue,
                                slot: slot as u8,
                            });
                        }
                    }
                }
            }
        }
        did
    }

    // ----- fetch ------------------------------------------------------------

    /// Returns `true` if fetch did observable work this cycle (an I-cache
    /// access or an instruction pushed). A wild PC or a full fetch queue is
    /// not progress: only a squash or dispatch can unblock those.
    fn fetch(&mut self) -> bool {
        if self.fetch_blocked || self.cycle < self.fetch_stall_until {
            return false;
        }
        let mut did = false;
        let cap = 4 * self.config.fetch_width as usize;
        let mut budget = self.config.fetch_width;
        while budget > 0 && self.fq.len() < cap {
            let Some(inst) = self.program.fetch(self.fetch_pc) else {
                // Wild target (wrong-path jalr): stall until a squash redirects.
                break;
            };
            let pc = self.fetch_pc;
            let text = Program::text_addr(pc);
            let line = text.0 >> self.config.l1i.line_bytes.trailing_zeros();
            if line != self.last_fetch_line {
                did = true;
                let latency = self.hier.inst_access(text);
                self.last_fetch_line = line;
                if latency > self.config.l1i.latency {
                    // I-cache miss: stall; the line is resident on retry.
                    self.fetch_stall_until = self.cycle.plus(latency);
                    break;
                }
            }

            let (predicted_next, hist) = match inst {
                Inst::Branch { target, .. } => {
                    let (taken, snap) = self.bpred.predict(pc);
                    self.bpred.speculate(pc, taken);
                    (if taken { target } else { pc + 1 }, snap)
                }
                Inst::Jal { target, .. } => (target, self.bpred.snapshot()),
                Inst::Jalr { .. } => {
                    let target = self.btb.lookup(pc).unwrap_or(pc + 1);
                    (target, self.bpred.snapshot())
                }
                _ => (pc + 1, self.bpred.snapshot()),
            };

            self.fq.push_back(Fetched {
                pc,
                inst,
                predicted_next,
                hist,
                ready_at: self.cycle.plus(self.config.frontend_latency),
            });
            self.stats.fetched += 1;
            did = true;
            self.fetch_pc = predicted_next;
            budget -= 1;
            if inst == Inst::Halt {
                self.fetch_blocked = true;
                break;
            }
            if inst.is_control() && predicted_next != pc + 1 {
                // One taken control transfer per fetch cycle.
                break;
            }
        }
        did
    }

    // ----- coherence ---------------------------------------------------------

    fn inject_invalidation(&mut self) {
        if self.footprint.is_empty() {
            return;
        }
        let line_bytes = self.config.l2.line_bytes;
        let page = self.footprint[self.rng.next_below(self.footprint.len() as u64) as usize];
        let lines_per_page = 4096 / line_bytes;
        let line_addr = Addr(page.0 + self.rng.next_below(lines_per_page) * line_bytes);
        if self.audit.is_some() {
            self.seen_inval_pages.insert(line_addr.0 >> 12);
        }
        let replay = {
            let mut ctx = PolicyCtx {
                cycle: self.cycle,
                energy: &mut self.stats.energy,
                stats: &mut self.stats.policy,
            };
            self.policy
                .on_invalidation(&mut ctx, line_addr, line_bytes, &mut self.lq)
        };
        if let Some(target) = replay {
            self.replay_squash(target);
        }
    }

    /// A data read on the timing path: routed through the coherence hub in
    /// multi-core runs, the private hierarchy otherwise.
    fn data_read_access(&mut self, addr: Addr) -> u64 {
        match &self.coherence {
            Some((core, hub)) => hub.borrow_mut().read(*core, addr),
            None => self.hier.data_access(addr),
        }
    }

    /// A data write (store commit): same routing as [`Self::data_read_access`].
    fn data_write_access(&mut self, addr: Addr) -> u64 {
        match &self.coherence {
            Some((core, hub)) => hub.borrow_mut().write(*core, addr),
            None => self.hier.data_access(addr),
        }
    }

    // ----- multi-core driver hooks ------------------------------------------
    //
    // The round-robin driver in `multicore.rs` owns the shared memory and
    // the hub; these pub(crate) hooks let it run the single-core machinery
    // one cycle at a time with the shared image swapped in.

    /// Routes this core's data accesses through a coherence hub as `core`.
    pub(crate) fn set_coherence(&mut self, core: usize, hub: Rc<RefCell<CoherenceHub>>) {
        self.coherence = Some((core, hub));
    }

    /// The multi-core counterpart of [`Simulator::run`]'s preamble: arms
    /// tracing/profiling/auditing from `opts` and *empties the private
    /// memory image* — the driver swaps the shared image in around each
    /// step. Emulator-lockstep auditing is disabled (the per-core emulator
    /// cannot see remote stores); all structural and policy invariants
    /// still run.
    pub(crate) fn mc_prepare(&mut self, opts: &SimOptions) {
        self.rng = SplitMix64::new(opts.inval_seed);
        self.trace = PipelineTrace::new(opts.trace_capacity);
        self.commit_log = opts.collect_commit_log.then(Vec::new);
        self.prof = opts.profile.then(Box::default);
        self.audit = opts.audit.then(|| {
            let mut a = Auditor::new(self.program, self.policy.name().to_string());
            a.disable_lockstep();
            Box::new(a)
        });
        self.mem = SparseMemory::new();
    }

    /// Swaps this core's memory image with `mem` (O(1)); the driver brackets
    /// every step and the finalize with a swap-in/swap-out pair.
    pub(crate) fn swap_mem(&mut self, mem: &mut SparseMemory) {
        std::mem::swap(&mut self.mem, mem);
    }

    /// Runs one cycle of the pipeline — the body of [`Simulator::run_loop`]
    /// without Bernoulli injection or event skipping (cores must advance
    /// strictly one cycle per driver cycle to keep the interleaving
    /// deterministic).
    pub(crate) fn mc_step_cycle(&mut self, opts: &SimOptions) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        if self.cycle.0 >= opts.max_cycles {
            return Err(SimError::CycleLimit {
                max_cycles: opts.max_cycles,
                committed: self.stats.committed,
            });
        }
        self.cycle.tick();
        self.ports_this_cycle = 0;
        if self.policy.has_cycle_hook() {
            let mut ctx = PolicyCtx {
                cycle: self.cycle,
                energy: &mut self.stats.energy,
                stats: &mut self.stats.policy,
            };
            self.policy.on_cycle(&mut ctx);
        }
        self.step_pipeline(opts.max_commits);
        if self.halted || self.stopped_early {
            return Ok(());
        }
        self.assert_no_deadlock();
        if self.audit.is_some() {
            self.audit_structures();
        }
        Ok(())
    }

    /// Delivers one cross-core invalidation: marks every in-flight issued
    /// load to the line (`xinv`, the commit-time safety net), then hands the
    /// event to the policy exactly as the Bernoulli injector does. Must be
    /// called with the shared memory swapped in.
    pub(crate) fn deliver_invalidation(&mut self, line_addr: Addr, line_bytes: u64) {
        if self.audit.is_some() {
            self.seen_inval_pages.insert(line_addr.0 >> 12);
        }
        let line = line_addr.cache_line(line_bytes);
        for e in self.rob.iter_mut() {
            if e.class == InstClass::Load
                && e.load_raw.is_some()
                && e.span
                    .is_some_and(|s| s.addr.cache_line(line_bytes) == line)
            {
                e.xinv = true;
            }
        }
        let replay = {
            let mut ctx = PolicyCtx {
                cycle: self.cycle,
                energy: &mut self.stats.energy,
                stats: &mut self.stats.policy,
            };
            self.policy
                .on_invalidation(&mut ctx, line_addr, line_bytes, &mut self.lq)
        };
        if let Some(target) = replay {
            self.replay_squash(target);
        }
    }

    /// Whether this core has committed `halt`.
    pub(crate) fn mc_halted(&self) -> bool {
        self.halted
    }

    /// Final architectural integer registers (litmus observers).
    pub(crate) fn arch_int_regs(&self) -> [u64; 32] {
        self.rf.arch_int_values()
    }

    /// Finalizes a multi-core run (call with the shared memory swapped in
    /// so the checksum covers it).
    pub(crate) fn mc_finalize(&mut self) -> SimResult {
        self.finalize()
    }
}

/// Aligns a (possibly wrong-path garbage) effective address down to its
/// natural alignment. Returns the aligned address and whether alignment was
/// forced — committed-path accesses must never be misaligned, which the
/// commit stage asserts.
fn force_align(ea: Addr, size: AccessSize) -> (Addr, bool) {
    let aligned = ea.align_down(size.bytes());
    (aligned, aligned != ea)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselinePolicy;
    use dmdc_isa::{Assembler, Emulator};

    fn run_program(src: &str) -> (SimResult, u64) {
        let program = Assembler::new().assemble(src).expect("assembles");
        let mut emu = Emulator::new(&program);
        emu.run(10_000_000).expect("emulator halts");
        let mut sim = Simulator::new(
            &program,
            CoreConfig::config2(),
            Box::new(BaselinePolicy::new()),
        );
        let result = sim.run(SimOptions::default()).expect("sim halts");
        (result, emu.state_checksum())
    }

    #[test]
    fn straight_line_arithmetic_matches_emulator() {
        let (r, golden) = run_program("li x1, 7\nmuli x2, x1, 6\naddi x3, x2, -2\nhalt");
        assert!(r.halted);
        assert_eq!(r.checksum, golden);
        assert_eq!(r.stats.committed, 4); // li expands to one addi here
    }

    #[test]
    fn loops_and_branches_match_emulator() {
        let (r, golden) = run_program(
            "        li   x1, 100
                     li   x2, 0
             loop:   add  x2, x2, x1
                     addi x1, x1, -1
                     bne  x1, x0, loop
                     halt",
        );
        assert_eq!(r.checksum, golden);
        assert!(r.stats.branches >= 100);
        assert!(
            r.stats.ipc() > 0.5,
            "a simple loop should pipeline, ipc={}",
            r.stats.ipc()
        );
    }

    #[test]
    fn store_load_forwarding_roundtrip() {
        let (r, golden) = run_program(
            "        li   x1, 0x1000
                     li   x2, 0x77
                     sw   x2, 0(x1)
                     lw   x3, 0(x1)
                     add  x4, x3, x3
                     halt",
        );
        assert_eq!(r.checksum, golden);
    }

    #[test]
    fn memory_dependences_with_pointer_chase() {
        // Build a linked list in memory, then walk it: many load-store
        // dependences with varied addresses.
        let (r, golden) = run_program(
            "        li   x1, 0x2000      # node i at 0x2000 + 16*i
                     li   x2, 0           # i
                     li   x3, 10
             build:  muli x4, x2, 16
                     add  x4, x4, x1      # &node[i]
                     addi x5, x2, 1
                     muli x5, x5, 16
                     add  x5, x5, x1      # &node[i+1]
                     sd   x5, 0(x4)       # node.next
                     sd   x2, 8(x4)       # node.value = i
                     addi x2, x2, 1
                     blt  x2, x3, build
                     # terminate list
                     muli x4, x3, 16
                     add  x4, x4, x1
                     sd   x0, 0(x4)
                     sd   x0, 8(x4)
                     # walk
                     mv   x6, x1
                     li   x7, 0
             walk:   ld   x8, 8(x6)
                     add  x7, x7, x8
                     ld   x6, 0(x6)
                     bne  x6, x0, walk
                     halt",
        );
        assert_eq!(r.checksum, golden);
        assert!(r.stats.loads > 15);
        assert!(r.stats.stores > 15);
    }

    #[test]
    fn fp_kernel_matches_emulator() {
        let (r, golden) = run_program(
            "        li   x1, 0x3000
                     li   x2, 16
                     li   x3, 0
             init:   muli x4, x3, 8
                     add  x4, x4, x1
                     i2f  f1, x3
                     fsd  f1, 0(x4)
                     addi x3, x3, 1
                     blt  x3, x2, init
                     li   x3, 0
                     li   x5, 0
                     i2f  f2, x5
             sum:    muli x4, x3, 8
                     add  x4, x4, x1
                     fld  f3, 0(x4)
                     fadd f2, f2, f3
                     addi x3, x3, 1
                     blt  x3, x2, sum
                     f2i  x6, f2
                     halt",
        );
        assert_eq!(r.checksum, golden);
    }

    #[test]
    fn premature_load_is_caught_and_replayed() {
        // A store whose address depends on a slow divide, followed
        // immediately by a load of the same address: the load will issue
        // before the store resolves, read stale memory, and must be
        // replayed when the store's AGEN completes.
        let (r, golden) = run_program(
            "        li   x1, 0x4000
                     li   x2, 1000
                     li   x3, 10
                     li   x9, 0x11
                     sw   x9, 0(x1)       # memory initially 0x11
                     div  x4, x2, x3      # slow: 100
                     muli x4, x4, 0       # x4 = 0
                     add  x5, x1, x4      # = 0x4000, but late
                     li   x6, 0x22
                     sw   x6, 0(x5)       # store resolves late
                     lw   x7, 0(x1)       # premature load: sees 0x11, must replay to 0x22
                     add  x8, x7, x7
                     halt",
        );
        assert_eq!(r.checksum, golden, "replay must repair the stale load");
        assert!(r.stats.replay_squashes >= 1, "expected at least one replay");
        assert!(r.stats.policy.replays.true_violation >= 1);
    }

    #[test]
    fn load_rejection_on_partial_overlap() {
        // An 8-byte store followed by a 4-byte load contained in it is
        // forwarded; a 4-byte store followed by an 8-byte load overlapping
        // it is a partial match and must reject + retry.
        let (r, golden) = run_program(
            "        li   x1, 0x5000
                     li   x2, -1
                     sd   x2, 0(x1)
                     sw   x0, 0(x1)
                     ld   x3, 0(x1)       # partial: waits for the sw to commit
                     halt",
        );
        assert_eq!(r.checksum, golden);
        assert!(
            r.stats.load_rejections >= 1,
            "partial overlap should reject"
        );
    }

    #[test]
    fn wrong_path_work_is_squashed() {
        // A data-dependent unpredictable branch pattern drives wrong-path
        // fetch; results must still match the emulator.
        let (r, golden) = run_program(
            "        li   x1, 0x6000
                     li   x2, 0          # i
                     li   x3, 200
                     li   x6, 0
             loop:   andi x4, x2, 5
                     andi x5, x2, 3
                     bne  x4, x5, skip   # data-dependent, hard to predict
                     addi x6, x6, 7
                     sw   x6, 0(x1)
             skip:   lw   x7, 0(x1)
                     add  x6, x6, x7
                     addi x2, x2, 1
                     blt  x2, x3, loop
                     halt",
        );
        assert_eq!(r.checksum, golden);
        assert!(
            r.stats.mispredicts > 0,
            "pattern should mispredict sometimes"
        );
        assert!(r.stats.squashed > 0);
        assert!(
            r.stats.fetched > r.stats.committed,
            "wrong-path fetch happened"
        );
    }

    #[test]
    fn jalr_returns_via_btb() {
        let (r, golden) = run_program(
            "        li   x10, 0
                     li   x11, 30
             loop:   jal  x31, addone
                     blt  x10, x11, loop
                     halt
             addone: addi x10, x10, 1
                     jr   x31",
        );
        assert_eq!(r.checksum, golden);
        assert_eq!(r.stats.committed, 2 + 30 * 4 + 1);
    }

    #[test]
    fn max_commits_stops_early() {
        let program = Assembler::new()
            .assemble("loop: addi x1, x1, 1\nj loop\nhalt")
            .unwrap();
        let mut sim = Simulator::new(
            &program,
            CoreConfig::config2(),
            Box::new(BaselinePolicy::new()),
        );
        let opts = SimOptions {
            max_commits: Some(500),
            ..SimOptions::default()
        };
        let r = sim.run(opts).unwrap();
        assert!(!r.halted);
        assert!(r.stats.committed >= 500 && r.stats.committed < 520);
    }

    #[test]
    fn cycle_limit_errors() {
        let program = Assembler::new().assemble("loop: j loop\nhalt").unwrap();
        let mut sim = Simulator::new(
            &program,
            CoreConfig::config2(),
            Box::new(BaselinePolicy::new()),
        );
        let err = sim
            .run(SimOptions {
                max_cycles: 1000,
                ..SimOptions::default()
            })
            .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { .. }), "{err}");
    }

    #[test]
    fn all_three_configs_agree_architecturally() {
        let src = "        li   x1, 0x7000
                           li   x2, 0
                           li   x3, 64
                   loop:   muli x4, x2, 4
                           add  x4, x4, x1
                           mul  x5, x2, x2
                           sw   x5, 0(x4)
                           lw   x6, 0(x4)
                           add  x7, x7, x6
                           addi x2, x2, 1
                           blt  x2, x3, loop
                           halt";
        let program = Assembler::new().assemble(src).unwrap();
        let mut emu = Emulator::new(&program);
        emu.run(1_000_000).unwrap();
        for config in CoreConfig::all() {
            let mut sim = Simulator::new(&program, config.clone(), Box::new(BaselinePolicy::new()));
            let r = sim.run(SimOptions::default()).unwrap();
            assert_eq!(r.checksum, emu.state_checksum(), "{} diverged", config.name);
        }
    }

    #[test]
    fn invalidations_do_not_change_results() {
        let src = "        li   x1, 0x2000
                           li   x2, 0
                           li   x3, 100
                   loop:   andi x4, x2, 63
                           muli x4, x4, 8
                           add  x4, x4, x1
                           sd   x2, 0(x4)
                           ld   x5, 0(x4)
                           add  x6, x6, x5
                           addi x2, x2, 1
                           blt  x2, x3, loop
                           halt";
        let program = Assembler::new()
            .assemble(src)
            .unwrap()
            // Pre-declare the data page so the injector has a footprint.
            .with_data(Addr(0x2000), vec![0u8; 512]);
        let mut emu = Emulator::new(&program);
        emu.run(1_000_000).unwrap();
        let mut sim = Simulator::new(
            &program,
            CoreConfig::config2(),
            Box::new(BaselinePolicy::with_coherence(128)),
        );
        let opts = SimOptions {
            inval_per_kcycle: 100.0,
            inval_seed: 7,
            ..SimOptions::default()
        };
        let r = sim.run(opts).unwrap();
        assert_eq!(r.checksum, emu.state_checksum());
        assert!(
            r.stats.policy.invalidations > 0,
            "invalidations should have been injected"
        );
    }

    #[test]
    fn lq_energy_counters_accumulate() {
        let (r, _) = run_program(
            "        li   x1, 0x1000
                     li   x2, 0
                     li   x3, 50
             loop:   sw   x2, 0(x1)
                     lw   x4, 0(x1)
                     addi x2, x2, 1
                     blt  x2, x3, loop
                     halt",
        );
        assert!(
            r.stats.energy.lq_cam_searches >= 50,
            "every store searches the LQ"
        );
        assert!(
            r.stats.energy.sq_cam_searches >= 50,
            "every load searches the SQ"
        );
        assert!(r.stats.energy.lq_writes >= 50);
        assert!(r.stats.energy.sq_writes >= 50);
    }
}
