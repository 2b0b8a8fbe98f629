//! The statistical-sampling execution engine (SMARTS-style).
//!
//! An exact cell simulates every dynamic instruction in detail. A sampled
//! cell instead:
//!
//! 1. resolves the **population size** `N` (the workload's dynamic
//!    instruction count) from the memoized emulator oracle;
//! 2. **fast-forwards** through the functional emulator, warming a
//!    shadow cache hierarchy, branch predictor and BTB along the way;
//! 3. takes `k` evenly spaced [`Checkpoint`]s — architectural state plus
//!    the functionally warmed structures — and from each runs a short
//!    **detailed window** on a fresh [`Simulator`]: a discarded warmup
//!    prefix that trains the out-of-order structures after the restore,
//!    then a measured suffix;
//! 4. verifies every window's final architectural state against an
//!    emulator replay of the same instruction span (the sampled analogue
//!    of the exact path's end-of-run checksum);
//! 5. **reduces** the per-window deltas into population-scaled counters
//!    plus mean ± 95% confidence intervals (Student-t over the window
//!    means) for the headline rates, carried in
//!    [`SamplingStats`].
//!
//! A sampled cell runs under its [`Context`]: the context's checkpoint
//! store, run directory, in-process checkpoint memo, profile sink and
//! recovery counters are the only state it touches besides the cell.
//!
//! Sampled runs are **crash-resumable**: under `--run-id`, after each
//! checkpoint capture the in-progress state (completed window deltas +
//! the checkpoint itself) is stored on the stores' sealed-file core,
//! under `<run>/samples/<key>.ckpt`. A killed run restores the emulator
//! and warm structures from that envelope and continues; the final cell
//! is byte-identical to an uninterrupted run because every window derives
//! deterministically from its checkpoint.
//!
//! Fast-forward itself runs through [`BlockCode`] — the program
//! pre-decoded into straight-line blocks, executed silently with
//! bit-identical architectural results — and checkpoints persist beyond
//! the run in the content-addressed
//! [`CheckpointStore`](crate::cache::CheckpointStore): keyed on
//! everything the checkpoint depends on *except* the policy (which the
//! detailed windows rebuild from scratch), so policies share checkpoints
//! within a cold run and a warm run fast-forwards nothing at all. A hit
//! does not rebuild the master emulator: only a window that misses, and
//! so must fast-forward, restores the master from the last hit first.
//!
//! A checkpoint holds its warm state as [`WordRuns`] — equal-word runs,
//! on disk (`w` or `w*n`, inside the seal) and in memory alike — and
//! expands a table only when a window restores it, after checking the
//! runs add up to the config's geometry. Most warm state is empty (an
//! invalid L2 line is a `u64::MAX` tag and a `0` stamp), so a checkpoint
//! is tens of kilobytes instead of hundreds, and the memo holds
//! checkpoints at that size.
//!
//! Determinism contract: the master fast-forward, the window placement,
//! the warming rules and the window simulations are all pure functions of
//! `(workload, config, policy, options)` — a sampled cell, like an exact
//! one, is content-addressable. The sampling spec is part of
//! [`SimOptions`], so sampled and exact cells can never share a cache
//! key.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dmdc_isa::{BlockCode, Emulator, Inst, Program, Retired, SilentObserver, SparseMemory};
use dmdc_ooo::{
    to_q32, BranchPredictor, Btb, CacheConfig, CoreConfig, MemoryHierarchy, SampleSpec,
    SamplingStats, SimError, SimOptions, SimStats, Simulator,
};
use dmdc_types::Addr;
use dmdc_workloads::{Scale, Workload};

use crate::cache::{default_fingerprint, workload_digest, Fnv64, SealedDir};
use crate::cell::{CellError, CellResult, FailureKind};
use crate::experiments::PolicyKind;
use crate::recovery::RecoveryKind;
use crate::runner::{Context, SamplingSample};

/// Magic + version line of the persisted partial-progress envelope.
const SAMPLE_MAGIC: &str = "dmdc-sample v2";

/// Bytes per memory page (must match `SparseMemory`'s page geometry:
/// 4 KiB pages).
const PAGE_BYTES: u64 = 4096;

/// Functional-warming horizon: how many retired instructions before each
/// checkpoint warm the shadow cache hierarchy / branch predictor. The
/// stretch before the horizon is pure emulation — cache and predictor
/// history older than this contributes almost nothing to a short window,
/// and skipping it is where sampling's speedup over exact simulation
/// comes from. Must stay a compile-time constant: it is part of the
/// deterministic warming rule that fresh and resumed runs share.
const WARM_HORIZON: u64 = 65_536;

/// The sampling rule every front end shares: paper scale
/// ([`Scale::Full`], intractable exact) samples unless the caller forces
/// exact, and every other scale stays exact unless the caller asks for
/// sampling. `forced` is `Some(true)` for `--sampled`, `Some(false)` for
/// `--exact`.
pub fn spec_for(scale: Scale, forced: Option<bool>) -> SampleSpec {
    if forced.unwrap_or(scale == Scale::Full) {
        SampleSpec::standard()
    } else {
        SampleSpec::EXACT
    }
}

/// One resumable snapshot of mid-program state: the functional
/// architectural state plus the functionally warmed microarchitectural
/// structures, captured just before a detailed window starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Index of the detailed window this checkpoint precedes.
    pub window: u32,
    /// Program counter (instruction index) at the checkpoint.
    pub pc: u32,
    /// Instructions retired before the checkpoint.
    pub retired: u64,
    /// The 32 integer registers.
    pub int_regs: [u64; 32],
    /// The 32 FP registers, as raw bit patterns (exact round-trip).
    pub fp_bits: [u64; 32],
    /// The touched memory pages: `(page base address, words)` where
    /// `words` holds `(word index, value)` pairs — word 0 always (so a
    /// restore re-materializes every touched page, preserving the
    /// invalidation footprint), other words only when nonzero.
    pub pages: Vec<(u64, Vec<(u32, u64)>)>,
    /// Exported L1I state (see `Cache::export_state`), run-length form.
    pub l1i: WordRuns,
    /// Exported L1D state.
    pub l1d: WordRuns,
    /// Exported unified-L2 state.
    pub l2: WordRuns,
    /// Exported branch-predictor state.
    pub bpred: WordRuns,
    /// Exported BTB state.
    pub btb: WordRuns,
}

/// An exported warm-state table in equal-word run-length form — the
/// checkpoint codec's unit on disk and in memory. Most warm state is
/// empty (invalid L2 tags are all `u64::MAX`, cold LRU stamps and the
/// BTB all `0`), so a table of thousands of words is a few dozen runs.
/// The text form is the runs separated by spaces, each `w` (one word) or
/// `w*n` (`n ≥ 2` copies of `w`); a table only ever holds maximal runs,
/// so every table has exactly one text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WordRuns(Vec<(u64, u32)>);

impl WordRuns {
    /// Compresses `words` into maximal runs.
    pub fn from_words(words: &[u64]) -> WordRuns {
        let mut runs: Vec<(u64, u32)> = Vec::new();
        for &w in words {
            match runs.last_mut() {
                Some((last, n)) if *last == w => *n += 1,
                _ => runs.push((w, 1)),
            }
        }
        WordRuns(runs)
    }

    /// The number of runs (not words).
    pub fn runs(&self) -> usize {
        self.0.len()
    }

    /// The words, if they number exactly `len` (a table's geometry);
    /// `None` otherwise, checked before anything is allocated.
    pub fn expand(&self, len: usize) -> Option<Vec<u64>> {
        if self.0.iter().map(|&(_, n)| n as usize).sum::<usize>() != len {
            return None;
        }
        let mut words = Vec::with_capacity(len);
        for &(w, n) in &self.0 {
            words.resize(words.len() + n as usize, w);
        }
        Some(words)
    }

    /// Parses the text form of a table of exactly `len` words. `None` on
    /// any malformation: a count below 2, a missing or non-numeric count,
    /// two adjacent runs of one word, or a total other than `len`. The
    /// total is checked run by run, so no count read from the text ever
    /// sizes an allocation.
    pub fn parse(text: &str, len: usize) -> Option<WordRuns> {
        if text.is_empty() {
            return (len == 0).then(WordRuns::default);
        }
        let mut runs: Vec<(u64, u32)> = Vec::new();
        let mut total = 0usize;
        for token in text.split(' ') {
            let (w, n) = match token.split_once('*') {
                Some((w, n)) => (w.parse().ok()?, n.parse().ok().filter(|&n| n >= 2)?),
                None => (token.parse().ok()?, 1),
            };
            if runs.last().is_some_and(|&(last, _)| last == w) {
                return None;
            }
            total += n as usize;
            if total > len {
                return None;
            }
            runs.push((w, n));
        }
        (total == len).then_some(WordRuns(runs))
    }
}

impl std::fmt::Display for WordRuns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, &(w, n)) in self.0.iter().enumerate() {
            let sep = if i > 0 { " " } else { "" };
            match n {
                1 => write!(f, "{sep}{w}")?,
                _ => write!(f, "{sep}{w}*{n}")?,
            }
        }
        Ok(())
    }
}

/// Words per exported warm-state table under `config`, in [`Checkpoint`]
/// field order (l1i, l1d, l2, bpred, btb): the geometry a checkpoint's
/// runs must add up to. Mirrors the `export_state` layouts — a cache is
/// three counters plus a tag and an LRU stamp per line, the predictor its
/// history plus three tables of 2-bit counters packed eight to a word,
/// the BTB its clock plus three words per entry.
fn geometry(config: &CoreConfig) -> [usize; 5] {
    let cache = |c: &CacheConfig| 3 + 2 * (c.sets() * u64::from(c.ways)) as usize;
    let packed = |entries: u32| (entries as usize).div_ceil(8);
    [
        cache(&config.l1i),
        cache(&config.l1d),
        cache(&config.l2),
        1 + packed(config.bimodal_entries)
            + packed(config.gshare_entries)
            + packed(config.meta_entries),
        1 + 3 * config.btb_entries as usize,
    ]
}

/// The error a checkpoint whose warm state does not fit `config` fails a
/// cell with.
fn misfit(workload: &Workload, config: &CoreConfig) -> CellError {
    CellError::new(
        FailureKind::SimError,
        format!(
            "{}: checkpoint warm state does not fit {}",
            workload.name, config.name
        ),
    )
}

impl Checkpoint {
    /// Captures the master fast-forward state as a checkpoint for window
    /// `window`.
    pub fn capture(window: u32, emu: &Emulator<'_>, warm: &Warmer) -> Checkpoint {
        let mem = emu.memory();
        let mut pages = Vec::new();
        for base in mem.touched_pages() {
            let bytes = mem.page_bytes(base).expect("touched page exists");
            let mut words = Vec::new();
            for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                if i == 0 || v != 0 {
                    words.push((i as u32, v));
                }
            }
            pages.push((base.0, words));
        }
        let mut fp_bits = [0u64; 32];
        for (slot, v) in fp_bits.iter_mut().zip(emu.fp_regs()) {
            *slot = v.to_bits();
        }
        Checkpoint {
            window,
            pc: emu.pc(),
            retired: emu.retired(),
            int_regs: *emu.int_regs(),
            fp_bits,
            pages,
            l1i: WordRuns::from_words(&warm.hier.l1i.export_state()),
            l1d: WordRuns::from_words(&warm.hier.l1d.export_state()),
            l2: WordRuns::from_words(&warm.hier.l2.export_state()),
            bpred: WordRuns::from_words(&warm.bpred.export_state()),
            btb: WordRuns::from_words(&warm.btb.export_state()),
        }
    }

    /// Rebuilds the memory image. Each page is assembled in a local
    /// buffer and installed with one bulk write — this runs twice per
    /// detailed window (simulator restore + reference replay), so the
    /// word-at-a-time path would cost real milliseconds per cell.
    pub fn memory(&self) -> SparseMemory {
        let mut mem = SparseMemory::new();
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        for (base, words) in &self.pages {
            buf.fill(0);
            for &(i, v) in words {
                buf[8 * i as usize..8 * (i as usize + 1)].copy_from_slice(&v.to_le_bytes());
            }
            // Bulk-writing the whole page materializes it even when all
            // words are zero, preserving the captured footprint exactly.
            mem.write_bytes(Addr(*base), &buf);
        }
        mem
    }

    /// Rebuilds a functional emulator positioned at the checkpoint.
    pub fn restore_emulator<'p>(&self, program: &'p Program) -> Emulator<'p> {
        let mut fp_regs = [0.0f64; 32];
        for (slot, &bits) in fp_regs.iter_mut().zip(&self.fp_bits) {
            *slot = f64::from_bits(bits);
        }
        Emulator::restore(
            program,
            self.pc,
            self.int_regs,
            fp_regs,
            self.memory(),
            self.retired,
        )
    }

    /// Rebuilds the warmed cache hierarchy, branch predictor and BTB for
    /// `config`, expanding each table's runs only once their total
    /// matches the config's geometry. `None` if they do not (a checkpoint
    /// captured under another config).
    pub fn warm_state(
        &self,
        config: &CoreConfig,
    ) -> Option<(MemoryHierarchy, BranchPredictor, Btb)> {
        let [l1i, l1d, l2, bpred_len, btb_len] = geometry(config);
        let mut hier = MemoryHierarchy::new(config);
        hier.l1i.import_state(&self.l1i.expand(l1i)?)?;
        hier.l1d.import_state(&self.l1d.expand(l1d)?)?;
        hier.l2.import_state(&self.l2.expand(l2)?)?;
        let mut bpred = BranchPredictor::new(
            config.bimodal_entries,
            config.gshare_entries,
            config.gshare_history_bits,
            config.meta_entries,
        );
        bpred.import_state(&self.bpred.expand(bpred_len)?)?;
        let mut btb = Btb::new(config.btb_entries);
        btb.import_state(&self.btb.expand(btb_len)?)?;
        Some((hier, bpred, btb))
    }

    /// Serializes to the text body the sealed envelope wraps.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "window {}", self.window);
        let _ = writeln!(out, "pc {}", self.pc);
        let _ = writeln!(out, "retired {}", self.retired);
        let _ = writeln!(out, "ints {}", WordRuns::from_words(&self.int_regs));
        let _ = writeln!(out, "fps {}", WordRuns::from_words(&self.fp_bits));
        for (base, words) in &self.pages {
            let _ = write!(out, "page {base}");
            for (i, v) in words {
                let _ = write!(out, " {i}:{v}");
            }
            out.push('\n');
        }
        for (tag, words) in [
            ("l1i", &self.l1i),
            ("l1d", &self.l1d),
            ("l2", &self.l2),
            ("bpred", &self.bpred),
            ("btb", &self.btb),
        ] {
            let _ = writeln!(out, "{tag} {words}");
        }
        out
    }

    /// Approximate in-memory footprint, used by the in-process memo's
    /// byte-cap eviction. Counts the dominant heap payloads (page words
    /// and warm-state runs) plus a fixed allowance for the register files
    /// and struct header; exactness is irrelevant — a consistent estimate
    /// is all FIFO eviction needs.
    pub fn approx_bytes(&self) -> usize {
        let page_words: usize = self.pages.iter().map(|(_, w)| w.len()).sum();
        let runs = self.l1i.runs()
            + self.l1d.runs()
            + self.l2.runs()
            + self.bpred.runs()
            + self.btb.runs();
        // Page words and runs are (u32, u64) pairs ≈ 16 bytes each with
        // padding.
        16 * (page_words + runs) + 8 * 64 + 256
    }

    /// Parses [`Checkpoint::encode`] output from an iterator of lines
    /// (shared with the partial-progress envelope, whose header precedes
    /// the checkpoint). Returns `None` on any malformation, including
    /// warm-state runs that do not add up to `config`'s geometry and page
    /// word indices past the page.
    pub fn decode<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
        config: &CoreConfig,
    ) -> Option<Checkpoint> {
        let window = lines.next()?.strip_prefix("window ")?.parse().ok()?;
        let pc = lines.next()?.strip_prefix("pc ")?.parse().ok()?;
        let retired = lines.next()?.strip_prefix("retired ")?.parse().ok()?;
        let int_regs = parse_array(lines.next()?.strip_prefix("ints ")?)?;
        let fp_bits = parse_array(lines.next()?.strip_prefix("fps ")?)?;
        let mut pages = Vec::new();
        let mut rest = None;
        for line in lines.by_ref() {
            match line.strip_prefix("page ") {
                Some(body) => {
                    let mut parts = body.split(' ');
                    let base: u64 = parts.next()?.parse().ok()?;
                    let mut words = Vec::new();
                    for pair in parts {
                        let (i, v) = pair.split_once(':')?;
                        let i: u32 = i.parse().ok()?;
                        if u64::from(i) >= PAGE_BYTES / 8 {
                            return None;
                        }
                        words.push((i, v.parse().ok()?));
                    }
                    pages.push((base, words));
                }
                None => {
                    rest = Some(line);
                    break;
                }
            }
        }
        let [l1i, l1d, l2, bpred, btb] = geometry(config);
        let tagged = |tag: &str, line: Option<&str>, len: usize| -> Option<WordRuns> {
            WordRuns::parse(line?.strip_prefix(tag)?.strip_prefix(' ')?, len)
        };
        let l1i = tagged("l1i", rest, l1i)?;
        let l1d = tagged("l1d", lines.next(), l1d)?;
        let l2 = tagged("l2", lines.next(), l2)?;
        let bpred = tagged("bpred", lines.next(), bpred)?;
        let btb = tagged("btb", lines.next(), btb)?;
        Some(Checkpoint {
            window,
            pc,
            retired,
            int_regs,
            fp_bits,
            pages,
            l1i,
            l1d,
            l2,
            bpred,
            btb,
        })
    }
}

fn parse_array(body: &str) -> Option<[u64; 32]> {
    WordRuns::parse(body, 32)?.expand(32)?.try_into().ok()
}

// ---------------------------------------------------------------------
// In-process checkpoint memo: the RAM tier above the persistent
// `CheckpointStore`. Checkpoints are policy-independent (see the key
// derivation in `execute_sampled`), so within one context the first cell
// to fast-forward a (workload, config, sampling) stream publishes its
// checkpoints here and every other policy's cells restore instead of
// re-emulating — even under `--no-cache`, which only disables the *disk*
// tiers. Each front end builds one context per process, so there is one
// memo per process. Purely an accelerator: entries are exact
// `Checkpoint` values in their compact run form (a full paper-scale
// suite's 336 checkpoints come to about 7 MB), a miss (or an evicted
// entry) just re-runs the fast-forward, and the memo dies with the
// process, so crash resume never depends on it.

/// FIFO-evicted memo cap, counted by `Checkpoint::approx_bytes`. A full
/// paper-scale suite needs about 7 MB; the cap only guards long-lived
/// processes such as `dmdc serve` that see many sampled streams.
const MEMO_CAP_BYTES: usize = 64 << 20;

/// The in-process checkpoint memo of one [`Context`].
#[derive(Default)]
pub(crate) struct CkptMemo(Mutex<MemoEntries>);

#[derive(Default)]
struct MemoEntries {
    map: HashMap<u64, Arc<Checkpoint>>,
    order: VecDeque<u64>,
    bytes: usize,
}

/// The memo key: the persistent store's key derivation minus the build
/// fingerprint (meaningless within a single process).
fn memo_key(workload_digest: u64, sample_desc: &str, window: u32) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(workload_digest);
    h.write(sample_desc.as_bytes());
    h.write_u64(window as u64);
    h.finish()
}

impl CkptMemo {
    fn entries(&self) -> MutexGuard<'_, MemoEntries> {
        self.0.lock().expect("checkpoint memo poisoned")
    }

    fn load(&self, key: u64) -> Option<Arc<Checkpoint>> {
        self.entries().map.get(&key).cloned()
    }

    fn publish(&self, key: u64, ck: Arc<Checkpoint>) {
        let mut memo = self.entries();
        if memo.map.contains_key(&key) {
            return;
        }
        memo.bytes += ck.approx_bytes();
        memo.map.insert(key, ck);
        memo.order.push_back(key);
        while memo.bytes > MEMO_CAP_BYTES {
            let Some(old) = memo.order.pop_front() else {
                break;
            };
            if let Some(ck) = memo.map.remove(&old) {
                memo.bytes = memo.bytes.saturating_sub(ck.approx_bytes());
            }
        }
    }
}

/// The shadow structures warmed along the functional fast-forward, so a
/// window's detailed simulation starts from trained caches and predictors
/// instead of cold ones. The warming rules are deliberately simple (every
/// retired instruction touches the I-cache; conditional branches train
/// the predictor with their actual outcome; indirect jumps seed the BTB)
/// — what matters is that they are deterministic and applied identically
/// on fresh and resumed runs.
pub struct Warmer {
    hier: MemoryHierarchy,
    bpred: BranchPredictor,
    btb: Btb,
}

impl Warmer {
    /// Cold structures for `config`.
    pub fn new(config: &CoreConfig) -> Warmer {
        Warmer {
            hier: MemoryHierarchy::new(config),
            bpred: BranchPredictor::new(
                config.bimodal_entries,
                config.gshare_entries,
                config.gshare_history_bits,
                config.meta_entries,
            ),
            btb: Btb::new(config.btb_entries),
        }
    }

    /// Warmed structures restored from a checkpoint (for resume).
    fn restore(ck: &Checkpoint, config: &CoreConfig) -> Option<Warmer> {
        let (hier, bpred, btb) = ck.warm_state(config)?;
        Some(Warmer { hier, bpred, btb })
    }

    /// Folds one retired instruction into the warm state. Delegates to
    /// the [`SilentObserver`] hooks so this path and the block-compiled
    /// [`Emulator::run_observed`] warming path share one set of rules.
    pub fn observe(&mut self, r: &Retired) {
        SilentObserver::retire(self, r.pc);
        if let Some(span) = r.mem {
            SilentObserver::mem(self, span.addr);
        }
        match r.inst {
            Inst::Branch { .. } => SilentObserver::branch(self, r.pc, r.taken.unwrap_or(false)),
            Inst::Jalr { .. } => SilentObserver::jalr(self, r.pc, r.next_pc),
            _ => {}
        }
    }
}

impl SilentObserver for Warmer {
    #[inline]
    fn retire(&mut self, pc: u32) {
        self.hier.inst_access(Program::text_addr(pc));
    }

    #[inline]
    fn mem(&mut self, addr: Addr) {
        self.hier.data_access(addr);
    }

    #[inline]
    fn branch(&mut self, pc: u32, taken: bool) {
        let (_, snapshot) = self.bpred.predict(pc);
        self.bpred.speculate(pc, taken);
        self.bpred.update(pc, taken, snapshot);
    }

    #[inline]
    fn jalr(&mut self, pc: u32, next_pc: u32) {
        self.btb.insert(pc, next_pc);
    }
}

/// The resolved window placement for one sampled cell: `windows` disjoint
/// detailed spans carved out of a population of `N` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Effective window count (≤ the spec's, shrunk to fit small
    /// populations).
    pub windows: u64,
    /// Instructions between window starts (`population / windows`).
    pub period: u64,
    /// Detailed-warmup instructions per window (≥ 1).
    pub warmup: u64,
    /// Measured instructions per window.
    pub measure: u64,
}

impl Layout {
    /// Places `spec`'s windows over a population of `population`
    /// instructions. The window count shrinks so every window (warmup +
    /// measurement) fits in half its period; `None` means the population
    /// is too small to sample honestly (fewer than two windows fit) and
    /// the cell should run exactly instead.
    pub fn plan(spec: &SampleSpec, population: u64) -> Option<Layout> {
        if spec.window_insts == 0 {
            return None;
        }
        let warmup = u64::from(spec.warmup_insts).max(1);
        let measure = u64::from(spec.window_insts);
        let per_window = warmup + measure;
        let max_windows = population / (2 * per_window);
        let windows = u64::from(spec.windows).min(max_windows);
        if windows < 2 {
            return None;
        }
        Some(Layout {
            windows,
            period: population / windows,
            warmup,
            measure,
        })
    }

    /// Where window `i`'s checkpoint is taken (instructions retired). The
    /// measured span starts `warmup` instructions later, centred in the
    /// window's period, and always ends before the next period boundary.
    pub fn checkpoint_at(&self, i: u64) -> u64 {
        i * self.period + self.period / 2 - self.warmup
    }
}

/// Executes one cell under the sampling engine. Called from the verified
/// execution funnel when the spec's options ask for sampling; cells whose
/// population is too small fall back to the exact path (still keyed as
/// sampled cells, so the fallback is itself deterministic and cacheable).
pub(crate) fn execute_sampled(
    ctx: &Context,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<CellResult, CellError> {
    let (expected, population) =
        oracle().map_err(|e| CellError::new(FailureKind::OracleMustHalt, e))?;
    let Some(layout) = Layout::plan(&opts.sampling, population) else {
        return crate::experiments::execute_exact(ctx, workload, config, policy_kind, opts, || {
            Ok((expected, population))
        });
    };

    let digest = workload_digest(workload);

    // Partial-progress envelope (crash resume): a sealed entry under the
    // run directory, keyed exactly like the cell itself.
    let envelope = ctx.run_dir.as_ref().map(|run| {
        let desc = format!("{config:?}|{policy_kind:?}|{opts:?}");
        let (dir, key) = partial_envelope(run, default_fingerprint(), digest, &desc);
        (dir.in_context(ctx), key)
    });

    // Shared checkpoint key: checkpoints are a pure function of the
    // program, config, sampling layout and warming horizon — notably NOT
    // of the policy under test — so the description deliberately omits
    // the policy. Within one cold run the first policy's cells populate
    // the in-process memo (and the store, when installed) and every other
    // policy restores from it; a warm run restores everything and
    // fast-forwards nothing.
    let sample_desc = format!(
        "{config:?}|{:?}|pop {population}|horizon {WARM_HORIZON}",
        opts.sampling
    );
    let store = ctx.checkpoints.as_ref();

    let mut deltas: Vec<Vec<u64>> = Vec::new();
    let mut pending: Option<Arc<Checkpoint>> = None;
    if let Some((dir, key)) = &envelope {
        let partial = dir.load(*key, |b| {
            decode_partial(b, &opts.sampling, population, config)
        });
        if let Some(partial) = partial {
            deltas = partial.deltas;
            pending = Some(Arc::new(partial.checkpoint));
            ctx.recovery.record(RecoveryKind::CellResumed);
        }
    }

    // The master fast-forward state, built on the first miss. A
    // checkpoint hit (memo, store or resume envelope) leaves the master
    // where it is and records in `behind` the checkpoint it must catch up
    // to; the next miss restores from that first. A warm run never
    // builds the master, compiles the program or rebuilds a memory image
    // for it.
    let mut master: Option<(Emulator<'_>, Warmer)> = None;
    let mut behind: Option<Arc<Checkpoint>> = pending.clone();
    let mut code: Option<BlockCode> = None;

    let mut compile_nanos = 0u64;
    let mut ff_insts = 0u64;
    let mut ff_nanos = 0u64;
    let mut ff_blocks = 0u64;
    let mut ff_fallback_steps = 0u64;
    let mut ckpt_shared = 0u64;
    let mut window_nanos = 0u64;
    let first = deltas.len() as u64;
    for i in first..layout.windows {
        let checkpoint = match pending.take() {
            Some(ck) => ck,
            None => {
                // In-process memo first (see `CkptMemo`): a hit means an
                // earlier cell in this process — typically the same
                // workload under a different policy — already produced
                // this window's checkpoint. The shared store next.
                let mkey = memo_key(digest, &sample_desc, i as u32);
                let hit = ctx
                    .memo
                    .load(mkey)
                    .inspect(|_| ckpt_shared += 1)
                    .or_else(|| {
                        let s = store?;
                        let key = s.key(digest, &sample_desc, i as u32);
                        let ck = Arc::new(s.load(key, workload.name, i as u32, config)?);
                        ctx.memo.publish(mkey, Arc::clone(&ck));
                        Some(ck)
                    });
                let ck = match hit {
                    Some(ck) => {
                        behind = Some(Arc::clone(&ck));
                        ck
                    }
                    None => {
                        let (mut emu, mut warm) = match behind.take() {
                            Some(ck) => (
                                ck.restore_emulator(&workload.program),
                                Warmer::restore(&ck, config)
                                    .ok_or_else(|| misfit(workload, config))?,
                            ),
                            None => master.take().unwrap_or_else(|| {
                                (Emulator::new(&workload.program), Warmer::new(config))
                            }),
                        };
                        // Pre-decode the program once per cell; every
                        // fast-forward stretch executes through the
                        // compiled blocks.
                        let code = code.get_or_insert_with(|| {
                            let t = Instant::now();
                            let code = BlockCode::compile(&workload.program);
                            compile_nanos = t.elapsed().as_nanos() as u64;
                            code
                        });
                        let target = layout.checkpoint_at(i);
                        let t0 = Instant::now();
                        // Warming horizon: only the last `WARM_HORIZON`
                        // retired instructions before a checkpoint warm
                        // the shadow structures; the stretch before that
                        // emulates silently through the compiled blocks.
                        // The rule is a pure function of position, so a
                        // master restored from an earlier checkpoint
                        // reproduces the same warm state exactly.
                        let silent_until = target.saturating_sub(WARM_HORIZON);
                        let ff_err = |e| {
                            CellError::new(
                                FailureKind::SimError,
                                format!("{} fast-forward failed: {e}", workload.name),
                            )
                        };
                        if emu.retired() < silent_until {
                            ff_insts += silent_until - emu.retired();
                            let stats = emu.run_silent(code, silent_until).map_err(ff_err)?;
                            ff_blocks += stats.blocks;
                            ff_fallback_steps += stats.fallback_steps;
                        }
                        // The warmed stretch runs through the observed
                        // block executor — same events as a
                        // step()+observe loop, none of the per-step
                        // `Retired` overhead.
                        ff_insts += target - emu.retired();
                        emu.run_observed(code, target, &mut warm).map_err(ff_err)?;
                        ff_nanos += t0.elapsed().as_nanos() as u64;
                        let ck = Arc::new(Checkpoint::capture(i as u32, &emu, &warm));
                        master = Some((emu, warm));
                        if let Some(s) = store {
                            s.store(s.key(digest, &sample_desc, i as u32), workload.name, &ck);
                        }
                        ctx.memo.publish(mkey, Arc::clone(&ck));
                        ck
                    }
                };
                if let Some((dir, key)) = &envelope {
                    dir.store(
                        *key,
                        &encode_partial(&opts.sampling, population, &deltas, &ck),
                    );
                }
                ck
            }
        };
        let t0 = Instant::now();
        let delta = run_window(
            ctx,
            workload,
            config,
            policy_kind,
            opts,
            &layout,
            &checkpoint,
        )?;
        window_nanos += t0.elapsed().as_nanos() as u64;
        deltas.push(delta);
    }
    if let Some((dir, key)) = &envelope {
        dir.remove(*key);
    }
    if ctx.profile.is_some() {
        // Export order puts cycles first and committed second (see
        // `SimStats::export_values`), so the per-window deltas carry the
        // per-mode cycle counters directly.
        ctx.record_sampling(SamplingSample {
            ff_insts,
            ff_nanos,
            compile_nanos,
            ff_blocks,
            ff_fallback_steps,
            ckpt_shared,
            window_nanos,
            window_cycles: deltas.iter().map(|d| d[0]).sum(),
            window_committed: deltas.iter().map(|d| d[1]).sum(),
        });
    }
    reduce(workload, &layout, population, &deltas).ok_or_else(|| {
        CellError::new(
            FailureKind::SimError,
            format!("{}: sampled windows measured nothing", workload.name),
        )
    })
}

/// Runs one detailed window from `checkpoint`: a fresh simulator seeded
/// with the checkpoint state runs the discarded warmup, then resumes for
/// the measured span; the returned delta is the element-wise difference
/// of the two phases' exported stats (absolute warm offsets cancel). The
/// window's final architectural state is verified against a functional
/// replay of the same instruction span.
fn run_window(
    ctx: &Context,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
    layout: &Layout,
    checkpoint: &Checkpoint,
) -> Result<Vec<u64>, CellError> {
    let (hier, bpred, btb) = checkpoint
        .warm_state(config)
        .ok_or_else(|| misfit(workload, config))?;
    let mut fp_regs = [0.0f64; 32];
    for (slot, &bits) in fp_regs.iter_mut().zip(&checkpoint.fp_bits) {
        *slot = f64::from_bits(bits);
    }
    let mut sim = Simulator::new(&workload.program, config.clone(), policy_kind.build(config));
    sim.restore_checkpoint(
        checkpoint.pc,
        &checkpoint.int_regs,
        &fp_regs,
        checkpoint.memory(),
        hier,
        bpred,
        btb,
    );
    let mut wopts = opts;
    // The auditor's lockstep emulator starts at the program entry, so it
    // cannot audit a mid-program restore; windows also never collect
    // traces or commit logs (the deltas are the product).
    wopts.audit = false;
    wopts.collect_commit_log = false;
    wopts.trace_capacity = 0;
    wopts.max_commits = Some(layout.warmup);
    let sim_err = |e: SimError| {
        CellError::new(
            FailureKind::SimError,
            format!(
                "{} window {} under {policy_kind:?} on {}: {e}",
                workload.name, checkpoint.window, config.name
            ),
        )
    };
    let a = sim.run(wopts).map_err(sim_err)?;
    if a.halted {
        return Err(CellError::new(
            FailureKind::SimError,
            format!(
                "{} window {}: warmup ran into halt (bad layout)",
                workload.name, checkpoint.window
            ),
        ));
    }
    let base = a.stats.export_values();
    wopts.max_commits = Some(layout.warmup + layout.measure);
    let b = sim.resume(wopts).map_err(sim_err)?;
    let mut reference = checkpoint.restore_emulator(&workload.program);
    reference.run_for(b.stats.committed).map_err(|e| {
        CellError::new(
            FailureKind::SimError,
            format!(
                "{} window {} reference replay failed: {e}",
                workload.name, checkpoint.window
            ),
        )
    })?;
    if reference.state_checksum() != b.checksum {
        return Err(CellError::new(
            FailureKind::StateDivergence,
            format!(
                "sampled-window state mismatch: {} window {} under {policy_kind:?} on {}: simulated {:#x}, emulator {:#x}",
                workload.name,
                checkpoint.window,
                config.name,
                b.checksum,
                reference.state_checksum()
            ),
        ));
    }
    if let Some(profile) = &b.profile {
        ctx.record_profile(profile, &b.stats);
    }
    Ok(b.stats
        .export_values()
        .iter()
        .zip(&base)
        .map(|(after, before)| after.wrapping_sub(*before))
        .collect())
}

/// Reduces the per-window deltas into the cell's population estimate:
/// counters scale by `population / measured-instructions`, the headline
/// rates carry Student-t 95% confidence intervals over the window means.
fn reduce(
    workload: &Workload,
    layout: &Layout,
    population: u64,
    deltas: &[Vec<u64>],
) -> Option<CellResult> {
    let mut sums = vec![0u64; SimStats::EXPORT_LEN];
    for delta in deltas {
        for (sum, v) in sums.iter_mut().zip(delta) {
            *sum = sum.wrapping_add(*v);
        }
    }
    let measured = SimStats::from_export_values(&sums)?.committed;
    if measured == 0 {
        return None;
    }
    let scaled: Vec<u64> = sums
        .iter()
        .map(|&v| ((v as u128 * population as u128) / measured as u128) as u64)
        .collect();
    let mut stats = SimStats::from_export_values(&scaled)?;
    let windows: Vec<SimStats> = deltas
        .iter()
        .filter_map(|d| SimStats::from_export_values(d))
        .collect();
    let ipc = mean_ci(&windows, |w| w.ipc());
    // Replay counts are Poisson-rare: the between-window t-interval is
    // floored by the rule-of-three upper bound, so "no replays observed"
    // never claims certainty that the true rate is zero.
    let replays = {
        let (mean, ci) = mean_ci(&windows, |w| w.per_million(w.replay_squashes));
        (mean, ci.max(3.0e6 / measured as f64))
    };
    let filter = ratio_ci(&windows, |w| {
        (
            w.policy.safe_stores as f64,
            (w.policy.safe_stores + w.policy.unsafe_stores) as f64,
        )
    });
    let safe = ratio_ci(&windows, |w| {
        (
            w.policy.safe_loads as f64,
            (w.policy.safe_loads + w.policy.unsafe_loads) as f64,
        )
    });
    stats.sampling = SamplingStats {
        windows: layout.windows,
        population,
        sampled_committed: measured,
        ipc_mean_q: to_q32(ipc.0),
        ipc_ci_q: to_q32(ipc.1),
        replays_per_m_mean_q: to_q32(replays.0),
        replays_per_m_ci_q: to_q32(replays.1),
        filter_rate_mean_q: to_q32(filter.0),
        filter_rate_ci_q: to_q32(filter.1),
        safe_load_rate_mean_q: to_q32(safe.0),
        safe_load_rate_ci_q: to_q32(safe.1),
    };
    Some(CellResult {
        workload: workload.name.to_string(),
        group: workload.group,
        stats,
    })
}

/// Ratio estimate `ΣA/ΣB` over the windows with a delta-method 95%
/// half-width — the estimator for rates whose denominator is an *event
/// count* (store resolutions, load issues) rather than a per-window
/// constant. A plain mean of per-window rates would count an event-free
/// window as "rate 0" and drift away from the ratio of scaled totals the
/// cell actually reports; this estimator is centered on that ratio.
///
/// When no window observed a single denominator event the rate is
/// unidentified, and the half-width is 1.0 — the whole range of a
/// bounded rate — rather than a confident 0. With events observed, the
/// half-width is floored at `1/√(ΣB)`, the worst-case binomial bound on
/// a proportion estimated from ΣB trials: windows that all agree (e.g.
/// every one saw rate 1.0) have zero between-window variance, but a few
/// hundred Bernoulli trials still cannot pin the rate down tighter than
/// that — and evenly spaced windows can systematically miss event
/// clusters the between-window variance knows nothing about.
fn ratio_ci(windows: &[SimStats], parts: impl Fn(&SimStats) -> (f64, f64)) -> (f64, f64) {
    let ab: Vec<(f64, f64)> = windows.iter().map(parts).collect();
    let k = ab.len();
    let total_b: f64 = ab.iter().map(|(_, b)| b).sum();
    if total_b == 0.0 {
        return (0.0, 1.0);
    }
    let ratio = ab.iter().map(|(a, _)| a).sum::<f64>() / total_b;
    if k < 2 {
        return (ratio, 0.0);
    }
    // Delta method: var(R) ≈ Σ(A_w − R·B_w)² / (B̄²·k·(k−1)) with B̄ the
    // mean denominator per window.
    let mean_b = total_b / k as f64;
    let ss: f64 = ab
        .iter()
        .map(|(a, b)| {
            let r = a - ratio * b;
            r * r
        })
        .sum();
    let var = ss / (mean_b * mean_b * k as f64 * (k - 1) as f64);
    let ci = (t95(k - 1) * var.sqrt()).max(1.0 / total_b.sqrt());
    (ratio, ci.min(1.0))
}

/// Sample mean and 95% confidence half-width of `metric` over the windows.
fn mean_ci(windows: &[SimStats], metric: impl Fn(&SimStats) -> f64) -> (f64, f64) {
    let samples: Vec<f64> = windows.iter().map(metric).collect();
    let k = samples.len();
    if k == 0 {
        return (0.0, 0.0);
    }
    let mean = samples.iter().sum::<f64>() / k as f64;
    if k < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (k - 1) as f64;
    let se = (var / k as f64).sqrt();
    (mean, t95(k - 1) * se)
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (normal approximation past 30).
fn t95(df: usize) -> f64 {
    const T: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        T[0]
    } else if df <= T.len() {
        T[df - 1]
    } else {
        1.96
    }
}

/// The deserialized partial-progress envelope: deltas of the windows
/// completed before the crash plus the checkpoint for the next one.
struct Partial {
    deltas: Vec<Vec<u64>>,
    checkpoint: Checkpoint,
}

/// Renders the partial-progress envelope body stored after each
/// checkpoint capture (each store is a durable write, so kill-after
/// faults can land mid-cell in crash tests).
fn encode_partial(
    spec: &SampleSpec,
    population: u64,
    deltas: &[Vec<u64>],
    checkpoint: &Checkpoint,
) -> String {
    use std::fmt::Write as _;
    let mut body = String::new();
    let _ = writeln!(body, "{SAMPLE_MAGIC} {}", SimStats::EXPORT_LEN);
    let _ = writeln!(
        body,
        "spec {} {} {}",
        spec.windows, spec.window_insts, spec.warmup_insts
    );
    let _ = writeln!(body, "population {population}");
    let _ = writeln!(body, "done {}", deltas.len());
    for delta in deltas {
        let _ = writeln!(body, "delta {}", WordRuns::from_words(delta));
    }
    body.push_str(&checkpoint.encode());
    body
}

/// Decodes and validates a partial-progress envelope body; any mismatch
/// (schema, spec, population, window-count consistency) quarantines the
/// envelope and degrades to a fresh start, never an error.
fn decode_partial(
    body: &str,
    spec: &SampleSpec,
    population: u64,
    config: &CoreConfig,
) -> Option<Partial> {
    let mut lines = body.lines();
    let export_len: usize = lines
        .next()?
        .strip_prefix(SAMPLE_MAGIC)?
        .trim()
        .parse()
        .ok()?;
    if export_len != SimStats::EXPORT_LEN {
        return None;
    }
    let spec_line = lines.next()?.strip_prefix("spec ")?;
    let fields: Vec<u32> = spec_line
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields != [spec.windows, spec.window_insts, spec.warmup_insts] {
        return None;
    }
    let pop: u64 = lines.next()?.strip_prefix("population ")?.parse().ok()?;
    if pop != population {
        return None;
    }
    let done: usize = lines.next()?.strip_prefix("done ")?.parse().ok()?;
    let mut deltas = Vec::new();
    for _ in 0..done {
        let runs = WordRuns::parse(lines.next()?.strip_prefix("delta ")?, SimStats::EXPORT_LEN)?;
        deltas.push(runs.expand(SimStats::EXPORT_LEN)?);
    }
    let checkpoint = Checkpoint::decode(&mut lines, config)?;
    if checkpoint.window as usize != done || lines.next().is_some() {
        return None;
    }
    Some(Partial { deltas, checkpoint })
}

/// A run directory's partial-progress envelopes (`<run>/samples/<key>.ckpt`)
/// and one cell's key among them: the cell-cache key formula (simulator
/// fingerprint ‖ workload digest ‖ cell description), so an envelope a
/// rebuilt simulator left behind under a reused run id is a miss rather
/// than a restore.
fn partial_envelope(
    run_dir: &Path,
    fingerprint: String,
    digest: u64,
    desc: &str,
) -> (SealedDir, u64) {
    let dir = SealedDir::new(run_dir.join("samples"), "ckpt", fingerprint);
    let key = dir.hasher(digest).write(desc.as_bytes()).finish();
    (dir, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdc_workloads::{int_suite, Scale};

    fn warm_checkpoint(insts: u64) -> (Workload, Checkpoint) {
        let w = int_suite(Scale::Smoke).remove(0);
        let config = CoreConfig::config2();
        let mut emu = Emulator::new(&w.program);
        let mut warm = Warmer::new(&config);
        while emu.retired() < insts {
            let r = emu.step().expect("steps");
            warm.observe(&r);
        }
        let ck = Checkpoint::capture(3, &emu, &warm);
        (w, ck)
    }

    #[test]
    fn checkpoint_encode_decode_roundtrips() {
        let (_w, ck) = warm_checkpoint(5_000);
        let text = ck.encode();
        let back = Checkpoint::decode(&mut text.lines(), &CoreConfig::config2()).expect("decodes");
        assert_eq!(back, ck);
    }

    #[test]
    fn geometry_matches_the_exported_tables() {
        for config in CoreConfig::all() {
            let warm = Warmer::new(&config);
            let exported = [
                warm.hier.l1i.export_state().len(),
                warm.hier.l1d.export_state().len(),
                warm.hier.l2.export_state().len(),
                warm.bpred.export_state().len(),
                warm.btb.export_state().len(),
            ];
            assert_eq!(geometry(&config), exported, "{}", config.name);
        }
    }

    #[test]
    fn cold_warm_state_is_a_handful_of_runs() {
        let config = CoreConfig::config2();
        let (w, ck) = warm_checkpoint(5_000);
        let cold = Checkpoint::capture(0, &Emulator::new(&w.program), &Warmer::new(&config));
        // tick, hits, misses, then one run of invalid tags and one of
        // zero LRU stamps.
        assert_eq!(cold.l2.runs(), 3);
        assert_eq!(cold.btb.runs(), 1);
        // Warmed, the L2 is still mostly invalid lines.
        assert!(
            ck.l2.runs() < geometry(&config)[2] / 10,
            "{} runs",
            ck.l2.runs()
        );
    }

    #[test]
    fn hostile_run_counts_decode_to_none() {
        let config = CoreConfig::config2();
        let (_w, ck) = warm_checkpoint(2_000);
        let text = ck.encode();
        let l2 = geometry(&config)[2];
        let l2_line = text.lines().find(|l| l.starts_with("l2 ")).unwrap();
        let hostile = [
            "0*0".to_string(),
            "0*1".to_string(),
            "*".to_string(),
            "0*".to_string(),
            "*7".to_string(),
            "0*x".to_string(),
            "0*-3".to_string(),
            "0**2".to_string(),
            format!("0*{}", l2 + 1),
            format!("0*{}", 1u64 << 40),
            format!("0*{} 0*{}", l2 / 2, l2 - l2 / 2),
            format!("0*{}", l2 - 1),
            String::new(),
        ];
        for runs in &hostile {
            let body = text.replace(l2_line, &format!("l2 {runs}"));
            assert!(
                Checkpoint::decode(&mut body.lines(), &config).is_none(),
                "`l2 {runs}` must not decode"
            );
            assert!(WordRuns::parse(runs, l2).is_none(), "`{runs}`");
        }
        // The same table at its own geometry decodes; a word index past
        // the page does not.
        assert!(WordRuns::parse(&format!("0*{l2}"), l2).is_some());
        let page = text.lines().find(|l| l.starts_with("page ")).unwrap();
        let body = text.replace(page, &format!("{page} 512:1"));
        assert!(Checkpoint::decode(&mut body.lines(), &config).is_none());
        // A config with another geometry rejects the checkpoint outright.
        let mut smaller = config.clone();
        smaller.l2.size_bytes /= 2;
        assert!(Checkpoint::decode(&mut text.lines(), &smaller).is_none());
        assert!(ck.warm_state(&smaller).is_none());
    }

    #[test]
    fn restored_emulator_continues_identically() {
        let (w, ck) = warm_checkpoint(2_000);
        // The pristine emulator, stepped past the checkpoint.
        let mut straight = Emulator::new(&w.program);
        while straight.retired() < 2_500 {
            straight.step().unwrap();
        }
        let mut resumed = ck.restore_emulator(&w.program);
        assert_eq!(resumed.retired(), 2_000);
        while resumed.retired() < 2_500 {
            resumed.step().unwrap();
        }
        assert_eq!(resumed.state_checksum(), straight.state_checksum());
        assert_eq!(resumed.pc(), straight.pc());
    }

    #[test]
    fn checkpoint_store_roundtrips_and_keys_invalidate() {
        use crate::cache::CheckpointStore;
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/dmdc-ckpt-store-unit-test");
        let _ = std::fs::remove_dir_all(&root);
        let (w, ck) = warm_checkpoint(2_000);
        let config = CoreConfig::config2();
        let digest = workload_digest(&w);
        let store = CheckpointStore::with_fingerprint(&root, "fp-a");
        let key = store.key(digest, "desc", ck.window);

        assert!(
            store.load(key, w.name, ck.window, &config).is_none(),
            "cold miss"
        );
        store.store(key, w.name, &ck);
        assert_eq!(
            store.load(key, w.name, ck.window, &config).as_ref(),
            Some(&ck),
            "stored checkpoint must round-trip exactly"
        );
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 1, 1));

        // Any keyed input moving moves the key: workload content,
        // sampling description (config/spec/population/horizon), window
        // index and the simulator fingerprint.
        assert_ne!(key, store.key(digest ^ 1, "desc", ck.window));
        assert_ne!(key, store.key(digest, "other-desc", ck.window));
        assert_ne!(key, store.key(digest, "desc", ck.window + 1));
        let bumped = CheckpointStore::with_fingerprint(&root, "fp-b");
        assert_ne!(key, bumped.key(digest, "desc", ck.window));

        // A checkpoint stored under a colliding key for a *different*
        // workload or window is stale: quarantined, never returned.
        assert!(store
            .load(key, "some-other-workload", ck.window, &config)
            .is_none());
        let c = store.counters();
        assert_eq!(c.corrupt, 1, "workload mismatch quarantines");
        assert!(
            store.load(key, w.name, ck.window, &config).is_none(),
            "the quarantined file must be gone"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn partial_envelope_is_keyed_on_the_fingerprint() {
        let run = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/dmdc-partial-envelope-unit-test");
        let _ = std::fs::remove_dir_all(&run);
        let (w, ck) = warm_checkpoint(2_000);
        let digest = workload_digest(&w);
        let spec = SampleSpec::default();
        let deltas = vec![vec![7; SimStats::EXPORT_LEN]; ck.window as usize];
        let config = CoreConfig::config2();
        let decode = |b: &str| decode_partial(b, &spec, 50_000, &config);
        let (dir_a, key_a) = partial_envelope(&run, "fp-a".into(), digest, "desc");
        dir_a.store(key_a, &encode_partial(&spec, 50_000, &deltas, &ck));
        let back = dir_a
            .load(key_a, decode)
            .expect("same fingerprint restores");
        assert_eq!((back.deltas, back.checkpoint), (deltas, ck));

        // A rebuilt simulator (bumped fingerprint) resuming the same run id
        // must not find the old binary's window deltas.
        let (dir_b, key_b) = partial_envelope(&run, "fp-b".into(), digest, "desc");
        assert!(dir_b.load(key_b, decode).is_none());
        let _ = std::fs::remove_dir_all(&run);
    }

    #[test]
    fn layout_windows_fit_inside_population() {
        let spec = SampleSpec {
            windows: 24,
            window_insts: 1_500,
            warmup_insts: 1_500,
        };
        let layout = Layout::plan(&spec, 1_000_000).expect("fits");
        assert_eq!(layout.windows, 24);
        for i in 0..layout.windows {
            let ck = layout.checkpoint_at(i);
            let end = ck + layout.warmup + layout.measure;
            assert!(end <= 1_000_000, "window {i} spills past the population");
            if i > 0 {
                assert!(
                    ck >= layout.checkpoint_at(i - 1) + layout.warmup + layout.measure,
                    "window {i} overlaps its predecessor"
                );
            }
        }
    }

    #[test]
    fn layout_shrinks_or_rejects_small_populations() {
        let spec = SampleSpec {
            windows: 24,
            window_insts: 1_000,
            warmup_insts: 1_000,
        };
        let shrunk = Layout::plan(&spec, 20_000).expect("a few windows fit");
        assert!(shrunk.windows >= 2 && shrunk.windows < 24);
        assert!(Layout::plan(&spec, 7_000).is_none(), "too small to sample");
        let degenerate = SampleSpec {
            windows: 8,
            window_insts: 0,
            warmup_insts: 100,
        };
        assert!(Layout::plan(&degenerate, 1_000_000).is_none());
    }

    #[test]
    fn sampled_cell_estimates_exact_ipc() {
        let w = int_suite(Scale::Default).remove(6); // histo: large population
        let config = CoreConfig::config2();
        let exact = crate::experiments::run_workload(
            &w,
            &config,
            &crate::experiments::PolicyKind::DmdcGlobal,
            SimOptions::default(),
        );
        let opts = SimOptions {
            sampling: SampleSpec {
                windows: 12,
                window_insts: 1_000,
                warmup_insts: 1_000,
            },
            ..SimOptions::default()
        };
        let sampled = crate::experiments::run_workload(
            &w,
            &config,
            &crate::experiments::PolicyKind::DmdcGlobal,
            opts,
        );
        let s = sampled.stats.sampling;
        assert!(sampled.stats.is_sampled(), "sampling must engage");
        assert_eq!(s.windows, 12);
        assert_eq!(s.population, exact.stats.committed);
        assert!(
            sampled.stats.committed.abs_diff(exact.stats.committed) <= 12,
            "scaled commits ({}) must approximate the population ({})",
            sampled.stats.committed,
            exact.stats.committed
        );
        assert!(s.ipc_ci() > 0.0, "a multi-window run must report a CI");
        let err = (s.ipc_mean() - exact.stats.ipc()).abs();
        assert!(
            err <= s.ipc_ci().max(0.15 * exact.stats.ipc()),
            "sampled IPC {} ± {} too far from exact {}",
            s.ipc_mean(),
            s.ipc_ci(),
            exact.stats.ipc()
        );
    }

    #[test]
    fn t_table_is_monotone_toward_the_normal() {
        let mut prev = f64::INFINITY;
        for df in 1..=40 {
            let t = t95(df);
            assert!(t <= prev, "t must not increase with df");
            assert!(t >= 1.9);
            prev = t;
        }
    }
}
