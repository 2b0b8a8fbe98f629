//! Persistent content-addressed cache of verified experiment cells.
//!
//! Re-running `dmdc suite` or `dmdc experiment` repeats mostly identical
//! simulations: the cell matrix is deterministic, and a cell's entire
//! output — its [`CellResult`] — is a pure function of the run
//! specification, the workload's program bytes and the simulator's
//! semantics. This module keys each cell on exactly those three inputs:
//!
//! ```text
//! key = fnv64( fingerprint ‖ workload digest ‖ RunSpec description )
//! ```
//!
//! * **fingerprint** — [`dmdc_ooo::SIM_FINGERPRINT`] combined with this
//!   crate's [`POLICY_FINGERPRINT`]; bumped by hand whenever a change
//!   alters any number a simulation reports. Bumping invalidates every
//!   cached cell at once.
//! * **workload digest** — [`workload_digest`]: the workload's name,
//!   group, entry point, encoded instruction words and initial data
//!   segments. Editing one byte of one kernel invalidates exactly that
//!   kernel's cells.
//! * **RunSpec description** — the `Debug` rendering of the cell's
//!   [`CoreConfig`],
//!   [`PolicyKind`](crate::experiments::PolicyKind) and
//!   [`SimOptions`](dmdc_ooo::SimOptions), which spells out every field
//!   value; any config/policy/option change moves the key.
//!
//! Cells are stored one file per key (`<key>.cell`), each wrapped in the
//! checksummed [`seal`] envelope — a format-version header plus an fnv64
//! content checksum — around the versioned [`CellResult::to_record`]
//! body. Writes go through a temporary file plus rename, so concurrent
//! processes never observe a torn record. On load the envelope is
//! verified first: a truncated, bit-flipped, checksum-mismatched or
//! version-mismatched file is **quarantined** to `quarantine/` under the
//! cache root (never silently deserialized), counted in [`CacheCounters`]
//! and in the [recovery counters](crate::recovery) of the run context the
//! store was built for, and the cell transparently regenerated. Hits skip both the simulation and
//! its emulator-oracle verification — the cache stores only verified
//! results.
//!
//! The cell cache and the [`CheckpointStore`] beside it are also the
//! crash record of every run: a killed run's finished cells and every
//! checkpoint its sampled cells captured are already here, so a resume
//! reads them back like any warm run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmdc_isa::encode;
use dmdc_ooo::CoreConfig;
use dmdc_workloads::Workload;

use crate::cell::CellResult;
use crate::faults::FaultPlan;
use crate::recovery::{Recovery, RecoveryKind};
use crate::runner::Context;
use crate::sampling::Checkpoint;

/// Version tag of the dependence-policy implementations in this crate
/// (DMDC, YLA, bloom, checking queue). Bump together with semantic
/// changes here, as [`dmdc_ooo::SIM_FINGERPRINT`] is bumped for the
/// substrate.
pub const POLICY_FINGERPRINT: &str = "dmdc-core-v1";

/// The combined simulator fingerprint cache keys incorporate by default.
pub fn default_fingerprint() -> String {
    format!("{}+{}", dmdc_ooo::SIM_FINGERPRINT, POLICY_FINGERPRINT)
}

/// The default on-disk location, `target/dmdc-cache/` under the current
/// working directory (the cache lives next to build artifacts: `cargo
/// clean` clears both).
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("target").join("dmdc-cache")
}

/// The default root for `--run-id` run records, `target/dmdc-runs/`
/// under the current working directory: each run's sealed manifest and,
/// under `--no-cache`, a run-private cell and checkpoint store. A run
/// without `--run-id` writes nothing here.
pub fn default_runs_dir() -> PathBuf {
    PathBuf::from("target").join("dmdc-runs")
}

/// Streaming 64-bit FNV-1a. Deterministic across processes and builds —
/// unlike `std`'s `DefaultHasher`, whose algorithm is unspecified — which
/// is what makes the keys stable enough to persist.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Folds bytes into the running hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the running hash.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv64 {
        self.write(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Format-version header line of the sealed on-disk envelope. Bumping the
/// version invalidates (quarantines) every previously written file.
const SEAL_MAGIC: &str = "dmdc-seal v1";

/// Why a sealed record failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// No recognizable seal header (foreign or pre-integrity file).
    Header,
    /// Seal header present but with a different format version.
    Version,
    /// Body shorter or longer than the header declares (truncation).
    Length,
    /// fnv64 of the body disagrees with the header (bit rot).
    Checksum,
}

impl IntegrityError {
    /// Stable label used in quarantine records and test assertions.
    pub fn label(&self) -> &'static str {
        match self {
            IntegrityError::Header => "bad-header",
            IntegrityError::Version => "version-mismatch",
            IntegrityError::Length => "truncated",
            IntegrityError::Checksum => "checksum-mismatch",
        }
    }
}

/// Wraps `body` in the checksummed envelope persisted records use:
///
/// ```text
/// dmdc-seal v1 <body-bytes> <fnv64-of-body, 16 hex digits>
/// <body>
/// ```
pub fn seal(body: &str) -> String {
    let mut h = Fnv64::new();
    h.write(body.as_bytes());
    format!("{SEAL_MAGIC} {} {:016x}\n{body}", body.len(), h.finish())
}

/// Verifies a [`seal`]ed envelope and returns the body. Every failure
/// mode is classified so callers can report *why* a file was rejected.
pub fn unseal(text: &str) -> Result<&str, IntegrityError> {
    let (header, body) = text.split_once('\n').ok_or(IntegrityError::Header)?;
    let rest = match header.strip_prefix(SEAL_MAGIC) {
        Some(rest) => rest,
        None => {
            // Distinguish "other seal version" from "not a seal at all".
            return Err(if header.starts_with("dmdc-seal ") {
                IntegrityError::Version
            } else {
                IntegrityError::Header
            });
        }
    };
    let mut words = rest.split_whitespace();
    let len: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or(IntegrityError::Header)?;
    let sum = words
        .next()
        .and_then(|w| u64::from_str_radix(w, 16).ok())
        .ok_or(IntegrityError::Header)?;
    if words.next().is_some() {
        return Err(IntegrityError::Header);
    }
    if body.len() != len {
        return Err(IntegrityError::Length);
    }
    let mut h = Fnv64::new();
    h.write(body.as_bytes());
    if h.finish() != sum {
        return Err(IntegrityError::Checksum);
    }
    Ok(body)
}

/// Writes `body` to `path` sealed and atomically: the envelope goes to a
/// sibling temporary file first and is renamed into place, so no reader
/// (or crash) ever observes a torn record. Returns `false` on I/O errors
/// (the temp file is cleaned up best-effort).
pub fn write_sealed(path: &Path, body: &str, tmp_tag: u64) -> bool {
    let Some(dir) = path.parent() else {
        return false;
    };
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let tmp = dir.join(format!("{name}.tmp.{tmp_tag:x}"));
    if std::fs::write(&tmp, seal(body)).is_ok() && std::fs::rename(&tmp, path).is_ok() {
        true
    } else {
        let _ = std::fs::remove_file(&tmp);
        false
    }
}

/// A per-process tag making temporary file names unique across
/// concurrent writers of the same key.
pub(crate) fn tmp_tag(key: u64) -> u64 {
    std::process::id() as u64 ^ key.rotate_left(32)
}

/// Content digest of a workload: name, group, entry point, encoded text
/// and initial data segments. Two workloads digest equal iff the
/// simulator would see identical programs under identical labels.
pub fn workload_digest(w: &Workload) -> u64 {
    let mut h = Fnv64::new();
    h.write(w.name.as_bytes());
    h.write(format!("{:?}", w.group).as_bytes());
    h.write_u64(w.program.entry() as u64);
    h.write_u64(w.program.insts().len() as u64);
    for &inst in w.program.insts() {
        h.write(&encode(inst).to_le_bytes());
    }
    h.write_u64(w.program.data_segments().len() as u64);
    for (base, bytes) in w.program.data_segments() {
        h.write_u64(base.0);
        h.write_u64(bytes.len() as u64);
        h.write(bytes);
    }
    h.finish()
}

/// Hit/miss/store/integrity counters of one [`CellCache`] or
/// [`CheckpointStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from disk (simulation skipped).
    pub hits: u64,
    /// Lookups that found no usable record.
    pub misses: u64,
    /// Freshly simulated cells persisted.
    pub stores: u64,
    /// Entries that failed integrity or schema verification (each also
    /// counts as a miss — the cell regenerates).
    pub corrupt: u64,
    /// Rejected entries successfully moved to `quarantine/` (the rest
    /// were deleted when the move failed).
    pub quarantined: u64,
}

/// The sealed-file core every durable record is built on — both stores
/// and the daemon's job and result envelopes: one directory of
/// `<key>.<ext>` files, each a [`seal`]ed body written via tmp + rename,
/// verified before it is decoded, quarantined to `quarantine/` when
/// damaged or stale, and counted. Built [in a context](SealedDir::in_context), it also counts
/// quarantines in the context's recovery counters and runs the context's
/// fault plan after every write.
#[derive(Debug)]
pub(crate) struct SealedDir {
    dir: PathBuf,
    ext: &'static str,
    fingerprint: String,
    recovery: Arc<Recovery>,
    faults: Option<Arc<FaultPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
}

impl SealedDir {
    pub(crate) fn new(dir: PathBuf, ext: &'static str, fingerprint: String) -> SealedDir {
        SealedDir {
            dir,
            ext,
            fingerprint,
            recovery: Arc::default(),
            faults: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The same directory reporting to `ctx`'s recovery counters and
    /// consulting its fault plan.
    pub(crate) fn in_context(mut self, ctx: &Context) -> SealedDir {
        self.recovery = Arc::clone(&ctx.recovery);
        self.faults = ctx.faults.clone();
        self
    }

    /// A hasher seeded with `fingerprint ‖ workload digest`, the prefix
    /// every key starts with.
    pub(crate) fn hasher(&self, workload_digest: u64) -> Fnv64 {
        let mut h = Fnv64::new();
        h.write(self.fingerprint.as_bytes());
        h.write_u64(workload_digest);
        h
    }

    fn name_of(&self, key: u64) -> String {
        format!("{key:016x}.{}", self.ext)
    }

    /// Moves a rejected entry into `quarantine/` (best-effort: deletes it
    /// when the move fails, so a broken file can never be consulted
    /// twice) and counts the rejection in the recovery counters.
    fn quarantine(&self, key: u64) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let name = self.name_of(key);
        let qdir = self.dir.join("quarantine");
        let path = self.dir.join(&name);
        if std::fs::create_dir_all(&qdir).is_ok()
            && std::fs::rename(&path, qdir.join(&name)).is_ok()
        {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&path);
        }
        self.recovery.record(RecoveryKind::CacheQuarantined);
    }

    /// Reads entry `key`: absent is a plain miss; a failed seal or a body
    /// `decode` rejects (a stale schema or a mislabeled record) is
    /// quarantined and also a miss.
    pub(crate) fn load<T>(&self, key: u64, decode: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let loaded = match std::fs::read_to_string(self.dir.join(self.name_of(key))) {
            Err(_) => None,
            Ok(text) => match unseal(&text) {
                Err(_) => {
                    self.quarantine(key);
                    None
                }
                Ok(body) => {
                    let value = decode(body);
                    if value.is_none() {
                        self.quarantine(key);
                    }
                    value
                }
            },
        };
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Persists `body` as entry `key`, sealed and via tmp + rename, and
    /// says whether it landed. The caches ignore a failure: a store that
    /// cannot write (read-only checkout, full disk) costs recomputation
    /// later, never a wrong result now.
    pub(crate) fn store(&self, key: u64, body: &str) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let path = self.dir.join(self.name_of(key));
        if !write_sealed(&path, body, tmp_tag(key)) {
            return false;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        if let Some(faults) = &self.faults {
            faults.on_sealed_write(&path);
        }
        true
    }

    /// The keys of every entry, ascending. Temporaries, `quarantine/` and
    /// names this directory would not write are skipped.
    pub(crate) fn keys(&self) -> Vec<u64> {
        let suffix = format!(".{}", self.ext);
        let mut keys: Vec<u64> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let key = u64::from_str_radix(name.strip_suffix(&suffix)?, 16).ok()?;
                (self.name_of(key) == name).then_some(key)
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// A content-addressed, persistent store of verified [`CellResult`]s,
/// one `<key>.cell` file per cell.
#[derive(Debug)]
pub struct CellCache(pub(crate) SealedDir);

impl CellCache {
    /// A cache rooted at `dir` with the default simulator fingerprint.
    pub fn new(dir: impl Into<PathBuf>) -> CellCache {
        CellCache::with_fingerprint(dir, default_fingerprint())
    }

    /// A cache rooted at `dir` keying on an explicit fingerprint (tests
    /// use this to prove that bumping the fingerprint re-runs every cell).
    pub fn with_fingerprint(dir: impl Into<PathBuf>, fingerprint: impl Into<String>) -> CellCache {
        CellCache(SealedDir::new(dir.into(), "cell", fingerprint.into()))
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.0.dir
    }

    /// The cell key for a (workload digest, spec description) pair.
    pub fn key(&self, workload_digest: u64, spec_desc: &str) -> u64 {
        self.0
            .hasher(workload_digest)
            .write(spec_desc.as_bytes())
            .finish()
    }

    /// Where rejected entries are preserved for post-mortem inspection.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.0.dir.join("quarantine")
    }

    /// Looks up a cell. The sealed envelope is verified before any
    /// deserialization; corrupt, truncated, version-mismatched or stale
    /// (schema/workload-mismatched) entries are quarantined and degrade
    /// to misses, so the cell regenerates. `expected_workload` guards
    /// against the astronomically unlikely key collision (and mislabeled
    /// files placed by hand).
    pub fn load(&self, key: u64, expected_workload: &str) -> Option<CellResult> {
        self.0.load(key, |body| {
            CellResult::from_record(body).filter(|cell| cell.workload == expected_workload)
        })
    }

    /// Persists a freshly computed cell.
    pub fn store(&self, key: u64, cell: &CellResult) {
        self.0.store(key, &cell.to_record());
    }

    /// Counters since this cache handle was created.
    pub fn counters(&self) -> CacheCounters {
        self.0.counters()
    }
}

/// Format-version line of a persisted sampling checkpoint body. It is
/// also hashed into every key, so bumping it turns every previously
/// stored checkpoint into a plain miss: an old file is never read, so it
/// is never quarantined either.
const CKPT_MAGIC: &str = "dmdc-ckpt v2";

/// A content-addressed, persistent store of sampling [`Checkpoint`]s —
/// the warm-run counterpart of [`CellCache`].
///
/// A sampled cell's checkpoints are a pure function of the simulator
/// fingerprint, the workload's program bytes, the core config, the
/// [`SampleSpec`](dmdc_ooo::SampleSpec) placement and the warming
/// horizon — notably **not** of the dependence policy under test, whose
/// structures a detailed window builds from scratch after the restore.
/// The store keys on exactly those inputs (the caller passes them
/// pre-rendered as `sample_desc`) plus the window index:
///
/// ```text
/// key = fnv64( fingerprint ‖ workload digest ‖ format version ‖ sample_desc ‖ window )
/// ```
///
/// Excluding the policy from the key is what makes checkpoints shareable:
/// within one cold suite run, the first policy to fast-forward a workload
/// populates the store and every other policy's cells restore from it. On
/// a fully warm run no fast-forward happens at all.
///
/// Files live under `checkpoints/` beside the cell cache, one per key
/// (`<key>.ckpt`), on the same sealed-file core as [`CellCache`]: verify
/// before deserializing, quarantine anything damaged or stale to
/// `checkpoints/quarantine/`, and regenerate transparently (the
/// fast-forward simply runs).
#[derive(Debug)]
pub struct CheckpointStore(pub(crate) SealedDir);

impl CheckpointStore {
    /// A store under `root` (the cache root — checkpoints live in its
    /// `checkpoints/` subdirectory) with the default fingerprint.
    pub fn new(root: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore::with_fingerprint(root, default_fingerprint())
    }

    /// A store under `root` keying on an explicit fingerprint (tests use
    /// this to prove a fingerprint bump re-runs every fast-forward).
    pub fn with_fingerprint(
        root: impl Into<PathBuf>,
        fingerprint: impl Into<String>,
    ) -> CheckpointStore {
        let dir = root.into().join("checkpoints");
        CheckpointStore(SealedDir::new(dir, "ckpt", fingerprint.into()))
    }

    /// The store's directory (`<cache-root>/checkpoints`).
    pub fn dir(&self) -> &Path {
        &self.0.dir
    }

    /// The key for one window's checkpoint. `sample_desc` must render
    /// every input the checkpoint depends on besides the program: core
    /// config, sampling spec, population and warming horizon. The body
    /// format's version is part of the key, so a store written in an
    /// older format reads as misses.
    pub fn key(&self, workload_digest: u64, sample_desc: &str, window: u32) -> u64 {
        self.0
            .hasher(workload_digest)
            .write(CKPT_MAGIC.as_bytes())
            .write(sample_desc.as_bytes())
            .write_u64(window as u64)
            .finish()
    }

    /// Looks up window `window`'s checkpoint for a run under `config`.
    /// Damaged or stale entries (wrong magic, wrong workload, undecodable
    /// body, warm state that does not fit `config`, window mismatch) are
    /// quarantined and degrade to misses, so the fast-forward simply
    /// re-runs.
    pub fn load(
        &self,
        key: u64,
        expected_workload: &str,
        window: u32,
        config: &CoreConfig,
    ) -> Option<Checkpoint> {
        self.0.load(key, |body| {
            decode_checkpoint_body(body, expected_workload, window, config)
        })
    }

    /// Persists a freshly captured checkpoint.
    pub fn store(&self, key: u64, workload: &str, checkpoint: &Checkpoint) {
        let body = format!("{CKPT_MAGIC}\nworkload {workload}\n{}", checkpoint.encode());
        self.0.store(key, &body);
    }

    /// Counters since this store handle was created.
    pub fn counters(&self) -> CacheCounters {
        self.0.counters()
    }
}

/// Parses a stored checkpoint body: magic line, `workload <name>` guard,
/// then [`Checkpoint::encode`] output, with the window index required to
/// match.
fn decode_checkpoint_body(
    body: &str,
    expected_workload: &str,
    window: u32,
    config: &CoreConfig,
) -> Option<Checkpoint> {
    let (magic, rest) = body.split_once('\n')?;
    let (workload, rest) = rest.split_once('\n')?;
    if magic != CKPT_MAGIC || workload.strip_prefix("workload ")? != expected_workload {
        return None;
    }
    Checkpoint::decode(rest, config).filter(|ck| ck.window == window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmdc_workloads::{int_suite, Scale};

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        // Reference value: FNV-1a 64 of "hello" is fixed by the algorithm.
        let mut h = Fnv64::new();
        h.write(b"hello");
        assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
        let mut ab = Fnv64::new();
        ab.write(b"ab");
        let mut ba = Fnv64::new();
        ba.write(b"ba");
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn workload_digest_tracks_content() {
        let a = int_suite(Scale::Smoke).remove(0);
        let b = int_suite(Scale::Smoke).remove(0);
        assert_eq!(workload_digest(&a), workload_digest(&b));
        let bigger = int_suite(Scale::Default).remove(0);
        assert_ne!(workload_digest(&a), workload_digest(&bigger));
    }

    #[test]
    fn seal_roundtrips_and_classifies_damage() {
        let body = "workload histo\n1 2 3\n";
        let sealed = seal(body);
        assert_eq!(unseal(&sealed), Ok(body));
        // Truncation: body shorter than declared.
        let truncated = &sealed[..sealed.len() - 3];
        assert_eq!(unseal(truncated), Err(IntegrityError::Length));
        // Bit flip in the body: length intact, checksum off.
        let flipped = sealed.replace("histo", "hists");
        assert_eq!(unseal(&flipped), Err(IntegrityError::Checksum));
        // Foreign file and other seal versions.
        assert_eq!(unseal("not a seal\nbody"), Err(IntegrityError::Header));
        assert_eq!(
            unseal(&sealed.replace("dmdc-seal v1", "dmdc-seal v9")),
            Err(IntegrityError::Version)
        );
        assert_eq!(unseal(""), Err(IntegrityError::Header));
    }

    #[test]
    fn checkpoint_keys_carry_the_format_version() {
        let root =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/dmdc-ckpt-version-unit-test");
        let _ = std::fs::remove_dir_all(&root);
        let store = CheckpointStore::with_fingerprint(&root, "fp");
        // The v1 key: fingerprint, workload digest, description, window.
        let v1 = store.0.hasher(7).write(b"desc").write_u64(3).finish();
        let key = store.key(7, "desc", 3);
        assert_ne!(v1, key, "the format version moves the key");
        // A v1 store is never consulted: its files read as plain misses,
        // not as corrupt v2 entries to quarantine.
        assert!(store
            .0
            .store(v1, "dmdc-ckpt v1\nworkload histo\nwindow 3\n"));
        assert!(store
            .load(key, "histo", 3, &CoreConfig::config2())
            .is_none());
        let c = store.counters();
        assert_eq!((c.misses, c.corrupt, c.quarantined), (1, 0, 0));
        assert_eq!(store.0.keys(), vec![v1], "the v1 file is left alone");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn keys_separate_fingerprints_and_specs() {
        let c1 = CellCache::with_fingerprint("target/unused", "fp-a");
        let c2 = CellCache::with_fingerprint("target/unused", "fp-b");
        assert_ne!(c1.key(7, "spec"), c2.key(7, "spec"));
        assert_ne!(c1.key(7, "spec"), c1.key(7, "other-spec"));
        assert_ne!(c1.key(7, "spec"), c1.key(8, "spec"));
    }
}
