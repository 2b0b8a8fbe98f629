//! Cache-integrity matrix: every class of on-disk damage — truncation,
//! a bit-flipped body, a lying checksum, a foreign or version-mismatched
//! header, a stale (checksum-valid but undeserializable) record — must be
//! detected before deserialization, quarantined to `quarantine/` under
//! the cache root, counted, and transparently regenerated. A damaged
//! entry is never silently deserialized and never consulted twice.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use dmdc::core::cache::{seal, unseal, CellCache};
use dmdc::core::experiments::PolicyKind;
use dmdc::core::runner::{Context, Engine, RunSpec};
use dmdc::ooo::CoreConfig;
use dmdc::workloads::{SyntheticKernel, Workload};

/// A fresh, empty cache directory under `target/`.
fn cache_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workloads() -> Vec<Workload> {
    vec![SyntheticKernel::new(300).seed(99).build()]
}

fn spec() -> RunSpec {
    RunSpec::new(0, &CoreConfig::config2(), PolicyKind::DmdcGlobal)
}

fn run(workloads: &[Workload], cache: &Arc<CellCache>) -> dmdc::core::CellResult {
    Engine::new(&Context::new().with_jobs(1), workloads)
        .with_cache(Some(Arc::clone(cache)))
        .run_cell(&spec())
}

/// The single `.cell` file a one-cell run leaves behind.
fn the_entry(dir: &Path) -> PathBuf {
    let mut cells: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    assert_eq!(cells.len(), 1, "expected exactly one cache entry");
    cells.pop().unwrap()
}

/// Damages the entry with `damage`, then proves the next run (a) does not
/// trust it, (b) moves it to `quarantine/`, (c) regenerates a cell equal
/// to the original, and (d) leaves a fresh, loadable entry behind.
fn damaged_entry_is_quarantined_and_regenerated(test: &str, damage: impl FnOnce(&Path) -> Vec<u8>) {
    let dir = cache_dir(&format!("dmdc-cache-integrity-{test}"));
    let ws = workloads();
    let original = run(&ws, &Arc::new(CellCache::new(&dir)));
    let entry = the_entry(&dir);
    let bytes = damage(&entry);
    std::fs::write(&entry, bytes).unwrap();

    let cache = Arc::new(CellCache::new(&dir));
    let regenerated = run(&ws, &cache);
    assert_eq!(regenerated, original, "{test}: regenerated cell must match");
    let c = cache.counters();
    assert_eq!(
        (c.hits, c.misses, c.stores, c.corrupt, c.quarantined),
        (0, 1, 1, 1, 1),
        "{test}: counters"
    );
    let quarantined: Vec<_> = std::fs::read_dir(cache.quarantine_dir())
        .unwrap_or_else(|e| panic!("{test}: no quarantine dir: {e}"))
        .flatten()
        .collect();
    assert_eq!(quarantined.len(), 1, "{test}: damaged file preserved");

    // The regenerated entry is trusted again: a third run is a pure hit.
    let warm = Arc::new(CellCache::new(&dir));
    assert_eq!(run(&ws, &warm), original);
    let c = warm.counters();
    assert_eq!((c.hits, c.corrupt), (1, 0), "{test}: warm after repair");
}

#[test]
fn truncated_entry() {
    damaged_entry_is_quarantined_and_regenerated("truncated", |p| {
        let bytes = std::fs::read(p).unwrap();
        bytes[..bytes.len() / 2].to_vec()
    });
}

#[test]
fn bit_flipped_body() {
    damaged_entry_is_quarantined_and_regenerated("bitflip", |p| {
        let mut bytes = std::fs::read(p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        bytes
    });
}

#[test]
fn checksum_mismatch_in_header() {
    damaged_entry_is_quarantined_and_regenerated("checksum", |p| {
        let text = std::fs::read_to_string(p).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        // Rewrite the header's checksum field to a lie; body untouched.
        let mut words: Vec<String> = header.split(' ').map(str::to_string).collect();
        let last = words.last_mut().unwrap();
        *last = format!("{:016x}", u64::from_str_radix(last, 16).unwrap() ^ 1);
        format!("{}\n{body}", words.join(" ")).into_bytes()
    });
}

#[test]
fn version_header_mismatch() {
    damaged_entry_is_quarantined_and_regenerated("version", |p| {
        std::fs::read_to_string(p)
            .unwrap()
            .replacen("dmdc-seal v1", "dmdc-seal v9", 1)
            .into_bytes()
    });
}

#[test]
fn foreign_file() {
    damaged_entry_is_quarantined_and_regenerated("foreign", |_| {
        b"this was never a sealed cell record".to_vec()
    });
}

#[test]
fn stale_record_with_valid_seal() {
    // A perfectly sealed envelope around a record the current schema
    // cannot parse: integrity passes, deserialization must still refuse.
    damaged_entry_is_quarantined_and_regenerated("stale", |_| {
        seal("dmdc-cell v0 3\nworkload synthetic\n1 2 3\n").into_bytes()
    });
}

// ---------------------------------------------------------------------
// Checkpoint-store integrity: the sampled fast-forward checkpoints under
// `checkpoints/` are held to the same discipline, proven end to end
// against the real binary (the store is installed by the CLI).

fn dmdc(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmdc"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn dmdc")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "dmdc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `[profile] checkpoint store: ...` line from a `--profile` run.
fn store_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find(|l| l.starts_with("[profile] checkpoint store:"))
        .unwrap_or_else(|| {
            panic!(
                "no checkpoint-store profile line in: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
        .to_string()
}

const SAMPLED_RUN: &[&str] = &[
    "run",
    "--workload",
    "histo",
    "--policy",
    "dmdc-global",
    "--scale",
    "default",
    "--sampled",
    "--profile",
];

/// A cold sampled run in a fresh working directory `name`: returns the
/// directory, the report and the 24 sealed checkpoint files it left.
fn cold_checkpoint_store(name: &str) -> (PathBuf, String, Vec<PathBuf>) {
    let wd = cache_dir(name);
    std::fs::create_dir_all(&wd).unwrap();
    // Cold: every window misses, fast-forwards, and seals a checkpoint.
    let cold = dmdc(&wd, SAMPLED_RUN);
    let reference = stdout(&cold);
    assert!(
        store_line(&cold).contains("0 hits, 24 misses, 24 stored, 0 corrupt"),
        "cold run must populate the store, got: {}",
        store_line(&cold)
    );
    let mut entries: Vec<PathBuf> = std::fs::read_dir(wd.join("target/dmdc-cache/checkpoints"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 24, "one sealed checkpoint per window");
    (wd, reference, entries)
}

/// Runs the sampled cell again over a store with `damaged` bad entries:
/// each degrades to a miss — quarantined, re-fast-forwarded and
/// re-sealed — with the report still byte-identical, and a third run is
/// all hits again.
fn store_heals(wd: &Path, reference: &str, damaged: usize) {
    let repair = dmdc(wd, SAMPLED_RUN);
    assert_eq!(stdout(&repair), reference, "repair run drifted");
    let want = format!(
        "{} hits, {damaged} misses, {damaged} stored, {damaged} corrupt, {damaged} quarantined",
        24 - damaged
    );
    assert!(
        store_line(&repair).contains(&want),
        "want `{want}`, got: {}",
        store_line(&repair)
    );
    let quarantined = std::fs::read_dir(wd.join("target/dmdc-cache/checkpoints/quarantine"))
        .expect("quarantine dir exists")
        .flatten()
        .count();
    assert_eq!(
        quarantined, damaged,
        "damaged checkpoints preserved for post-mortem"
    );

    // The regenerated entries are trusted again: a third run is all hits.
    let warm = dmdc(wd, SAMPLED_RUN);
    assert_eq!(stdout(&warm), reference, "warm run drifted");
    assert!(
        store_line(&warm).contains("24 hits, 0 misses, 0 stored, 0 corrupt"),
        "repaired store must serve every window, got: {}",
        store_line(&warm)
    );
}

#[test]
fn damaged_checkpoints_are_quarantined_and_regenerated() {
    let (wd, reference, entries) = cold_checkpoint_store("dmdc-ckpt-integrity-wd");

    // Damage three entries three different ways.
    let truncated = std::fs::read(&entries[0]).unwrap();
    std::fs::write(&entries[0], &truncated[..truncated.len() / 2]).unwrap();
    let mut flipped = std::fs::read(&entries[1]).unwrap();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x04;
    std::fs::write(&entries[1], flipped).unwrap();
    std::fs::write(&entries[2], b"this was never a sealed checkpoint").unwrap();

    store_heals(&wd, &reference, 3);
}

#[test]
fn hostile_run_counts_are_quarantined_not_trusted() {
    // Correctly sealed bodies whose warm-state runs lie: the seal passes,
    // so the run codec itself must refuse each one — without panicking
    // and without sizing a buffer by the count it read.
    let (wd, reference, entries) = cold_checkpoint_store("dmdc-ckpt-hostile-wd");
    let hostile = [
        "0*0",                                // a run of no words
        "0*1",                                // a single word is written bare
        "*",                                  // neither word nor count
        "0*many",                             // a non-numeric count
        "0*16388",                            // one word past config 2's L2
        "18446744073709551615*1099511627776", // 2^40 invalid tags
    ];
    for (entry, runs) in entries.iter().zip(hostile) {
        let text = std::fs::read_to_string(entry).unwrap();
        let body = unseal(&text).expect("a freshly written checkpoint unseals");
        let l2 = body.lines().find(|l| l.starts_with("l2 ")).unwrap();
        let lie = body.replace(l2, &format!("l2 {runs}"));
        std::fs::write(entry, seal(&lie)).unwrap();
    }

    store_heals(&wd, &reference, hostile.len());
}
