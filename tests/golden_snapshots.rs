//! Golden-snapshot tests: the smoke-scale text report of every registry
//! experiment must stay byte-identical to the committed snapshot under
//! `tests/golden/`.
//!
//! The snapshots pin the default CLI output — `dmdc experiment <id>`
//! prints exactly `Report::text()` to stdout — so any change to table
//! layout, number formatting or the measurements themselves shows up as
//! a diff against a reviewable text file. To regenerate after an
//! intentional change:
//!
//! ```text
//! for id in $(target/release/dmdc list | ...); do
//!     target/release/dmdc experiment $id --scale smoke --no-cache \
//!         > tests/golden/$id.txt
//! done
//! ```

use dmdc::core::experiments::{registry, run_experiment};
use dmdc::core::runner::Context;
use dmdc::workloads::Scale;

#[test]
fn every_registry_experiment_matches_its_golden_snapshot() {
    // Registry experiments overlap heavily (the window and replay tables
    // run the same cells, for instance); a cache keeps this binary fast
    // without changing any output — cells round-trip verbatim, which
    // `tests/cell_cache.rs` proves independently.
    let cache_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("dmdc-cache-golden-test");
    let ctx = Context::new().with_store(cache_dir);

    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    for exp in registry() {
        let path = golden_dir.join(format!("{}.txt", exp.id()));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
        let actual = run_experiment(&ctx, *exp, Scale::Smoke).text();
        assert_eq!(
            actual,
            expected,
            "experiment `{}` drifted from {}",
            exp.id(),
            path.display()
        );
    }
}

#[test]
fn every_golden_snapshot_belongs_to_a_registry_experiment() {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    for entry in std::fs::read_dir(&golden_dir).expect("tests/golden missing") {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            continue; // subdirectories hold non-experiment goldens (audit/)
        }
        let name = entry.file_name().into_string().unwrap();
        let id = name
            .strip_suffix(".txt")
            .unwrap_or_else(|| panic!("unexpected file `{name}` in tests/golden (want <id>.txt)"));
        assert!(
            ids.contains(&id),
            "stale snapshot `{name}`: no registry experiment with id `{id}`"
        );
    }
}
