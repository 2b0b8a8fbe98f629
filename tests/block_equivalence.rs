//! Differential gates for the block-compiled fast-forward engine:
//!
//! * every registry workload and a stream of random fuzz kernels run
//!   through `Emulator::run_silent` (the block interpreter) and through
//!   plain `Emulator::step`, asserting identical retired counts, pcs,
//!   halt flags and `state_checksum` — including at partial-block stop
//!   targets and on faulting programs;
//! * report artifacts stay byte-identical: a sampled run's text output
//!   is pinned against a committed golden (cold, checkpoint-warm and
//!   uncached runs must all match it), and one registry experiment's
//!   JSON and CSV renderings are pinned alongside the text snapshots
//!   that `tests/golden_snapshots.rs` already enforces.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dmdc::core::experiments::{registry, run_experiment};
use dmdc::core::runner::Context;
use dmdc::isa::{BlockCode, EmuError, Emulator};
use dmdc::workloads::{full_suite, FuzzKernel, Scale, Workload};
use proptest::prelude::*;

/// Runs a block-compiled emulator and a stepped reference to the same
/// retired-count target, asserting bit-identical outcomes.
fn assert_block_equivalent(w: &Workload, targets: &[u64]) {
    let code = BlockCode::compile(&w.program);
    for &t in targets {
        let mut fast = Emulator::new(&w.program);
        let mut slow = Emulator::new(&w.program);
        let fast_err = fast.run_silent(&code, t).err();
        let slow_err = (|| -> Result<(), EmuError> {
            while !slow.halted() && slow.retired() < t {
                slow.step()?;
            }
            Ok(())
        })()
        .err();
        assert_eq!(
            fast_err, slow_err,
            "{}: error mismatch at target {t}",
            w.name
        );
        assert_eq!(
            fast.retired(),
            slow.retired(),
            "{}: retired mismatch at target {t}",
            w.name
        );
        assert_eq!(
            fast.pc(),
            slow.pc(),
            "{}: pc mismatch at target {t}",
            w.name
        );
        assert_eq!(
            fast.halted(),
            slow.halted(),
            "{}: halt mismatch at target {t}",
            w.name
        );
        assert_eq!(
            fast.state_checksum(),
            slow.state_checksum(),
            "{}: state checksum mismatch at target {t}",
            w.name
        );
    }
}

/// The workload's dynamic instruction count (via the block engine; its
/// agreement with stepping is what the callers then assert).
fn population(w: &Workload) -> u64 {
    let code = BlockCode::compile(&w.program);
    let mut emu = Emulator::new(&w.program);
    emu.run_silent(&code, u64::MAX)
        .expect("registry workloads halt");
    emu.retired()
}

#[test]
fn every_registry_workload_matches_step_at_block_boundaries() {
    // Smoke scale: cheap enough to probe partial-block stop targets on
    // both sides of the halt.
    for w in full_suite(Scale::Smoke) {
        let n = population(&w);
        let targets = [0, 1, 2, n / 3, n / 2, n - 1, n, n + 10];
        assert_block_equivalent(&w, &targets);
    }
}

#[test]
fn every_default_scale_workload_matches_step_to_halt() {
    // Default scale: one full run per workload, pinning the end state
    // the sampling oracle depends on.
    for w in full_suite(Scale::Default) {
        let n = population(&w);
        assert_block_equivalent(&w, &[n]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random fuzz kernels (the same generator the differential fuzz
    /// harness uses) agree between the block interpreter and step(),
    /// both to halt and at an arbitrary mid-run stop target.
    #[test]
    fn fuzz_kernels_match_step(seed in any::<u64>(), index in 0u64..1024, cut in 1u64..5_000) {
        let w = FuzzKernel::generate(seed, index).build();
        let n = population(&w);
        prop_assert!(n > 0);
        assert_block_equivalent(&w, &[cut.min(n.saturating_sub(1)), n, n + 7]);
    }
}

// ---------------------------------------------------------------------
// Artifact byte-identity gates.

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

#[test]
fn sampled_run_output_matches_golden_cold_warm_and_uncached() {
    const RUN: &[&str] = &[
        "run",
        "--workload",
        "histo",
        "--policy",
        "dmdc-global",
        "--scale",
        "default",
        "--sampled",
    ];
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/sampled/histo-dmdc-global-default.txt");
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing sampled golden {}: {e}", golden.display()));

    let wd = workdir("dmdc-sampled-golden-wd");
    let mut uncached = RUN.to_vec();
    uncached.push("--no-cache");
    assert_eq!(
        stdout(&dmdc(&wd, &uncached)),
        expected,
        "uncached sampled run drifted from {}",
        golden.display()
    );
    // Cold: populates the checkpoint store. Warm: restores every window
    // from it and fast-forwards nothing. All byte-identical.
    assert_eq!(
        stdout(&dmdc(&wd, RUN)),
        expected,
        "cold sampled run drifted"
    );
    assert_eq!(
        stdout(&dmdc(&wd, RUN)),
        expected,
        "warm sampled run drifted"
    );
}

#[test]
fn experiment_json_and_csv_match_goldens() {
    let cache_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("dmdc-cache-format-golden-test");
    let ctx = Context::new().with_store(cache_dir);
    let exp = registry()
        .iter()
        .find(|e| e.id() == "fig2")
        .expect("fig2 is in the registry");
    let report = run_experiment(&ctx, *exp, Scale::Smoke);
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/formats");
    for (ext, actual) in [("json", report.json()), ("csv", report.csv())] {
        let path = golden_dir.join(format!("fig2.{ext}"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            actual,
            expected,
            "fig2 {ext} drifted from {}",
            path.display()
        );
    }
}
