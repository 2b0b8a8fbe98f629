//! Crash-safe checkpoint/resume, end to end against the real binary:
//! a suite or sampled run killed mid-flight (deterministically, via the
//! injected `kill-after` fault) must resume with `dmdc run --resume
//! <run-id>` and produce stdout byte-identical to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh working directory under `target/` for one test — the binary
/// writes `target/dmdc-runs/` and `target/dmdc-cache/` relative to its
/// cwd, so each test gets hermetic run records and stores.
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
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const SUITE: &[&str] = &[
    "suite",
    "--scale",
    "smoke",
    "--policy",
    "dmdc-global",
    "--jobs",
    "2",
    "--no-cache",
];

/// Counts the sealed cell entries (`<key>.cell`) directly under `dir`.
fn cell_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".cell"))
                .count()
        })
        .unwrap_or(0)
}

/// The hit count of the `[profile] cell cache: N hits, ...` stderr line.
fn cache_hits(err: &str) -> usize {
    err.lines()
        .find_map(|l| l.strip_prefix("[profile] cell cache: "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no `[profile] cell cache:` line in stderr:\n{err}"))
}

/// Kill the smoke suite after each of its sealed writes in turn, on the
/// run-private store and on the shared one, and resume it: every resume
/// must reproduce the uninterrupted run's bytes and read back at least
/// the cells that were on disk at the kill.
#[test]
fn killed_suite_resumes_byte_identical() {
    // A cold smoke suite seals one cell per workload and nothing else.
    const WRITES: usize = 14;
    let wd = workdir("dmdc-crash-resume-wd");

    // The uninterrupted reference run (no run id, no store).
    let clean = dmdc(&wd, SUITE);
    assert!(
        clean.status.success(),
        "clean run failed: {}",
        stderr(&clean)
    );
    let reference = stdout(&clean);
    assert!(reference.contains("== suite"), "unexpected output");

    // The store is the crash record. Under `--no-cache` a run keeps its
    // cells in a run-private store; with the shared store on, the cells
    // the killed run finished are already in `target/dmdc-cache/`.
    let shared = &SUITE[..SUITE.len() - 1]; // without the trailing --no-cache
    for (label, args, private) in [("kill-test", SUITE, true), ("kill-shared", shared, false)] {
        // `--profile` is recorded in the manifest, so the resume prints
        // the cell-cache counters (on stderr; stdout is unchanged).
        let run = |run_id: &str, kill_after: usize| {
            let kill = format!("kill-after={kill_after}");
            let flags = ["--profile", "--run-id", run_id, "--inject-faults", &kill];
            dmdc(&wd, &[args, &flags[..]].concat())
        };
        // Armed to die at write W + 1, a cold run finishes: it makes at
        // most W sealed writes, and the kill at k = W below shows at
        // least W.
        let _ = std::fs::remove_dir_all(wd.join("target"));
        let whole = run(&format!("{label}-whole"), WRITES + 1);
        assert!(
            whole.status.success(),
            "{label}: the suite must make at most {WRITES} sealed writes: {}",
            stderr(&whole)
        );
        assert_eq!(
            stdout(&whole),
            reference,
            "{label}: run id changed the report"
        );

        for k in 1..=WRITES {
            let _ = std::fs::remove_dir_all(wd.join("target"));
            let run_id = format!("{label}-{k}");
            let store = if private {
                format!("target/dmdc-runs/{run_id}/journal")
            } else {
                "target/dmdc-cache".to_string()
            };
            let crashed = run(&run_id, k);
            assert!(
                !crashed.status.success(),
                "the injected abort must kill run {run_id}"
            );
            let entries = cell_entries(&wd.join(&store));
            assert!(
                entries >= k,
                "{run_id}: expected at least the {k} pre-abort cells in {store}, found {entries}"
            );

            // Resume: the store serves the finished cells, only the rest
            // simulate, and the report reproduces the reference bytes.
            let resumed = dmdc(&wd, &["run", "--resume", &run_id]);
            assert!(
                resumed.status.success(),
                "resume of {run_id} failed: {}",
                stderr(&resumed)
            );
            let err = stderr(&resumed);
            assert!(
                err.contains(&format!("resuming run '{run_id}'")),
                "resume must announce itself on stderr"
            );
            assert_eq!(
                stdout(&resumed),
                reference,
                "{run_id}: resumed report must be byte-identical to the uninterrupted run"
            );
            let hits = cache_hits(&err);
            assert!(
                hits >= entries,
                "{run_id}: the resume must skip the {entries} cells finished before the kill, \
                 but the store served only {hits}"
            );
            // With the shared store on, each cell is written once, to it.
            let run_store = wd.join(format!("target/dmdc-runs/{run_id}/journal"));
            assert_eq!(run_store.exists(), private, "{run_id}: run store");

            // A second resume is served entirely by the store and is
            // still byte-identical.
            let again = dmdc(&wd, &["run", "--resume", &run_id]);
            assert!(
                again.status.success(),
                "re-resume of {run_id} failed: {}",
                stderr(&again)
            );
            assert_eq!(stdout(&again), reference);
        }
    }
}

/// The number just before ` {what}` on the first `[profile]` line that
/// starts with `prefix` and mentions it.
fn profile_count(err: &str, prefix: &str, what: &str) -> u64 {
    let what = format!(" {what}");
    err.lines()
        .filter(|l| l.starts_with(prefix))
        .find_map(|l| l[..l.find(&what)?].split_whitespace().last()?.parse().ok())
        .unwrap_or_else(|| panic!("no `{prefix} … N{what}` in stderr:\n{err}"))
}

/// Kill a sampled histo run (with `store_flags` added) after each of its
/// sealed writes in turn and resume it: every resume must restore the
/// checkpoints the killed run sealed and reproduce the clean run's bytes.
fn assert_sampled_run_resumes_at_every_kill_point(label: &str, store_flags: &[&str]) {
    const RUN: &[&str] = &[
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
    // A cold sampled histo cell seals one checkpoint per window and
    // nothing else: `run` bypasses the cell cache.
    const WRITES: u64 = 24;
    const CKPT: &str = "[profile] checkpoint store:";
    const SAMPLING: &str = "[profile] sampling:";

    let run = |wd: &Path, run_id: &str, kill_after: u64| {
        let kill = format!("kill-after={kill_after}");
        let flags = ["--run-id", run_id, "--inject-faults", kill.as_str()];
        dmdc(wd, &[RUN, store_flags, &flags[..]].concat())
    };

    // The clean run, on a cold store in its own work directory, armed
    // to die at write W + 1: finishing shows it makes at most W
    // sealed writes, and the kill at k = W below shows at least W.
    let clean_wd = workdir(&format!("dmdc-sampled-kill-{label}-clean"));
    let clean = run(&clean_wd, "clean", WRITES + 1);
    assert!(
        clean.status.success(),
        "{label}: the clean run must make at most {WRITES} sealed writes: {}",
        stderr(&clean)
    );
    let reference = stdout(&clean);
    assert!(
        reference.contains("sampled") && reference.contains("estimates"),
        "expected a sampled stat block, got: {reference}"
    );
    let err = stderr(&clean);
    let stored = profile_count(&err, "[profile] cell cache:", "stored")
        + profile_count(&err, CKPT, "stored");
    assert_eq!(stored, WRITES, "{label}: the stores count every write");
    // The profile accounts for every instruction fast-forwarded.
    let clean_ff = profile_count(&err, SAMPLING, "insts fast-forwarded");
    assert!(clean_ff > 0, "{label}: a cold run fast-forwards");
    assert_eq!(
        profile_count(&err, SAMPLING, "insts silent")
            + profile_count(&err, SAMPLING, "insts warmed"),
        clean_ff,
        "{label}: silent + warmed instructions must add up to the fast-forward"
    );

    let wd = workdir(&format!("dmdc-sampled-kill-{label}"));
    for k in 1..=WRITES {
        let _ = std::fs::remove_dir_all(wd.join("target"));
        let run_id = format!("kill-{k}");
        let crashed = run(&wd, &run_id, k);
        assert!(
            !crashed.status.success(),
            "{label}: kill-after={k} must kill the run"
        );

        // The resume restores the k checkpoints the killed run sealed
        // and fast-forwards from the last of them; the windows the
        // killed run finished simulate again, deterministically.
        let resumed = dmdc(&wd, &["run", "--resume", &run_id]);
        assert!(
            resumed.status.success(),
            "{label}: resume after kill-after={k} failed: {}",
            stderr(&resumed)
        );
        assert_eq!(
            stdout(&resumed),
            reference,
            "{label}: resume after kill-after={k} must be byte-identical"
        );
        let err = stderr(&resumed);
        assert_eq!(
            (
                profile_count(&err, CKPT, "hits"),
                profile_count(&err, CKPT, "stored")
            ),
            (k, WRITES - k),
            "{label}: resume after kill-after={k}: checkpoint hits and stores"
        );
        let ff = profile_count(&err, SAMPLING, "insts fast-forwarded");
        if k == WRITES {
            assert_eq!(ff, 0, "{label}: a store-warm resume must not fast-forward");
        } else {
            assert!(
                ff < clean_ff,
                "{label}: resume after kill-after={k} fast-forwarded {ff}, \
                 not fewer than the clean run's {clean_ff}"
            );
        }
        let samples = wd.join(format!("target/dmdc-runs/{run_id}/samples"));
        assert!(!samples.exists(), "{label}: {} appeared", samples.display());
    }
}

/// Under `--no-cache` the run keeps its checkpoints in the run-private
/// store under `<run>/journal/`; a run killed mid-cell resumes from them.
#[test]
fn killed_sampled_run_resumes_byte_identical() {
    assert_sampled_run_resumes_at_every_kill_point("no-cache", &["--no-cache"]);
}

/// Over the shared store a resume restores every checkpoint the killed
/// run sealed, and fast-forwards nothing once all of them are there.
#[test]
fn killed_sampled_resume_prefers_shared_checkpoint_store() {
    assert_sampled_run_resumes_at_every_kill_point("shared", &[]);
}

#[test]
fn completed_journaled_run_matches_unjournaled_run() {
    let wd = workdir("dmdc-run-id-noop-wd");
    let clean = dmdc(&wd, SUITE);
    assert!(clean.status.success());

    let mut recorded_args = SUITE.to_vec();
    recorded_args.extend(["--run-id", "full-run"]);
    let recorded = dmdc(&wd, &recorded_args);
    assert!(recorded.status.success(), "{}", stderr(&recorded));
    assert_eq!(
        stdout(&recorded),
        stdout(&clean),
        "a run id must not change a successful run's output"
    );
}

#[test]
fn resume_fails_clearly_on_unknown_or_damaged_runs() {
    let wd = workdir("dmdc-resume-errors-wd");

    let missing = dmdc(&wd, &["run", "--resume", "never-existed"]);
    assert!(!missing.status.success());
    assert!(
        stderr(&missing).contains("nothing to resume"),
        "want a clear message, got: {}",
        stderr(&missing)
    );

    // A run whose manifest is torn must refuse, not misbehave.
    let run_dir = wd.join("target/dmdc-runs/torn");
    std::fs::create_dir_all(&run_dir).unwrap();
    std::fs::write(run_dir.join("manifest"), "to").unwrap();
    let torn = dmdc(&wd, &["run", "--resume", "torn"]);
    assert!(!torn.status.success());
    assert!(
        stderr(&torn).contains("damaged"),
        "want a damage diagnosis, got: {}",
        stderr(&torn)
    );

    // A manifest from a different simulator fingerprint must refuse: its
    // partial progress cannot be trusted by this binary.
    let other = dmdc(
        &wd,
        &[
            "suite",
            "--scale",
            "smoke",
            "--run-id",
            "foreign",
            "--no-cache",
        ],
    );
    assert!(other.status.success(), "{}", stderr(&other));

    // A resume takes its flags from the manifest: any other flag on the
    // command line is refused, not silently dropped.
    let extra = dmdc(&wd, &["run", "--resume", "foreign", "--jobs", "2"]);
    assert!(!extra.status.success(), "extra flags must be refused");
    assert!(
        stderr(&extra).contains("come from its manifest"),
        "want the refusal to say where a resume's flags come from, got: {}",
        stderr(&extra)
    );

    let manifest = wd.join("target/dmdc-runs/foreign/manifest");
    let text = std::fs::read_to_string(&manifest).unwrap();
    // Re-seal the manifest with a doctored fingerprint line.
    let body_start = text.find('\n').unwrap() + 1;
    let doctored = text[body_start..].replacen("fingerprint ", "fingerprint stale-", 1);
    std::fs::write(&manifest, dmdc::core::cache::seal(&doctored)).unwrap();
    let mismatched = dmdc(&wd, &["run", "--resume", "foreign"]);
    assert!(!mismatched.status.success());
    assert!(
        stderr(&mismatched).contains("fingerprint"),
        "want a fingerprint diagnosis, got: {}",
        stderr(&mismatched)
    );
}
