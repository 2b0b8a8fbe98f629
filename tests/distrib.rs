//! End-to-end tests for the distributed worker fleet: a coordinator
//! sharding a real suite across `dmdc worker` processes must produce
//! stdout byte-identical to the single-process run — under no faults,
//! under every distributed chaos mode, and with zero workers at all
//! (the local-serial degradation path).
//!
//! Each scenario runs in its own working directory so the
//! content-addressed caches (`target/dmdc-cache/` relative to the cwd)
//! are isolated: the distributed run cannot borrow cells the
//! single-process run computed, or vice versa.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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

const SUITE: &[&str] = &["suite", "--scale", "smoke", "--policy", "dmdc-global"];

fn suite_with<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = SUITE.to_vec();
    args.extend(extra);
    args
}

/// The tentpole acceptance sweep in one test (the scenarios share the
/// single-process golden, and serializing them keeps the machine's
/// cores for the workers): a healthy 2-worker fleet, a fleet whose
/// workers get killed mid-run, stale-claim + partial-upload chaos, and
/// the zero-worker degradation ladder all produce byte-identical
/// reports.
#[test]
fn distributed_runs_are_byte_identical_to_single_process() {
    let single_dir = workdir("dmdc-distrib-single");
    let single = dmdc(&single_dir, SUITE);
    assert!(single.status.success(), "single: {}", stderr(&single));
    let golden = stdout(&single);
    assert!(!golden.is_empty());

    // Healthy fleet: 2 workers, nothing injected.
    let dir = workdir("dmdc-distrib-fleet");
    let out = dmdc(
        &dir,
        &suite_with(&["--distrib", "--workers", "2", "--lease-ttl", "2000"]),
    );
    assert!(out.status.success(), "fleet: {}", stderr(&out));
    assert_eq!(stdout(&out), golden, "2-worker report drifted");
    // Without `--run-id` the fleet keeps no run record: its crash record
    // is the cell store.
    assert!(
        !dir.join("target/dmdc-runs").exists(),
        "a fleet run without --run-id wrote under target/dmdc-runs/"
    );

    // Chaos: every worker aborts after 2 cells, dying with a lease held
    // and its result already published. The coordinator must reclaim
    // the leases and finish the run itself — same bytes.
    let dir = workdir("dmdc-distrib-kill");
    let out = dmdc(
        &dir,
        &suite_with(&[
            "--distrib",
            "--workers",
            "2",
            "--lease-ttl",
            "500",
            "--inject-faults",
            "seed=1,worker-kill-after=2",
        ]),
    );
    assert!(out.status.success(), "kill: {}", stderr(&out));
    assert_eq!(stdout(&out), golden, "report drifted after worker kills");
    assert!(
        stderr(&out).contains("reclaimed cell"),
        "worker kills must surface as lease reclaims:\n{}",
        stderr(&out)
    );

    // Chaos: the first claim of each worker sits past its TTL before
    // executing (stale-lease double-claim), and every 3rd store write
    // is truncated (partial upload, caught by completion verification).
    let dir = workdir("dmdc-distrib-stale");
    let out = dmdc(
        &dir,
        &suite_with(&[
            "--distrib",
            "--workers",
            "2",
            "--lease-ttl",
            "300",
            "--inject-faults",
            "seed=2,stale-claim=700,partial-upload=3",
        ]),
    );
    assert!(out.status.success(), "stale: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        golden,
        "report drifted under stale-claim/partial-upload chaos"
    );
}

/// With no workers at all the coordinator degrades to local serial
/// execution after the grace period — the run terminates on its own and
/// the report is still byte-identical.
#[test]
fn zero_workers_degrades_to_local_serial_execution() {
    let single_dir = workdir("dmdc-distrib-zero-single");
    let single = dmdc(&single_dir, SUITE);
    assert!(single.status.success(), "single: {}", stderr(&single));

    let dir = workdir("dmdc-distrib-zero");
    let out = dmdc(
        &dir,
        &suite_with(&[
            "--distrib",
            "--workers",
            "0",
            "--lease-ttl",
            "200",
            "--grace",
            "100",
        ]),
    );
    assert!(out.status.success(), "zero-worker: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        stdout(&single),
        "degraded run drifted from the single-process report"
    );
    assert!(
        stderr(&out).contains("locally"),
        "degradation must announce local execution:\n{}",
        stderr(&out)
    );
}

/// With a 120 s TTL an idle worker's claim long-polls for up to 60 s, so
/// this run shows every worker is woken the moment the last cell lands:
/// a missed notify would leave a worker parked until the coordinator
/// kills it at its reap deadline, and that worker would never report
/// `{done}`.
#[test]
fn long_ttl_fleet_drains_without_parking() {
    let single_dir = workdir("dmdc-distrib-longpoll-single");
    let single = dmdc(&single_dir, SUITE);
    assert!(single.status.success(), "single: {}", stderr(&single));

    let dir = workdir("dmdc-distrib-longpoll");
    let started = std::time::Instant::now();
    let out = dmdc(
        &dir,
        &suite_with(&["--distrib", "--workers", "2", "--lease-ttl", "120000"]),
    );
    let elapsed = started.elapsed();
    assert!(out.status.success(), "long-ttl fleet: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        stdout(&single),
        "long-ttl fleet report drifted from the single-process report"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "long-ttl fleet took {elapsed:?}: a parked claim missed its wake-up"
    );
    for worker in ["w0", "w1"] {
        assert!(
            stderr(&out).contains(&format!("[worker {worker}] coordinator reports done")),
            "worker {worker} never got `{{done}}`:\n{}",
            stderr(&out)
        );
    }
}

/// A worker pointed at a dead coordinator retries with backoff and then
/// fails with a clear terminal error instead of hanging forever.
#[test]
fn orphan_worker_fails_with_terminal_error() {
    let dir = workdir("dmdc-distrib-orphan");
    let started = std::time::Instant::now();
    // Port 1 is never listening; the client's retry budget for /plan is
    // bounded, so this returns on its own.
    let out = dmdc(
        &dir,
        &["worker", "--connect", "127.0.0.1:1", "--id", "orphan"],
    );
    assert!(!out.status.success(), "orphan worker must fail");
    let err = stderr(&out);
    assert!(
        err.contains("unreachable after"),
        "terminal error must say what was retried:\n{err}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(60),
        "orphan worker must give up in bounded time"
    );
}
