//! Black-box tests for `dmdc serve`, end to end against the real binary:
//! boot the daemon on an ephemeral port, drive it over HTTP, and prove
//! the service contract — submit/poll/fetch, coalescing of identical
//! submissions onto one job, cell sharing across distinct jobs through
//! the cache, structured quota rejection, graceful drain on
//! `POST /shutdown` and on SIGTERM, restart recovery with byte-identical
//! results from every crash point and from a damaged result, and
//! checkpoints shared across daemon lives. Nothing here sleeps to synchronise:
//! results are long-polled and exits are awaited on a channel.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dmdc::core::service::http;
use dmdc::core::service::json;

/// A fresh state directory under `target/` for one test.
fn state_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One running daemon. Killed on drop so a failing test can't leak a
/// listener.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    /// Boots `dmdc serve` on an ephemeral port and waits (with a
    /// deadline) for the printed address.
    fn boot(state: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dmdc"))
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(state)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn dmdc serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut lines = std::io::BufReader::new(stdout).lines();
            while let Some(Ok(line)) = lines.next() {
                let _ = tx.send(line);
            }
        });
        let deadline = Duration::from_secs(30);
        let addr = loop {
            let line = rx
                .recv_timeout(deadline)
                .expect("daemon prints its address before the deadline");
            if let Some(addr) = line.strip_prefix("dmdc serve: listening on ") {
                break addr.trim().to_string();
            }
        };
        Daemon {
            child: Some(child),
            addr,
        }
    }

    fn post(&self, path: &str, body: &str) -> (u16, String) {
        http::request(&self.addr, "POST", path, Some(body)).expect("POST")
    }

    fn get(&self, path: &str) -> (u16, String) {
        http::request(&self.addr, "GET", path, None).expect("GET")
    }

    /// Long-polls `/jobs/<id>/result?wait=` until it leaves 202 (one
    /// request unless the job outlasts the daemon's 60 s cap), returning
    /// the final `(status, payload)`.
    fn await_result(&self, id: &str) -> (u16, String) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "job {id} never finished");
            let (status, payload) =
                self.get(&format!("/jobs/{id}/result?wait={}", left.as_millis()));
            if status != 202 {
                return (status, payload);
            }
        }
    }

    /// Runs `dmdc submit --wait` for one smoke-scale experiment against
    /// this daemon and returns the printed report.
    fn submit_wait(&self, experiment: &str) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_dmdc"))
            .args(["submit", "--addr", &self.addr, "--experiment", experiment])
            .args(["--scale", "smoke", "--wait"])
            .output()
            .expect("run dmdc submit");
        assert!(
            out.status.success(),
            "submit {experiment}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 report")
    }

    /// Graceful shutdown; returns true if the process exited cleanly.
    fn shutdown(self) -> bool {
        let _ = self.post("/shutdown", "");
        self.await_exit()
    }

    /// Graceful shutdown by SIGTERM, as an init system sends it.
    fn terminate(self) -> bool {
        let pid = self.child.as_ref().expect("daemon running").id();
        let sent = Command::new("kill")
            .args(["-TERM", &pid.to_string()])
            .status()
            .expect("run kill");
        assert!(sent.success(), "kill -TERM {pid}");
        self.await_exit()
    }

    /// Waits up to 60 s for the daemon to exit; true if it exited
    /// cleanly. The wait runs on a helper thread so the bound is a
    /// channel timeout; past it the daemon is killed by pid.
    fn await_exit(mut self) -> bool {
        let mut child = self.child.take().expect("daemon running");
        let pid = child.id();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(child.wait());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(status) => status.expect("wait on daemon").success(),
            Err(_) => {
                let _ = Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
                false
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn cell_body(workload: &str, client: &str) -> String {
    format!(
        "{{\"kind\": \"cell\", \"workload\": \"{workload}\", \"policy\": \"baseline\", \
         \"scale\": \"smoke\", \"client\": \"{client}\"}}"
    )
}

fn metric(doc: &json::Json, group: &str, name: &str) -> u64 {
    doc.get(group)
        .and_then(|g| g.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics missing {group}.{name}"))
}

#[test]
fn submit_poll_fetch_roundtrip() {
    let state = state_dir("dmdc-service-roundtrip");
    let daemon = Daemon::boot(&state, &[]);

    let (status, body) = daemon.get("/health");
    assert_eq!((status, body.as_str()), (200, "{\"ok\": true}\n"));

    let (status, reply) = daemon.post("/jobs", &cell_body("histo", "t"));
    assert_eq!(status, 200, "{reply}");
    let doc = json::parse(&reply).unwrap();
    let id = doc.get("id").unwrap().as_str().unwrap().to_string();
    assert_eq!(id, "job-1");

    // The status document tracks the job through its lifecycle.
    let (status, status_doc) = daemon.get(&format!("/jobs/{id}"));
    assert_eq!(status, 200);
    let doc = json::parse(&status_doc).unwrap();
    assert!(matches!(
        doc.get("state").unwrap().as_str().unwrap(),
        "queued" | "running" | "done"
    ));
    assert_eq!(
        doc.get("spec").unwrap().get("workload").unwrap().as_str(),
        Some("histo")
    );

    // The result is the same report document `--format json` emits.
    let (status, payload) = daemon.await_result(&id);
    assert_eq!(status, 200, "{payload}");
    let report = json::parse(&payload).unwrap();
    assert_eq!(report.get("experiment").unwrap().as_str(), Some("cell"));
    let tables = report.get("tables").unwrap().as_array().unwrap();
    let rows = tables[0].get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("histo"));

    // Fetching again returns the identical stored bytes.
    let (status, again) = daemon.get(&format!("/jobs/{id}/result"));
    assert_eq!((status, again == payload), (200, true));

    // Unknown ids and routes are structured errors.
    assert_eq!(daemon.get("/jobs/job-999").0, 404);
    assert_eq!(daemon.get("/jobs/job-999/result").0, 404);
    assert_eq!(daemon.get("/no-such-route").0, 404);
    assert_eq!(daemon.post("/jobs", "not json").0, 400);
    assert_eq!(
        daemon
            .post("/jobs", "{\"kind\": \"cell\", \"workload\": \"nope\"}")
            .0,
        400
    );

    assert!(daemon.shutdown(), "graceful shutdown exits cleanly");
}

#[test]
fn concurrent_identical_submissions_coalesce_to_one_job() {
    const N: usize = 10;
    let state = state_dir("dmdc-service-coalesce");
    // Boot paused so every submission arrives while the job is queued —
    // the coalescing window is open deterministically.
    let daemon = Daemon::boot(&state, &["--paused"]);

    let addr = daemon.addr.clone();
    let replies: Vec<(u16, String)> = {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    http::request(&addr, "POST", "/jobs", Some(&cell_body("histo", "swarm")))
                        .expect("POST /jobs")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    // Every reply names the same job; exactly one created it.
    let mut created = 0;
    for (status, reply) in &replies {
        assert_eq!(*status, 200, "{reply}");
        let doc = json::parse(reply).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("job-1"));
        if doc.get("coalesced").unwrap().as_bool() == Some(false) {
            created += 1;
        }
    }
    assert_eq!(created, 1, "exactly one submission creates the job");

    let (_, metrics) = daemon.get("/metrics");
    let doc = json::parse(&metrics).unwrap();
    assert_eq!(metric(&doc, "jobs", "submitted"), 1);
    assert_eq!(metric(&doc, "jobs", "coalesced"), (N - 1) as u64);
    assert_eq!(metric(&doc, "jobs", "queue_depth"), 1);

    // Release the queue: the one job runs exactly one simulation.
    assert_eq!(daemon.post("/queue/resume", "").0, 200);
    let (status, _) = daemon.await_result("job-1");
    assert_eq!(status, 200);
    let (_, metrics) = daemon.get("/metrics");
    let doc = json::parse(&metrics).unwrap();
    assert_eq!(metric(&doc, "jobs", "completed"), 1);
    assert_eq!(
        metric(&doc, "cache", "stores"),
        1,
        "one simulation stored one cell"
    );

    assert!(daemon.shutdown());
}

#[test]
fn distinct_jobs_sharing_cells_simulate_each_cell_once() {
    // `table2` and `table3` share all 14 of their smoke-scale cells: the
    // first job simulates and stores each one, the second reads every
    // one back from the cache. A cold cell is one cache miss, not two.
    let state = state_dir("dmdc-service-shared-cells");
    let daemon = Daemon::boot(&state, &[]);
    for experiment in ["table2", "table3"] {
        let report = daemon.submit_wait(experiment);
        assert!(report.contains(experiment), "{report}");
    }

    let (_, metrics) = daemon.get("/metrics");
    let doc = json::parse(&metrics).unwrap();
    assert_eq!(metric(&doc, "jobs", "completed"), 2);
    assert_eq!(metric(&doc, "cache", "hits"), 14, "{metrics}");
    assert_eq!(metric(&doc, "cache", "misses"), 14, "{metrics}");
    assert_eq!(metric(&doc, "cache", "stores"), 14, "{metrics}");
    assert!(doc.get("flight").is_none(), "{metrics}");

    assert!(daemon.shutdown());
}

#[test]
fn over_quota_submission_is_a_structured_429() {
    let state = state_dir("dmdc-service-quota");
    let daemon = Daemon::boot(&state, &["--quota", "2", "--paused"]);

    assert_eq!(daemon.post("/jobs", &cell_body("histo", "greedy")).0, 200);
    assert_eq!(daemon.post("/jobs", &cell_body("saxpy", "greedy")).0, 200);
    let (status, reply) = daemon.post("/jobs", &cell_body("crc", "greedy"));
    assert_eq!(status, 429, "{reply}");
    let doc = json::parse(&reply).unwrap();
    assert_eq!(doc.get("error").unwrap().as_str(), Some("quota exceeded"));
    assert_eq!(doc.get("client").unwrap().as_str(), Some("greedy"));
    assert_eq!(doc.get("active").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("limit").unwrap().as_u64(), Some(2));

    // Quota is per client: another client still gets in. And identical
    // submissions coalesce instead of consuming quota.
    assert_eq!(daemon.post("/jobs", &cell_body("crc", "patient")).0, 200);
    let (status, reply) = daemon.post("/jobs", &cell_body("histo", "greedy"));
    assert_eq!(status, 200);
    let doc = json::parse(&reply).unwrap();
    assert_eq!(doc.get("coalesced").unwrap().as_bool(), Some(true));

    let (_, metrics) = daemon.get("/metrics");
    let doc = json::parse(&metrics).unwrap();
    assert_eq!(metric(&doc, "jobs", "rejected"), 1);

    assert!(daemon.shutdown());
}

/// The three jobs of the restart tests: dispatch order job-2, job-3, job-1.
const RESTART_JOBS: [(&str, &str); 3] = [("histo", "10"), ("saxpy", "200"), ("crc", "100")];

fn restart_body(workload: &str, priority: &str) -> String {
    format!(
        "{{\"kind\": \"cell\", \"workload\": \"{workload}\", \"policy\": \"baseline\", \
         \"scale\": \"smoke\", \"client\": \"r\", \"priority\": {priority}}}"
    )
}

/// An undisturbed daemon's result bytes for `RESTART_JOBS`, by job id.
fn restart_reference() -> Vec<String> {
    let reference = Daemon::boot(&state_dir("dmdc-service-restart-ref"), &[]);
    for (workload, priority) in RESTART_JOBS {
        assert_eq!(
            reference.post("/jobs", &restart_body(workload, priority)).0,
            200
        );
    }
    let expected = (1..=3)
        .map(|i| {
            let (status, payload) = reference.await_result(&format!("job-{i}"));
            assert_eq!(status, 200, "{payload}");
            payload
        })
        .collect();
    assert!(reference.shutdown());
    expected
}

/// The ids a daemon tracks, from `GET /jobs`.
fn listed_jobs(daemon: &Daemon) -> Vec<String> {
    let (status, body) = daemon.get("/jobs");
    assert_eq!(status, 200, "{body}");
    json::parse(&body)
        .unwrap()
        .get("jobs")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|job| job.get("id").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn kill9_then_restart_resumes_jobs_byte_identically() {
    let expected = restart_reference();

    // Every durable write of a paused daemon that takes the three jobs
    // and then runs them is a crash point: three job envelopes, then per
    // job (in dispatch order) one cell and one result. `kill-after=k`
    // aborts — SIGKILL's reproducible stand-in — right after the kth.
    // Each crash is followed by a restart without faults; the first k
    // the daemon survives is W + 1.
    let mut k: usize = 1;
    let writes = loop {
        assert!(k <= 20, "the daemon died at every write count up to 20");
        let state = state_dir(&format!("dmdc-service-restart-{k}"));
        let kill = format!("kill-after={k}");
        let victim = Daemon::boot(&state, &["--paused", "--inject-faults", &kill]);
        let mut acked = 0;
        for (workload, priority) in RESTART_JOBS {
            let body = restart_body(workload, priority);
            match http::request(&victim.addr, "POST", "/jobs", Some(&body)) {
                Ok((status, reply)) => {
                    assert_eq!(status, 200, "k={k}: {reply}");
                    acked += 1;
                }
                // The daemon died persisting this job.
                Err(_) => break,
            }
        }
        let mut survived = false;
        if acked == 3 {
            assert_eq!(victim.post("/queue/resume", "").0, 200);
            // Poll in dispatch order; a dropped long-poll means the
            // daemon died before that job finished.
            survived = ["job-2", "job-3", "job-1"].iter().all(|id| {
                http::request(
                    &victim.addr,
                    "GET",
                    &format!("/jobs/{id}/result?wait=60000"),
                    None,
                )
                .is_ok_and(|(status, _)| status == 200)
            });
        }
        if survived {
            assert!(victim.shutdown());
            break k - 1;
        }
        drop(victim);

        // Restart over the same state dir: every job the first life acked
        // or persisted is back, the unfinished ones re-run, and every one
        // ends with the reference bytes under its id.
        let persisted = k.min(3);
        assert_eq!(acked, (k - 1).min(3), "k={k}: acked jobs");
        let revived = Daemon::boot(&state, &[]);
        let ids: Vec<String> = (1..=persisted).map(|i| format!("job-{i}")).collect();
        assert_eq!(listed_jobs(&revived), ids, "k={k}: recovered job table");
        let finished = k.saturating_sub(3) / 2;
        let (_, metrics) = revived.get("/metrics");
        let doc = json::parse(&metrics).unwrap();
        assert_eq!(
            metric(&doc, "jobs", "recovered"),
            (persisted - finished) as u64,
            "k={k}: {metrics}"
        );
        for (id, expected) in ids.iter().zip(&expected) {
            let (status, payload) = revived.await_result(id);
            assert_eq!(status, 200, "k={k}: {payload}");
            assert_eq!(
                &payload, expected,
                "k={k}: {id} must reproduce the reference bytes"
            );
        }
        // New submissions continue the id sequence past the recovered jobs.
        let (status, reply) = revived.post("/jobs", &cell_body("mm", "r"));
        assert_eq!(status, 200, "{reply}");
        let doc = json::parse(&reply).unwrap();
        let next = format!("job-{}", persisted + 1);
        assert_eq!(
            doc.get("id").unwrap().as_str(),
            Some(next.as_str()),
            "k={k}"
        );
        assert!(revived.shutdown());
        k += 1;
    };
    assert_eq!(writes, 9, "three job envelopes, three cells, three results");
}

#[test]
fn corrupt_result_is_quarantined_and_the_job_reruns() {
    let expected = restart_reference();

    // Writes count from 0, and `corrupt=100` with seed 96 flips a byte
    // in write 4 only: job-2's result, the first job to run.
    let state = state_dir("dmdc-service-corrupt-result");
    let first = Daemon::boot(
        &state,
        &["--paused", "--inject-faults", "seed=96,corrupt=100"],
    );
    for (workload, priority) in RESTART_JOBS {
        assert_eq!(
            first.post("/jobs", &restart_body(workload, priority)).0,
            200
        );
    }
    assert_eq!(first.post("/queue/resume", "").0, 200);
    // job-1 runs last; job-2's damaged result is not read in this life.
    assert_eq!(first.await_result("job-1"), (200, expected[0].clone()));
    assert!(first.shutdown());

    let revived = Daemon::boot(&state, &[]);
    let (_, metrics) = revived.get("/metrics");
    let doc = json::parse(&metrics).unwrap();
    assert_eq!(metric(&doc, "jobs", "recovered"), 1, "{metrics}");
    for (i, expected) in expected.iter().enumerate() {
        let id = format!("job-{}", i + 1);
        assert_eq!(revived.await_result(&id), (200, expected.clone()), "{id}");
    }
    let quarantined = std::fs::read_dir(state.join("results").join("quarantine"))
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert_eq!(quarantined, 1, "the damaged result is kept for inspection");
    assert!(revived.shutdown());
}

#[test]
fn graceful_drain_finishes_queued_jobs_before_exit() {
    // Shutdown with the queue paused and full, by `POST /shutdown` and by
    // SIGTERM: drain must override the pause, run both jobs, persist both
    // results, then exit cleanly. The daemon blocks in `accept` with no
    // timer, so SIGTERM must wake it (its signal thread connects to the
    // listener).
    for by_signal in [false, true] {
        let state = state_dir(if by_signal {
            "dmdc-service-sigterm"
        } else {
            "dmdc-service-drain"
        });
        let daemon = Daemon::boot(&state, &["--paused"]);
        assert_eq!(daemon.post("/jobs", &cell_body("histo", "d")).0, 200);
        assert_eq!(daemon.post("/jobs", &cell_body("crc", "d")).0, 200);

        let clean = if by_signal {
            daemon.terminate()
        } else {
            daemon.shutdown()
        };
        assert!(clean, "drain exits cleanly (by SIGTERM: {by_signal})");
        // A paused daemon over the same state dir serves both results and
        // has nothing left to re-run.
        let next = Daemon::boot(&state, &["--paused"]);
        for id in ["job-1", "job-2"] {
            let (status, payload) = next.get(&format!("/jobs/{id}/result"));
            assert_eq!(status, 200, "{id} result persisted during drain: {payload}");
        }
        let (_, metrics) = next.get("/metrics");
        let doc = json::parse(&metrics).unwrap();
        assert_eq!(metric(&doc, "jobs", "recovered"), 0, "{metrics}");
        assert!(next.shutdown());
    }
}

#[test]
fn sampled_jobs_share_checkpoints_across_daemon_lives() {
    // The daemon's context carries the checkpoint store under
    // `<state-dir>/cache/checkpoints/`. Checkpoint keys leave the policy
    // out, so after a restart the same sampled cell under another policy
    // restores every window instead of fast-forwarding again.
    let state = state_dir("dmdc-service-checkpoints");
    let checkpoints = || {
        std::fs::read_dir(state.join("cache").join("checkpoints"))
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                    .count()
            })
            .unwrap_or(0)
    };
    let job = |policy: &str| {
        format!(
            "{{\"kind\": \"cell\", \"workload\": \"histo\", \"policy\": \"{policy}\", \
             \"scale\": \"default\", \"sampled\": true}}"
        )
    };
    let mut stored = 0;
    for policy in ["dmdc-global", "baseline"] {
        let daemon = Daemon::boot(&state, &[]);
        let (status, reply) = daemon.post("/jobs", &job(policy));
        assert_eq!(status, 200, "{reply}");
        let id = json::parse(&reply)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let (status, payload) = daemon.await_result(&id);
        assert_eq!(status, 200, "{payload}");
        assert!(daemon.shutdown());
        if stored == 0 {
            stored = checkpoints();
            assert!(stored > 0, "the first sampled job persists its checkpoints");
        } else {
            assert_eq!(checkpoints(), stored, "the second life adds no checkpoint");
        }
    }
}

#[test]
fn clients_arriving_during_drain_are_refused_not_parked() {
    // A paused default-scale fig5 job (126 cells) keeps the drain busy
    // well past the 5 s bound below. Once `POST /shutdown` has been
    // answered the daemon accepts nothing more, so a late client must
    // hear back at once — a refused or reset connection, or an answer —
    // instead of sitting unread in the accept backlog until the process
    // exits.
    let state = state_dir("dmdc-service-late-client");
    let daemon = Daemon::boot(&state, &["--paused"]);
    let job = r#"{"kind": "experiment", "id": "fig5", "scale": "default"}"#;
    assert_eq!(daemon.post("/jobs", job).0, 200);
    assert_eq!(daemon.post("/shutdown", "").0, 200);

    let bound = Duration::from_secs(5);
    let start = Instant::now();
    if let Ok(mut stream) = std::net::TcpStream::connect(&daemon.addr) {
        use std::io::{Read, Write};
        stream.set_read_timeout(Some(bound)).unwrap();
        let _ = stream.write_all(b"GET /health HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
        let mut reply = Vec::new();
        if let Err(e) = stream.read_to_end(&mut reply) {
            assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "a client arriving during the drain was left unanswered for {bound:?}"
            );
        }
    }
    assert!(
        start.elapsed() < bound,
        "late client waited {:?}",
        start.elapsed()
    );
}
