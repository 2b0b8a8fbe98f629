//! Golden snapshots of the service's wire documents: every JSON payload
//! `dmdc serve` puts on the wire — submit replies, status documents,
//! stored results, quota rejections, metrics — must stay byte-identical
//! to the committed snapshots under `tests/golden/service/`.
//!
//! The documents are produced in-process through the same router the
//! daemon serves from, against a deterministically staged job manager,
//! so the snapshots pin the wire contract without any sockets involved.
//! To regenerate after an intentional wire change:
//!
//! ```text
//! DMDC_UPDATE_GOLDEN=1 cargo test --test service_wire
//! ```

use std::path::PathBuf;

use dmdc::core::runner::Context;
use dmdc::core::service::http::Request;
use dmdc::core::service::jobs::{self, JobManager};
use dmdc::core::service::route;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/service")
        .join(name)
}

/// Compares `actual` against the committed snapshot, or rewrites it
/// when `DMDC_UPDATE_GOLDEN` is set.
fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("DMDC_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "wire document `{name}` drifted from {} \
         (regenerate with DMDC_UPDATE_GOLDEN=1 if intentional)",
        path.display()
    );
}

fn post(manager: &JobManager, body: &str) -> (u16, String) {
    route(
        &Request {
            method: "POST".to_string(),
            path: "/jobs".to_string(),
            body: body.to_string(),
        },
        manager,
        &Context::new(),
    )
}

fn get(manager: &JobManager, path: &str) -> (u16, String) {
    route(
        &Request {
            method: "GET".to_string(),
            path: path.to_string(),
            body: String::new(),
        },
        manager,
        &Context::new(),
    )
}

const CELL: &str = r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "scale": "smoke", "client": "alice"}"#;

/// A fresh, paused job manager under `target/<name>`.
fn staged_manager(name: &str) -> (JobManager, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let manager = JobManager::new(&Context::new(), &dir, 2).unwrap();
    manager.set_paused(true);
    (manager, dir)
}

/// One test drives the staged queue lifecycle: the wire documents build
/// on each other (coalescing needs the created job, the metrics count
/// every step). The metrics document includes a cache section only when
/// the daemon's context has a cache; the routes here run under a bare
/// context, so it is absent.
#[test]
fn wire_documents_match_golden_snapshots() {
    let (manager, dir) = staged_manager("dmdc-service-wire-test");

    // Submit replies: created, coalesced, and the structured 429.
    let (status, created) = post(&manager, CELL);
    assert_eq!(status, 200);
    check("submit-created.json", &created);

    let (status, coalesced) = post(&manager, CELL);
    assert_eq!(status, 200);
    check("submit-coalesced.json", &coalesced);

    let saxpy = CELL.replace("histo", "saxpy");
    assert_eq!(post(&manager, &saxpy).0, 200); // fills alice's quota of 2
    let (status, rejected) = post(&manager, &CELL.replace("histo", "crc"));
    assert_eq!(status, 429);
    check("submit-over-quota.json", &rejected);

    // Status documents: one job, the full listing, the pending result.
    let (status, job_status) = get(&manager, "/jobs/job-1");
    assert_eq!(status, 200);
    check("status-queued.json", &job_status);

    let (status, listing) = get(&manager, "/jobs");
    assert_eq!(status, 200);
    check("jobs-list.json", &listing);

    let (status, pending) = get(&manager, "/jobs/job-1/result");
    assert_eq!(status, 202);
    check("result-pending.json", &pending);

    // A long-poll that runs out on the paused queue answers with the
    // same pending document, byte for byte.
    let (status, timed_out) = get(&manager, "/jobs/job-1/result?wait=20");
    assert_eq!(status, 202);
    assert_eq!(timed_out, pending);
    check("result-wait-timeout.json", &timed_out);

    // A finished job (its stored result has its own test below).
    manager.complete("job-1", Ok("{}\n".to_string()));

    // A failed job stores a structured error document, served as a 500.
    manager.complete(
        "job-2",
        Err("injected failure for the snapshot".to_string()),
    );
    let (status, failed) = get(&manager, "/jobs/job-2/result");
    assert_eq!(status, 500);
    check("result-failed.json", &failed);

    // The metrics document over the staged state above.
    let (status, metrics) = get(&manager, "/metrics");
    assert_eq!(status, 200);
    check("metrics.json", &metrics);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The stored result for the real simulation: the same report JSON the
/// CLI's `--format json` emits, fetched through the result route.
#[test]
fn cell_result_document_matches_golden_snapshot() {
    let (manager, dir) = staged_manager("dmdc-service-wire-result");
    assert_eq!(post(&manager, CELL).0, 200);
    let payload = jobs::execute(&Context::new(), &manager_spec()).expect("cell simulates clean");
    manager.complete("job-1", Ok(payload));
    let (status, result) = get(&manager, "/jobs/job-1/result");
    assert_eq!(status, 200);
    check("result-cell.json", &result);

    // A long-poll on a finished job returns the stored payload at once.
    let started = std::time::Instant::now();
    let (status, waited) = get(&manager, "/jobs/job-1/result?wait=60000");
    assert_eq!((status, waited.as_str()), (200, result.as_str()));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "a finished job's long-poll must not park"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every hostile body must come back as a structured `{"error": ...}`
/// document with a 4xx status — never a panic, never a hang. This is the
/// fuzz-style sweep over the router; the raw-socket layer below covers
/// what the router never sees.
#[test]
fn hostile_bodies_return_structured_errors() {
    let (manager, dir) = staged_manager("dmdc-service-wire-negative");

    let hostile_posts = [
        "",                      // empty body
        "{",                     // truncated JSON
        "not json at all",       // not JSON
        "[1, 2, 3]",             // wrong top-level type
        r#"{"kind": "cell"}"#,   // missing fields
        r#"{"kind": "teapot"}"#, // unknown kind
        r#"{"kind": "cell", "workload": "histo", "policy": "nonsense", "scale": "smoke"}"#,
        r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "scale": "galactic"}"#,
        r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "scale": "smoke", "priority": 300}"#,
        r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "scale": "smoke", "priority": -1}"#,
        r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "scale": "smoke", "priority": 1.5}"#,
        r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "scale": "smoke", "priority": "high"}"#,
        r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "scale": "smoke", "client": ""}"#,
        r#"{"kind": "experiment", "id": "no-such-figure", "scale": "smoke"}"#,
        "{\"kind\": \"cell\", \"workload\": \"\u{0}\"}", // control bytes
    ];
    for body in hostile_posts {
        let (status, reply) = post(&manager, body);
        assert_eq!(status, 400, "body {body:?} must be a 400, got {reply:?}");
        assert!(
            reply.starts_with("{\"error\": "),
            "body {body:?} must produce a structured error, got {reply:?}"
        );
    }

    // Unknown routes and wrong methods: structured 404/405, never a panic.
    let unknown = [
        ("GET", "/"),
        ("GET", "/nope"),
        ("GET", "/jobs/../../etc/passwd"),
        ("GET", "/jobs/job-999"),
        ("GET", "/jobs/job-1/result/extra"),
        ("POST", "/metrics"),
        ("DELETE", "/jobs"),
        ("BREW", "/jobs"),
    ];
    for (method, path) in unknown {
        let (status, reply) = route(
            &Request {
                method: method.to_string(),
                path: path.to_string(),
                body: String::new(),
            },
            &manager,
            &Context::new(),
        );
        assert!(
            matches!(status, 404 | 405),
            "{method} {path} must be 404/405, got {status}: {reply:?}"
        );
        assert!(
            reply.starts_with("{\"error\": "),
            "{method} {path} must produce a structured error, got {reply:?}"
        );
    }

    // Result-route queries other than one `wait=<ms>`: a structured 400,
    // answered before any waiting, never a panic.
    assert_eq!(post(&manager, CELL).0, 200);
    let bad_queries = [
        "wait=abc",
        "wait=-1",
        "wait=99999999999999999999",
        "foo=1",
        "wait=",
        "wait=5&wait=6",
        "wait=+5",
    ];
    for query in bad_queries {
        for id in ["job-1", "job-999"] {
            let path = format!("/jobs/{id}/result?{query}");
            let (status, reply) = get(&manager, &path);
            assert_eq!(status, 400, "{path} must be a 400, got {reply:?}");
            assert!(
                reply.starts_with("{\"error\": "),
                "{path} must produce a structured error, got {reply:?}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The raw-socket layer: truncated requests, oversized headers/bodies
/// and stalled clients must come back as classified [`ReadError`]s with
/// the right status — 400, 413 and 408 — instead of pinning the accept
/// thread or crashing it.
#[test]
fn raw_socket_abuse_is_classified_not_fatal() {
    use dmdc::core::service::http::{read_request, ReadError, MAX_HEADER_BYTES};
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Duration;

    // Each case: raw client bytes (then immediate close unless `stall`),
    // and the status the classified error must map to.
    struct Case {
        name: &'static str,
        bytes: Vec<u8>,
        stall: bool,
        status: u16,
    }
    let cases = vec![
        Case {
            name: "truncated body",
            bytes: b"POST /jobs HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"kin".to_vec(),
            stall: false,
            status: 400,
        },
        Case {
            name: "truncated header block",
            bytes: b"POST /jobs HTTP/1.1\r\ncontent-le".to_vec(),
            stall: false,
            status: 400,
        },
        Case {
            name: "empty connection",
            bytes: Vec::new(),
            stall: false,
            status: 400,
        },
        Case {
            name: "oversized declared body",
            bytes: b"POST /jobs HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n".to_vec(),
            stall: false,
            status: 413,
        },
        Case {
            name: "oversized header block",
            bytes: {
                let mut b = b"GET /jobs HTTP/1.1\r\nx-filler: ".to_vec();
                b.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 1024));
                b
            },
            stall: false,
            status: 413,
        },
        Case {
            name: "stalled client",
            bytes: b"POST /jobs HTTP/1.1\r\n".to_vec(),
            stall: true,
            status: 408,
        },
    ];

    for case in cases {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = case.stall;
        let bytes = case.bytes.clone();
        let client = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.write_all(&bytes).unwrap();
            if stall {
                // Hold the socket open, sending nothing, past the
                // server's read deadline.
                std::thread::sleep(Duration::from_millis(500));
            }
            drop(s);
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let started = std::time::Instant::now();
        let err = match read_request(&mut stream) {
            Err(e) => e,
            Ok(r) => panic!("{}: parsed {:?} from garbage", case.name, r.path),
        };
        assert_eq!(err.status(), case.status, "{}: got {err:?}", case.name);
        assert!(
            !err.message().is_empty(),
            "{}: empty error message",
            case.name
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{}: read_request hung",
            case.name
        );
        // ReadError statuses stay within the structured set.
        assert!(matches!(
            err,
            ReadError::TooLarge(_) | ReadError::Timeout(_) | ReadError::Malformed(_)
        ));
        let _ = client.join();
    }
}

/// The spec matching [`CELL`], for executing the real simulation.
fn manager_spec() -> jobs::JobSpec {
    use dmdc::core::experiments::PolicyKind;
    use dmdc::workloads::Scale;
    jobs::JobSpec::Cell {
        workload: "histo".to_string(),
        policy: PolicyKind::Baseline,
        config: 2,
        scale: Scale::Smoke,
        inval_rate: 0.0,
        sampled: false,
    }
}
