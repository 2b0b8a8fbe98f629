//! `dmdc serve` — the long-running simulation service.
//!
//! The daemon turns the experiment registry into a queryable HTTP/JSON
//! service: clients POST jobs (a single cell or a whole experiment),
//! poll their status, and fetch the finished report — the exact same
//! JSON documents the CLI's `--format json` emitters print. Everything
//! is std-only: the wire layer is the hand-rolled [`http`] module, the
//! documents go through the hand-rolled [`json`] parser, in the same
//! offline-shim spirit as the repo's proptest stand-in.
//!
//! Layering:
//!
//! * [`json`] — a strict recursive-descent JSON parser + escaper;
//! * [`http`] — minimal HTTP/1.1 framing, the blocking accept loop
//!   (shared with the `--distrib` coordinator), and the client;
//! * [`jobs`] — the job model: spec parsing, quota accounting,
//!   job-level coalescing, sealed-envelope persistence, recovery, and
//!   execution through the ordinary [`Engine`](crate::runner::Engine)
//!   under the daemon's [`Context`];
//! * this module — the daemon itself: routing, the result long-poll,
//!   the dispatcher thread, graceful drain on SIGTERM/`POST /shutdown`.
//!
//! Duplicate work is suppressed by two mechanisms: identical
//! *submissions* merge onto one queued job (see
//! [`jobs::JobManager::submit`]), and distinct jobs that share cells
//! share them through the content-addressed cell cache. Jobs run one at
//! a time on a single dispatcher, so a shared cell is simulated by the
//! first job that needs it and read from the cache by every later one.
//!
//! # Routes
//!
//! | Method, path                      | Meaning                                      |
//! |-----------------------------------|----------------------------------------------|
//! | `GET /health`                     | liveness probe                               |
//! | `POST /jobs`                      | submit a job (a cell or experiment [`Work`]) |
//! | `GET /jobs`                       | list all tracked jobs                        |
//! | `GET /jobs/<id>`                  | one job's status document                    |
//! | `GET /jobs/<id>/result`           | the stored result (202 while pending)        |
//! | `GET /jobs/<id>/result?wait=<ms>` | long-poll: 202 only after `ms` (≤ 60 s)      |
//! | `GET /metrics`                    | service, store and recovery counters         |
//! | `POST /queue/pause`               | stop dispatching (submissions still enqueue) |
//! | `POST /queue/resume`              | resume dispatching                           |
//! | `POST /shutdown`                  | graceful drain, then exit                    |
//!
//! Status codes are part of the contract: 202 pending result, 404
//! unknown id, 405 wrong method, 408 stalled client (read deadline),
//! 409 draining, 413 oversized headers/body, 429 over quota, 500
//! failed job / internal error. A query on the result route other than
//! one `wait=<non-negative integer>` is a 400.

pub mod http;
pub mod jobs;
pub mod json;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cache::CacheCounters;
use crate::experiments::Work;
use crate::runner::Context;
use crate::service::http::error_body;
use crate::service::jobs::{JobManager, JobState, SubmitOutcome};

/// Process-wide stop flag: set by SIGTERM/SIGINT or `POST /shutdown`,
/// read by the accept loop after every accept. A static because a signal
/// reaches the process, not a daemon handle.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The longest a `?wait=` result poll parks, inside the HTTP client's
/// 120 s read timeout.
const MAX_RESULT_WAIT: Duration = Duration::from_secs(60);

/// Both shutdown triggers end here: raise the stop flag, then connect
/// once to the daemon's own listener at `wake` (the bound address under
/// [`http::wake_addr`]'s rule) so the blocked `accept` returns and reads
/// it.
fn trigger_shutdown(wake: SocketAddr) {
    SHUTDOWN.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(wake);
}

/// Configuration for one [`serve`] call.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port (printed at boot).
    pub addr: String,
    /// Root for durable state: sealed `jobs/<016x>.job` and
    /// `results/<016x>.result` envelopes keyed by job number, and the
    /// `cache/` holding the cell store and its `checkpoints/`.
    pub state_dir: PathBuf,
    /// Per-client in-flight (queued + running) job limit.
    pub quota: usize,
    /// Boot with the dispatcher paused (tests use this to stage
    /// deterministic queue states before anything runs).
    pub paused: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("target/dmdc-serve"),
            quota: 16,
            paused: false,
        }
    }
}

/// SIGTERM and SIGINT, turned into an ordinary thread: both signals are
/// blocked in the calling thread — and so in every thread it spawns
/// after this — and one thread takes them with `sigwait`, then runs
/// [`trigger_shutdown`] on `wake` outside signal context. Call before
/// spawning any thread; a signal that arrives early stays pending until
/// the waiter takes it. (`std::process::Command` resets the mask in
/// children.) The waiter is detached: it lives until a signal comes or
/// the process exits.
#[cfg(unix)]
fn handle_shutdown_signals(wake: SocketAddr) -> Result<(), String> {
    /// Large enough for every libc's `sigset_t` (glibc's is 128 bytes).
    #[repr(C)]
    struct SigSet([u64; 16]);
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const SIG_BLOCK: i32 = 0;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const SIG_BLOCK: i32 = 1;
    unsafe extern "C" {
        fn sigemptyset(set: *mut SigSet) -> i32;
        fn sigaddset(set: *mut SigSet, signum: i32) -> i32;
        fn pthread_sigmask(how: i32, set: *const SigSet, old: *mut SigSet) -> i32;
        fn sigwait(set: *const SigSet, sig: *mut i32) -> i32;
    }
    let mut set = SigSet([0; 16]);
    // SAFETY: `set` is a live, writable buffer at least as large as the
    // platform's `sigset_t`, and 15 and 2 are valid signal numbers; a
    // null `old` asks for no copy of the previous mask.
    let blocked = unsafe {
        sigemptyset(&mut set);
        sigaddset(&mut set, 15); // SIGTERM
        sigaddset(&mut set, 2); // SIGINT
        pthread_sigmask(SIG_BLOCK, &set, std::ptr::null_mut())
    };
    if blocked != 0 {
        return Err(format!("pthread_sigmask failed ({blocked})"));
    }
    std::thread::spawn(move || {
        let mut sig = 0;
        // SAFETY: `set` was initialised above and is owned by this
        // closure; `sig` is a writable `int`.
        if unsafe { sigwait(&set, &mut sig) } == 0 {
            trigger_shutdown(wake);
        }
    });
    Ok(())
}

#[cfg(not(unix))]
fn handle_shutdown_signals(_wake: SocketAddr) -> Result<(), String> {
    Ok(())
}

/// Runs the daemon until a graceful shutdown completes. Every job runs
/// under `ctx` (the CLI gives it the cell cache and checkpoint store at
/// `state_dir/cache`), and the job state is built in it, so its fault
/// plan reaches the job and result writes too. Recovers any unfinished
/// jobs from a previous life, prints the bound address, and serves until
/// SIGTERM/SIGINT or `POST /shutdown` drains the queue.
pub fn serve(ctx: &Context, opts: &ServeOptions) -> Result<(), String> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    let listener = TcpListener::bind(&opts.addr).map_err(|e| format!("{}: {e}", opts.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let wake = http::wake_addr(addr);
    handle_shutdown_signals(wake)?;

    let manager = Arc::new(JobManager::new(ctx, &opts.state_dir, opts.quota)?);
    manager.set_paused(opts.paused);
    let recovered = manager.recover();

    println!("dmdc serve: listening on {addr}");
    println!(
        "dmdc serve: state dir {} ({recovered} job(s) recovered)",
        opts.state_dir.display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // One dispatcher: jobs run strictly one at a time in queue order
    // (each job is internally parallel through the engine's worker pool),
    // which is what makes killed-and-restarted runs byte-identical.
    let dispatcher = {
        let manager = Arc::clone(&manager);
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            while let Some((id, spec)) = manager.next_job() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    jobs::execute(&ctx, &spec)
                }))
                .unwrap_or_else(|p| {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job panicked".to_string());
                    Err(format!("panic: {msg}"))
                });
                manager.complete(&id, outcome);
            }
        })
    };

    let serving = Arc::clone(&manager);
    let ctx = ctx.clone();
    let (handlers, accepted) = http::accept_loop(
        &listener,
        || SHUTDOWN.load(Ordering::SeqCst),
        Duration::from_secs(30),
        move |request| {
            let reply = route(request, &serving, &ctx);
            if SHUTDOWN.load(Ordering::SeqCst) {
                trigger_shutdown(wake);
            }
            reply
        },
    );

    // Graceful drain: stop accepting, finish every queued job, persist
    // every result, then exit. Closing the listener first makes a client
    // arriving during the drain get a refusal at once (its retry logic
    // treats that as transient) rather than sit in the accept backlog
    // until the process exits. Draining wakes every parked result poll,
    // and each returns once its job is done.
    drop(listener);
    manager.begin_drain();
    for h in handlers {
        let _ = h.join();
    }
    dispatcher.join().map_err(|_| "dispatcher panicked")?;
    accepted.map_err(|e| format!("accept: {e}"))?;
    println!("dmdc serve: drained, exiting");
    Ok(())
}

/// Routes one request to its `(status, body)`; `ctx` is the daemon's run
/// context (its cell cache feeds `GET /metrics`). Public so tests can pin
/// the wire contract without sockets.
pub fn route(request: &http::Request, manager: &JobManager, ctx: &Context) -> (u16, String) {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/health") => (200, "{\"ok\": true}\n".to_string()),
        ("POST", "/jobs") => submit(request, manager),
        ("GET", "/jobs") => list_jobs(manager),
        ("GET", "/metrics") => (200, metrics_json(manager, ctx)),
        ("POST", "/queue/pause") => {
            manager.set_paused(true);
            (200, "{\"paused\": true}\n".to_string())
        }
        ("POST", "/queue/resume") => {
            manager.set_paused(false);
            (200, "{\"paused\": false}\n".to_string())
        }
        ("POST", "/shutdown") => {
            // The daemon's request loop wakes its accept once it sees
            // the flag.
            SHUTDOWN.store(true, Ordering::SeqCst);
            (200, "{\"draining\": true}\n".to_string())
        }
        ("GET", _) if path.starts_with("/jobs/") => job_route(path, manager),
        (_, "/health" | "/jobs" | "/metrics" | "/queue/pause" | "/queue/resume" | "/shutdown") => {
            (405, error_body(&format!("{method} not allowed on {path}")))
        }
        (_, _) if path.starts_with("/jobs/") => {
            (405, error_body(&format!("{method} not allowed on {path}")))
        }
        _ => (404, error_body(&format!("no route for {path}"))),
    }
}

/// `POST /jobs`: parse, validate, submit, answer with the job id.
fn submit(request: &http::Request, manager: &JobManager) -> (u16, String) {
    let doc = match json::parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => return (400, error_body(&format!("bad JSON: {e}"))),
    };
    // A job runs on the daemon's one engine; the suite matrix is the
    // fleet's unit of work, not a job.
    match doc.get("kind").and_then(json::Json::as_str) {
        Some("cell" | "experiment") => {}
        None => return (400, error_body("missing `kind` (cell or experiment)")),
        Some(other) => {
            let e = format!("unknown job kind `{other}` (cell or experiment)");
            return (400, error_body(&e));
        }
    }
    let spec = match Work::from_json(&doc) {
        Ok(spec) => spec,
        Err(e) => return (400, error_body(&e)),
    };
    let priority = match doc.get("priority") {
        None => 100,
        Some(v) => match v.as_u64() {
            Some(p @ 0..=255) => p as u8,
            _ => return (400, error_body("`priority` must be an integer in 0..=255")),
        },
    };
    let client = match doc.get("client") {
        None => "anonymous",
        Some(v) => match v.as_str() {
            Some(c) if !c.is_empty() => c,
            _ => return (400, error_body("`client` must be a non-empty string")),
        },
    };
    match manager.submit(spec, priority, client) {
        Ok(SubmitOutcome::Created(id)) => (
            200,
            format!(
                "{{\"id\": \"{}\", \"state\": \"queued\", \"coalesced\": false}}\n",
                json::escape(&id)
            ),
        ),
        Ok(SubmitOutcome::Coalesced(id)) => {
            let state = manager.state(&id).map(|s| s.token()).unwrap_or("queued");
            (
                200,
                format!(
                    "{{\"id\": \"{}\", \"state\": \"{state}\", \"coalesced\": true}}\n",
                    json::escape(&id)
                ),
            )
        }
        Ok(SubmitOutcome::OverQuota {
            client,
            active,
            limit,
        }) => (
            429,
            format!(
                "{{\"error\": \"quota exceeded\", \"client\": \"{}\", \
                 \"active\": {active}, \"limit\": {limit}}}\n",
                json::escape(&client)
            ),
        ),
        Err(e) if e.contains("draining") => (409, error_body(&e)),
        Err(e) => (500, error_body(&e)),
    }
}

/// `GET /jobs`: every tracked job's status document, in id order.
fn list_jobs(manager: &JobManager) -> (u16, String) {
    let mut out = String::from("{\"jobs\": [");
    for (i, id) in manager.job_ids().iter().enumerate() {
        let Some(status) = manager.status_json(id) else {
            continue;
        };
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(status.trim_end());
    }
    out.push_str("]}\n");
    (200, out)
}

/// `GET /jobs/<id>` and `GET /jobs/<id>/result[?wait=<ms>]`.
fn job_route(path: &str, manager: &JobManager) -> (u16, String) {
    let rest = &path["/jobs/".len()..];
    let (target, query) = match rest.split_once('?') {
        Some((target, query)) => (target, Some(query)),
        None => (rest, None),
    };
    if let Some(id) = target.strip_suffix("/result") {
        let wait = match result_wait(query) {
            Ok(wait) => wait,
            Err(e) => return (400, error_body(&e)),
        };
        return match manager.wait_finished(id, wait) {
            None => (404, error_body(&format!("unknown job `{id}`"))),
            Some(JobState::Queued | JobState::Running) => {
                (202, manager.status_json(id).unwrap_or_default())
            }
            Some(JobState::Done | JobState::Failed) => match manager.load_result(id) {
                Some((JobState::Done, payload)) => (200, payload),
                Some((_, payload)) => (500, payload),
                None => (500, error_body("result envelope missing or corrupt")),
            },
        };
    }
    match manager.status_json(rest) {
        Some(status) => (200, status),
        None => (404, error_body(&format!("unknown job `{rest}`"))),
    }
}

/// The long-poll bound of a result request: zero without a query, the
/// `wait=<ms>` value capped at [`MAX_RESULT_WAIT`], or an error for any
/// other query (another key, several pairs, a value that is not a
/// non-negative integer that fits in a `u64`).
fn result_wait(query: Option<&str>) -> Result<Duration, String> {
    let Some(query) = query else {
        return Ok(Duration::ZERO);
    };
    query
        .strip_prefix("wait=")
        .filter(|ms| ms.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|ms| ms.parse().ok())
        .map(|ms| Duration::from_millis(ms).min(MAX_RESULT_WAIT))
        .ok_or_else(|| {
            format!("bad query `{query}`: the result route takes only `wait=<milliseconds>`")
        })
}

/// `GET /metrics`: service, queue, store and recovery counters in one
/// document. The store and recovery sections come with the cell store:
/// a bare context (the wire tests' `metrics.json`) reports jobs only.
fn metrics_json(manager: &JobManager, ctx: &Context) -> String {
    let c = manager.counters();
    let mut out = format!(
        "{{\"jobs\": {{\"submitted\": {}, \"coalesced\": {}, \"rejected\": {}, \
         \"completed\": {}, \"failed\": {}, \"recovered\": {}, \"queue_depth\": {}, \
         \"paused\": {}}}",
        c.submitted,
        c.coalesced,
        c.rejected,
        c.completed,
        c.failed,
        c.recovered,
        manager.queue_depth(),
        manager.paused()
    );
    if let Some(cache) = ctx.cache() {
        let section = |name: &str, c: CacheCounters| {
            format!(
                ", \"{name}\": {{\"hits\": {}, \"misses\": {}, \"stores\": {}, \
                 \"corrupt\": {}, \"quarantined\": {}}}",
                c.hits, c.misses, c.stores, c.corrupt, c.quarantined
            )
        };
        out.push_str(&section("cache", cache.counters()));
        let checkpoints = ctx.checkpoints().map(|s| s.counters());
        out.push_str(&section("checkpoints", checkpoints.unwrap_or_default()));
        let r = ctx.recovery();
        out.push_str(&format!(
            ", \"recovery\": {{\"retries\": {}, \"cell_failures\": {}, \
             \"cache_quarantined\": {}, \"workers_lost\": {}, \
             \"leases_reclaimed\": {}, \"cells_poisoned\": {}}}",
            r.retries,
            r.cell_failures,
            r.cache_quarantined,
            r.workers_lost,
            r.leases_reclaimed,
            r.cells_poisoned
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(tag: &str) -> (JobManager, PathBuf) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("dmdc-serve-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        (JobManager::new(&Context::new(), &dir, 4).unwrap(), dir)
    }

    fn post_jobs(manager: &JobManager, body: &str) -> (u16, String) {
        route(
            &http::Request {
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
            &http::Request {
                method: "GET".to_string(),
                path: path.to_string(),
                body: String::new(),
            },
            manager,
            &Context::new(),
        )
    }

    #[test]
    fn submit_poll_fetch_through_the_router() {
        let (m, dir) = manager("router");
        m.set_paused(true);
        let (status, body) = post_jobs(
            &m,
            r#"{"kind": "cell", "workload": "histo", "policy": "dmdc-global", "client": "t"}"#,
        );
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("job-1"));
        assert_eq!(doc.get("coalesced").unwrap().as_bool(), Some(false));

        // Pending result polls as 202 with the status document.
        let (status, body) = get(&m, "/jobs/job-1/result");
        assert_eq!(status, 202);
        assert!(body.contains("\"state\": \"queued\""));

        // Identical submission coalesces onto the same id.
        let (status, body) = post_jobs(
            &m,
            r#"{"kind": "cell", "workload": "histo", "policy": "dmdc-global", "client": "u"}"#,
        );
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("job-1"));
        assert_eq!(doc.get("coalesced").unwrap().as_bool(), Some(true));

        // Complete it; the result route now returns the stored payload.
        m.complete("job-1", Ok("{\"report\": 1}\n".to_string()));
        let (status, body) = get(&m, "/jobs/job-1/result");
        assert_eq!((status, body.as_str()), (200, "{\"report\": 1}\n"));

        // Unknown ids are 404, wrong methods 405, unknown routes 404.
        assert_eq!(get(&m, "/jobs/job-99").0, 404);
        assert_eq!(get(&m, "/jobs/job-99/result").0, 404);
        assert_eq!(post_jobs(&m, "{}").0, 400);
        // A well-formed suite is fleet work, not a job.
        let (status, body) = post_jobs(&m, r#"{"kind": "suite", "policy": "baseline"}"#);
        assert_eq!(status, 400);
        assert!(body.contains("unknown job kind `suite`"), "{body}");
        assert_eq!(
            route(
                &http::Request {
                    method: "DELETE".to_string(),
                    path: "/jobs".to_string(),
                    body: String::new(),
                },
                &m,
                &Context::new(),
            )
            .0,
            405
        );
        assert_eq!(get(&m, "/nope").0, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_rejection_is_a_structured_429() {
        let (m, dir) = manager("quota429");
        m.set_paused(true);
        let body = |w: &str| {
            format!(
                "{{\"kind\": \"cell\", \"workload\": \"{w}\", \
                 \"policy\": \"baseline\", \"client\": \"greedy\"}}"
            )
        };
        for w in ["histo", "saxpy", "crc", "mm"] {
            assert_eq!(post_jobs(&m, &body(w)).0, 200);
        }
        let (status, reply) = post_jobs(&m, &body("fir"));
        assert_eq!(status, 429);
        let doc = json::parse(&reply).unwrap();
        assert_eq!(doc.get("client").unwrap().as_str(), Some("greedy"));
        assert_eq!(doc.get("active").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("limit").unwrap().as_u64(), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_document_parses_and_counts() {
        let (m, dir) = manager("metrics");
        m.set_paused(true);
        let body = r#"{"kind": "cell", "workload": "histo", "policy": "baseline"}"#;
        let spec = Work::from_json(&json::parse(body).unwrap()).unwrap();
        m.submit(spec.clone(), 100, "c").unwrap();
        m.submit(spec, 100, "c").unwrap(); // coalesces
        let doc = json::parse(&metrics_json(&m, &Context::new())).unwrap();
        let jobs = doc.get("jobs").unwrap();
        assert_eq!(jobs.get("submitted").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("coalesced").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("queue_depth").unwrap().as_u64(), Some(1));
        assert_eq!(jobs.get("paused").unwrap().as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
