//! `dmdc` — command-line front end for the reproduction.
//!
//! ```text
//! dmdc list                                   # workloads, policies, experiments
//! dmdc run --workload histo --policy dmdc-global [--config 2] [--trace 64]
//! dmdc run --workload synthetic --policy baseline --inval-rate 10
//! dmdc suite --policy dmdc-global [--scale smoke|default|large]
//! dmdc experiment <id>|ablations|all [--format text|json|csv] [--no-cache]
//! dmdc asm path/to/program.s                  # assemble + emulate a file
//! dmdc serve [--addr 127.0.0.1:8181] [--state-dir DIR] [--quota N]
//! dmdc suite --policy dmdc-global --distrib --workers 3   # worker fleet
//! dmdc worker --connect 127.0.0.1:9000                    # join a fleet
//! dmdc submit --workload histo --policy dmdc-global [--wait]
//! dmdc status [--job job-1]                   # poll the daemon
//! dmdc metrics                                # service counters
//! ```
//!
//! `suite` and `experiment` consult the persistent content-addressed cell
//! cache under `target/dmdc-cache/` by default: a repeated invocation
//! replays previously verified cells instead of re-simulating them.
//! `--no-cache` disables the cache for one invocation; editing a workload,
//! a config or the simulator invalidates the affected cells automatically
//! (see DESIGN.md §9).

use std::process::ExitCode;
use std::time::Duration;

use dmdc::core::cache::{
    default_cache_dir, default_fingerprint, default_runs_dir, unseal, write_sealed,
};
use dmdc::core::distrib::{self, DistribOptions};
use dmdc::core::experiments::{
    self, find_workload, parse_config, parse_scale, PolicyKind, Work, WorkKind,
};
use dmdc::core::faults::FaultPlan;
use dmdc::core::fuzz::{self, FuzzOptions};
use dmdc::core::recovery;
use dmdc::core::report::{fmt, OutputFormat};
use dmdc::core::runner::Context;
use dmdc::core::sampling;
use dmdc::core::service::{self, http, json, ServeOptions};
use dmdc::isa::{Assembler, Emulator};
use dmdc::ooo::{run_multicore, CoreConfig, MultiCoreOptions, SimOptions, Simulator};
use dmdc::workloads::{Scale, Workload};

/// Parsed `--key value` flags.
type Flags = std::collections::HashMap<String, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `dmdc help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{}", usage());
            Ok(())
        }
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn usage() -> String {
    "dmdc — DMDC (MICRO 2006) reproduction driver

USAGE:
  dmdc list
  dmdc run --workload <name> --policy <name> [--config 1|2|3]
           [--scale smoke|default|large|full] [--inval-rate R] [--trace N]
           [--profile] [--sampled|--exact] [--run-id ID]
           [--inval-model injected|coherent] [--cores N] [--seed N]
  dmdc run --resume <run-id>
  dmdc suite --policy <name> [--config N] [--scale S] [--jobs N]
           [--format text|json|csv] [--no-cache] [--profile]
           [--run-id ID] [--retries N] [--cell-timeout MS]
           [--sampled|--exact] [--distrib [--workers N] [--lease-ttl MS]
           [--poison-after N] [--grace MS] [--bind ADDR]]
  dmdc experiment <id|ablations|all> [--scale S] [--jobs N]
           [--format text|json|csv] [--no-cache] [--profile]
           [--run-id ID] [--retries N] [--cell-timeout MS]
           [--sampled|--exact] [--distrib [--workers N] [--lease-ttl MS]
           [--poison-after N] [--grace MS] [--bind ADDR]]
  dmdc worker --connect <addr> [--id NAME] [--inject-faults SPEC]
  dmdc asm <file.s>
  dmdc fuzz [--seed N] [--budget N] [--policy <name>] [--config N]
           [--out DIR] [--threads N]
  dmdc fuzz --replay <file.repro>
  dmdc serve [--addr 127.0.0.1:8181] [--state-dir DIR] [--quota N]
           [--paused] [--jobs N]
  dmdc submit [--addr A] --workload <name> --policy <name> [--config N]
           [--scale S] [--inval-rate R] [--sampled|--exact]
           [--priority 0..255] [--client NAME] [--wait [--max-wait SECS]]
  dmdc submit [--addr A] --experiment <id> [--scale S] [--sampled|--exact]
           [--priority P] [--client NAME] [--wait [--max-wait SECS]]
  dmdc status [--addr A] [--job <id>]
  dmdc metrics [--addr A]

`dmdc run --inval-model coherent` races N copies (--cores, default 2) of
the workload on shared memory behind MESI-coherent private L1s: the
invalidations the policy sees are the other cores' write misses, not the
Bernoulli injector (--inval-rate, the `injected` default that all
experiments and golden outputs use). Coherent mode needs a
coherence-capable policy (baseline-coherent or dmdc-coherent), is
exact-only, and --seed varies the deterministic core interleaving.

`dmdc fuzz` tortures the policies with seeded random kernels under the
invariant auditor (differential against the in-order emulator). A run is
fully determined by --seed. On failure the kernel is delta-debugged to a
minimal reproducer written to <out>/<seed>.repro (default
target/dmdc-fuzz/), which --replay re-executes exactly. --policy may be
repeated or comma-separated; the default set covers each enforcement
mechanism (baseline CAM, YLA filter, DMDC global/local, checking queue).
--threads N (2..=8) switches to multi-core torture: N kernels race on
the shared fuzz region under the coherence auditor, failures cover
coherence violations and run-to-run divergence too, the shrinker reduces
every thread's stream, and the default policies narrow to the two
coherent builds.

`dmdc list` enumerates the experiment registry (fig2..fig5,
table2..table6, multicore, the ablations). `all` runs every registry
entry in order; `ablations` runs the five ablation studies.

Worker count for suite/experiment: --jobs N, else the DMDC_JOBS
environment variable, else the machine's available parallelism. Output
is byte-identical at any job count.

suite/experiment cache verified cells under target/dmdc-cache/ keyed on
the workload bytes, the run parameters and the simulator fingerprint;
warm reruns replay instead of re-simulating. --no-cache opts out.

Sampling: --scale full (paper-scale, only tractable sampled) defaults to
SMARTS-style sampled simulation — functional fast-forward with cache and
branch-predictor warming, periodic checkpoints, short detailed windows,
population estimates with 95% confidence intervals (reported as
`value ±ci` in every emitter). --sampled opts any scale in; --exact is
the escape hatch forcing full detailed simulation at any scale. Sampled
and exact runs never share cache entries. Checkpoints persist in the
store, so `dmdc run --resume` of a killed sampled run restores the
windows it had reached instead of fast-forwarding to them again.

`dmdc serve` runs the registry as a long-lived HTTP/JSON daemon: clients
POST jobs (one cell or a whole experiment), poll their status, and fetch
the finished report — the same documents `--format json` prints. Jobs
queue by --priority (higher first, FIFO within a priority); identical
in-flight submissions coalesce onto one job; each client may hold at
most --quota queued+running jobs (excess submissions get a structured
429). Accepted jobs and finished results persist as sealed envelopes
under --state-dir (default target/dmdc-serve/), so a killed daemon
restarts with its unfinished queue intact and reproduces the same
results. SIGTERM (or POST /shutdown) drains the queue gracefully.
`dmdc submit/status/metrics` are the matching client commands; they
read --addr or the DMDC_ADDR environment variable (default
127.0.0.1:8181). `submit --wait` long-polls until the result is ready and
prints it.

--profile reports a per-stage host-time breakdown, the event-horizon
loop's skipped-cycle counters, the cell-cache and checkpoint-store
hit/miss/integrity totals and the recovery ledger (for suite/experiment:
aggregated over all runs, printed to stderr so stdout stays
byte-identical).

Distributed execution: `--distrib` shards a suite or experiment across a
lease-based worker fleet. The coordinator holds the cell list as an
in-memory lease table, spawns --workers local `dmdc worker`
processes (0 with external workers attaching at the printed --bind
address), and workers claim leases over HTTP, execute cells through the
ordinary engine, publish into the shared content-addressed cache and
heartbeat. A lease not heartbeated within --lease-ttl is reclaimed and
re-issued with exponential backoff; a cell that killed --poison-after
distinct workers is quarantined like any other cell failure. When the
fleet goes quiet for --grace (default 2x the TTL) the coordinator
degrades to local serial execution, so the run terminates even with
every worker lost. The final report is assembled from the store in spec
order and is byte-identical to the single-process run. --inject-faults
gains distributed keys, forwarded to spawned workers:
'worker-kill-after=N' (abort after N cells), 'drop-heartbeats=1',
'stale-claim=MS' (sit on the first lease past its TTL), and
'partial-upload=N' (truncate=N under its fleet name).

Fault tolerance: each cell runs under panic isolation; a panicking or
timed-out cell (--cell-timeout, wall-clock milliseconds per cell) is
retried --retries times (default 1) with bounded backoff, then
quarantined as a structured failure in the report (nonzero exit, partial
tables). --run-id ID records the command line in
target/dmdc-runs/ID/manifest. The cell store is the crash record: every
completed cell is already in it (under --no-cache, in a run-private store
at target/dmdc-runs/ID/journal), so after a crash `dmdc run --resume ID`
re-runs the recorded command, the store serves the finished cells, and
only the missing ones simulate, producing byte-identical output.
--inject-faults SPEC (e.g.
'seed=1,panic=2,hang=3,hang-ms=200,corrupt=2,truncate=2,worker-panic=1,
kill-after=4') deterministically injects faults to exercise these paths;
corrupt, truncate and kill-after count durable store writes.
"
    .to_string()
}

/// Parses `--key value` pairs; a `--flag` followed by another flag (or by
/// nothing) is boolean and stored as `"true"`. Returns an error for stray
/// non-flag arguments.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{a}`"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse_token(name)
}

/// `--config` (config 2 when absent), validated: the machine number a
/// [`Work`] carries.
fn config_flag(flags: &Flags) -> Result<u8, String> {
    let token = flags.get("config").map(String::as_str).unwrap_or("2");
    parse_config(token).map(|_| token.parse().expect("configs are numbered 1 to 3"))
}

/// `--scale` (default scale when absent).
fn scale_flag(flags: &Flags) -> Result<Scale, String> {
    parse_scale(flags.get("scale").map(String::as_str).unwrap_or("default"))
}

/// `--sampled` / `--exact` as the override of the rule every front end
/// shares ([`sampling::spec_for`]): `None` when neither is given.
fn sampling_flags(flags: &Flags) -> Result<Option<bool>, String> {
    match (flags.contains_key("sampled"), flags.contains_key("exact")) {
        (true, true) => Err("--exact and --sampled are mutually exclusive".to_string()),
        (sampled, exact) => Ok((sampled || exact).then_some(sampled)),
    }
}

/// The [`Work`] of `kind` at `--scale`, sampled as `--sampled`/`--exact`
/// say: the one descriptor `suite`, `experiment` and `submit` build from
/// their flags.
fn work_flags(flags: &Flags, kind: WorkKind) -> Result<Work, String> {
    Ok(Work::new(kind, scale_flag(flags)?, sampling_flags(flags)?))
}

/// The run context `serve` and `worker` start from: `--jobs`,
/// `--retries`, `--cell-timeout` (milliseconds) and `--inject-faults`.
/// The fault plan comes first, so the stores installed afterwards run it.
fn base_context(flags: &Flags) -> Result<Context, String> {
    let mut ctx = Context::new();
    if let Some(n) = flags.get("jobs") {
        let n: usize = n
            .parse()
            .map_err(|_| "bad --jobs (want a positive integer)")?;
        if n == 0 {
            return Err("--jobs must be at least 1".to_string());
        }
        ctx = ctx.with_jobs(n);
    }
    if let Some(n) = flags.get("retries") {
        let n: usize = n
            .parse()
            .map_err(|_| "bad --retries (want a non-negative integer)")?;
        ctx = ctx.with_retries(n);
    }
    if let Some(ms) = flags.get("cell-timeout") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "bad --cell-timeout (want milliseconds)")?;
        if ms == 0 {
            return Err("--cell-timeout must be at least 1 millisecond".to_string());
        }
        ctx = ctx.with_cell_timeout(Some(Duration::from_millis(ms)));
    }
    if let Some(spec) = flags.get("inject-faults") {
        ctx = ctx.with_faults(FaultPlan::parse(spec)?);
    }
    Ok(ctx)
}

/// The run context of `run`, `suite` and `experiment`: [`base_context`]
/// plus `--profile`, the cell cache and checkpoint
/// store under `target/dmdc-cache/` (unless `--no-cache`), and with
/// `--run-id` the run's record under `target/dmdc-runs/<run-id>/`: the
/// sealed manifest (command line plus simulator fingerprint) that `dmdc
/// run --resume` re-dispatches. The stores are the crash record:
/// completed cells and sampled cells' checkpoints persist in the shared
/// store, or under `--no-cache` in a run-private store at
/// `<run>/journal/`, so a resume finds them there.
fn run_context(command: &str, args: &[String], flags: &Flags) -> Result<Context, String> {
    let mut ctx = base_context(flags)?;
    if flags.contains_key("profile") {
        ctx = ctx.with_profile();
    }
    if !flags.contains_key("no-cache") {
        ctx = ctx.with_store(default_cache_dir());
    }
    let Some(run_id) = flags.get("run-id") else {
        return Ok(ctx);
    };
    let run_dir = default_runs_dir().join(run_id);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create run dir {}: {e}", run_dir.display()))?;
    let mut argv = vec![command.to_string()];
    argv.extend(args.iter().cloned());
    let manifest = run_dir.join("manifest");
    let body = manifest_body(&default_fingerprint(), &argv);
    if !write_sealed(&manifest, &body, std::process::id() as u64) {
        return Err(format!("cannot write manifest {}", manifest.display()));
    }
    if flags.contains_key("no-cache") {
        let private = run_dir.join("journal");
        std::fs::create_dir_all(&private)
            .map_err(|e| format!("cannot create run store {}: {e}", private.display()))?;
        ctx = ctx.with_store(private);
    }
    Ok(ctx)
}

/// Prints the context's profile totals — plus the cell cache's and
/// checkpoint store's hit/miss/integrity counters when installed, and
/// the recovery counters — to stderr under `--profile`, keeping stdout
/// byte-identical with and without it.
fn report_profile(ctx: &Context) {
    let Some(totals) = ctx.take_profile() else {
        return;
    };
    eprint!("{}", totals.render());
    if let Some(cache) = ctx.cache() {
        let c = cache.counters();
        eprintln!(
            "[profile] cell cache: {} hits, {} misses, {} stored, {} corrupt, {} quarantined ({})",
            c.hits,
            c.misses,
            c.stores,
            c.corrupt,
            c.quarantined,
            cache.dir().display(),
        );
    }
    if let Some(store) = ctx.checkpoints() {
        let c = store.counters();
        eprintln!(
            "[profile] checkpoint store: {} hits, {} misses, {} stored, {} corrupt, {} quarantined ({})",
            c.hits,
            c.misses,
            c.stores,
            c.corrupt,
            c.quarantined,
            store.dir().display(),
        );
    }
    eprintln!("{}", recovery::render(&ctx.recovery()));
}

/// First line of a run's sealed manifest body.
const MANIFEST_MAGIC: &str = "dmdc-manifest v1";

/// Renders the manifest body: fingerprint plus one `arg` line per
/// command-line argument.
fn manifest_body(fingerprint: &str, argv: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{MANIFEST_MAGIC}");
    let _ = writeln!(out, "fingerprint {fingerprint}");
    for arg in argv {
        // Newlines in argv would corrupt the line-oriented format; no
        // dmdc flag value can legitimately contain one.
        let _ = writeln!(out, "arg {}", arg.replace('\n', " "));
    }
    out
}

/// Parses a manifest body back into `(fingerprint, argv)`.
fn parse_manifest(body: &str) -> Option<(String, Vec<String>)> {
    let mut lines = body.lines();
    if lines.next()? != MANIFEST_MAGIC {
        return None;
    }
    let fingerprint = lines.next()?.strip_prefix("fingerprint ")?.to_string();
    let mut argv = Vec::new();
    for line in lines {
        argv.push(line.strip_prefix("arg ")?.to_string());
    }
    Some((fingerprint, argv))
}

/// `dmdc run --resume <run-id>`: read the interrupted run's manifest,
/// verify the fingerprint, and re-dispatch its recorded command line.
/// The store serves every cell the run completed; only missing cells
/// simulate. Any recorded `--inject-faults` plan is dropped — the fault
/// plan that killed the run must not kill the resume.
fn cmd_resume(run_id: &str) -> Result<(), String> {
    let runs = default_runs_dir();
    let text = std::fs::read_to_string(runs.join(run_id).join("manifest")).map_err(|_| {
        format!(
            "no run '{run_id}' under {} (nothing to resume)",
            runs.display()
        )
    })?;
    let body = unseal(&text)
        .map_err(|e| format!("manifest of run '{run_id}' is damaged ({})", e.label()))?;
    let (recorded_fp, argv) =
        parse_manifest(body).ok_or_else(|| format!("manifest of run '{run_id}' is malformed"))?;
    let fingerprint = default_fingerprint();
    if recorded_fp != fingerprint {
        return Err(format!(
            "run '{run_id}' was produced by simulator fingerprint '{recorded_fp}', \
             but this binary is '{fingerprint}'; its partial progress cannot be \
             trusted — re-run from scratch"
        ));
    }
    let mut replay = Vec::with_capacity(argv.len());
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if a == "--inject-faults" {
            if let Some(v) = it.next() {
                if v.starts_with("--") {
                    replay.push(v); // boolean form: keep the next flag
                }
            }
            continue;
        }
        replay.push(a);
    }
    eprintln!("resuming run '{run_id}': dmdc {}", replay.join(" "));
    dispatch(&replay)
}

/// Parses `--format` (text, json or csv; text when absent).
fn parse_format(flags: &Flags) -> Result<OutputFormat, String> {
    flags
        .get("format")
        .map(String::as_str)
        .unwrap_or("text")
        .parse()
}

/// Parses `--distrib` and its companions into [`DistribOptions`]; `None`
/// when `--distrib` was not given. The `--inject-faults` spec is
/// forwarded verbatim to spawned workers so the chaos keys fire in the
/// processes they describe.
fn parse_distrib(flags: &Flags) -> Result<Option<DistribOptions>, String> {
    if !flags.contains_key("distrib") {
        return Ok(None);
    }
    let mut opts = DistribOptions {
        workers: match flags.get("workers") {
            Some(n) => n
                .parse()
                .map_err(|_| "bad --workers (want a non-negative integer)")?,
            None => 2,
        },
        ..DistribOptions::default()
    };
    if let Some(ms) = flags.get("lease-ttl") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "bad --lease-ttl (want milliseconds)")?;
        if ms < 50 {
            return Err("--lease-ttl must be at least 50 milliseconds".to_string());
        }
        opts.lease_ttl = Duration::from_millis(ms);
    }
    if let Some(n) = flags.get("poison-after") {
        opts.poison_after = n
            .parse()
            .map_err(|_| "bad --poison-after (want a positive integer)")?;
        if opts.poison_after == 0 {
            return Err("--poison-after must be at least 1".to_string());
        }
    }
    opts.grace = match flags.get("grace") {
        Some(ms) => {
            Duration::from_millis(ms.parse().map_err(|_| "bad --grace (want milliseconds)")?)
        }
        None => opts.lease_ttl * 2,
    };
    if let Some(bind) = flags.get("bind") {
        opts.bind = bind.clone();
    }
    opts.worker_faults = flags.get("inject-faults").cloned();
    Ok(Some(opts))
}

/// `dmdc worker --connect <addr>`: join a coordinator's fleet and run
/// cells until it reports the run complete. `--inject-faults` arms the
/// distributed chaos keys in this process.
fn cmd_worker(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let addr = flags
        .get("connect")
        .ok_or("--connect <addr> is required")?
        .clone();
    let id = flags
        .get("id")
        .cloned()
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    distrib::run_worker(&base_context(&flags)?, &addr, &id)
}

fn cmd_list() {
    println!("workloads (INT): hash sort list crc bitcnt strmatch histo");
    println!("workloads (FP):  mm saxpy stencil fir nbody mc tri");
    println!("                 synthetic (parameterizable kernel)");
    println!();
    println!("policies: baseline baseline-coherent yla-<N> bloom-<N>");
    println!("          dmdc-global dmdc-local dmdc-coherent dmdc-no-safe-loads queue-<N>");
    println!();
    println!("configs:  1 (ROB 128)  2 (ROB 256, default)  3 (ROB 512)");
    println!("scales:   smoke default large full (full samples by default)");
    println!();
    println!("experiments (dmdc experiment <id> [--scale S] [--format text|json|csv]):");
    for exp in experiments::registry() {
        // The matrix shape is scale-independent: scale changes iteration
        // counts inside each workload, not the workload × variant cross.
        let cells = exp.plan(Scale::Smoke).cell_count();
        println!(
            "  {:<20} {:<32} {:>4} cells/scale",
            exp.id(),
            exp.paper_ref(),
            cells
        );
    }
    println!("  groups: ablations (the five ablation studies), all (every entry above)");
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if let Some(run_id) = flags.get("resume") {
        if flags.len() > 1 {
            return Err(
                "`run --resume` takes no other flags: a resumed run's flags come from its manifest"
                    .to_string(),
            );
        }
        return cmd_resume(run_id);
    }
    let workload_name = flags.get("workload").ok_or("--workload is required")?;
    let policy = parse_policy(flags.get("policy").ok_or("--policy is required")?)?;
    let config = parse_config(&config_flag(&flags)?.to_string())?;
    let scale = scale_flag(&flags)?;
    let spec = sampling::spec_for(scale, sampling_flags(&flags)?);
    let workload = find_workload(workload_name, scale)?;

    let mut opts = SimOptions::default();
    if let Some(rate) = flags.get("inval-rate") {
        opts.inval_per_kcycle = rate.parse().map_err(|_| "bad --inval-rate")?;
    }
    if let Some(n) = flags.get("trace") {
        opts.trace_capacity = n.parse().map_err(|_| "bad --trace")?;
    }
    if let Some(n) = flags.get("max-commits") {
        opts.max_commits = Some(n.parse().map_err(|_| "bad --max-commits")?);
    }
    opts.profile = flags.contains_key("profile");

    // `--inval-model` picks where invalidations come from: `injected`
    // (the default — the single-core Bernoulli injector, byte-identical
    // to every previous release) or `coherent` (a real N-core MESI run
    // where the *other cores'* write misses deliver them).
    match flags.get("inval-model").map(String::as_str) {
        None | Some("injected") => {
            if flags.contains_key("cores") {
                return Err("--cores needs --inval-model coherent".to_string());
            }
        }
        Some("coherent") => {
            if spec.enabled() {
                return Err("--inval-model coherent is exact-only (drop --sampled)".to_string());
            }
            if opts.inval_per_kcycle != 0.0 {
                return Err(
                    "--inval-rate is the injected model; it cannot combine with \
                     --inval-model coherent"
                        .to_string(),
                );
            }
            if opts.trace_capacity > 0 || opts.max_commits.is_some() {
                return Err(
                    "--trace/--max-commits are single-core flags (drop --inval-model coherent)"
                        .to_string(),
                );
            }
            return cmd_run_coherent(&workload, &policy, &config, &flags);
        }
        Some(other) => {
            return Err(format!(
                "unknown --inval-model `{other}` (injected or coherent)"
            ));
        }
    }

    if spec.enabled() {
        if opts.trace_capacity > 0 {
            return Err("--trace needs an exact run (add --exact)".to_string());
        }
        if opts.max_commits.is_some() {
            return Err("--max-commits needs an exact run (add --exact)".to_string());
        }
        opts.sampling = spec;
        // Single sampled runs bypass the engine (no cell cache lookups),
        // but the sampling driver itself consults the context's
        // checkpoint store — so repeat runs skip the fast-forward.
        let ctx = run_context("run", args, &flags)?;
        let cell = experiments::run_workload_in(&ctx, &workload, &config, &policy, opts);
        print_run_stats(&workload, &policy, &config, &cell.stats);
        report_profile(&ctx);
        return Ok(());
    }

    // Drive the simulator directly so the trace is accessible afterwards,
    // then verify the run as every engine cell is.
    let mut sim = Simulator::new(&workload.program, config.clone(), policy.build(&config));
    let result = sim.run(opts).map_err(|e| e.to_string())?;
    experiments::verify_exact(&workload, &config, &policy, &result, || {
        experiments::emulate(&workload)
    })
    .map_err(|e| e.to_string())?;
    if opts.trace_capacity > 0 {
        println!("{}", sim.trace().render());
    }

    let s = &result.stats;
    print_run_stats(&workload, &policy, &config, s);
    if let Some(profile) = &result.profile {
        print!("{}", profile.render(s));
    }
    Ok(())
}

/// `dmdc run --inval-model coherent`: N copies of the workload race on
/// shared memory behind MESI-coherent private L1s, so the invalidations
/// reaching the policy are organic cross-core write misses instead of
/// Bernoulli noise.
fn cmd_run_coherent(
    workload: &Workload,
    policy: &PolicyKind,
    config: &CoreConfig,
    flags: &Flags,
) -> Result<(), String> {
    if !matches!(
        policy,
        PolicyKind::BaselineCoherent | PolicyKind::DmdcCoherent
    ) {
        return Err(format!(
            "policy {} is built without coherence support; use baseline-coherent \
             or dmdc-coherent with --inval-model coherent",
            policy.token()
        ));
    }
    let cores: usize = match flags.get("cores") {
        Some(n) => n.parse().map_err(|_| "bad --cores")?,
        None => 2,
    };
    if !(2..=8).contains(&cores) {
        return Err("--cores must be 2..=8".to_string());
    }
    let seed: u64 = match flags.get("seed") {
        Some(n) => n.parse().map_err(|_| "bad --seed")?,
        None => 1,
    };
    let programs: Vec<&dmdc::isa::Program> = (0..cores).map(|_| &workload.program).collect();
    let policies = (0..cores).map(|_| policy.build(config)).collect();
    let mc_opts = MultiCoreOptions {
        seed,
        audit: true,
        ..MultiCoreOptions::default()
    };
    let r = run_multicore(&programs, config, policies, &mc_opts).map_err(|e| e.to_string())?;
    if !r.coherence_violations.is_empty() {
        return Err(format!(
            "coherence violations:\n{}",
            r.coherence_violations.join("\n")
        ));
    }
    println!(
        "workload {} under {policy:?} on {}, {cores} cores (coherent invalidations, seed {seed})",
        workload.name, config.name
    );
    println!("  driver cycles {:>12}", r.cycles);
    println!(
        "  bus           {:>12}  reads / {} readX / {} upgrades / {} writebacks",
        r.bus.bus_reads, r.bus.bus_read_x, r.bus.bus_upgrades, r.bus.writebacks
    );
    println!(
        "  invals        {:>12}  delivered ({:.1} / 1k cycles)",
        r.bus.invals_sent,
        r.invals_per_kcycle()
    );
    println!(
        "  L2            {:>12}  hits / {} misses",
        r.shared_l2.hits, r.shared_l2.misses
    );
    println!("  mem checksum  {:#018x}", r.mem_checksum);
    for (i, core) in r.cores.iter().enumerate() {
        let s = &core.result.stats;
        println!(
            "  core {i}: {} cycles, {} committed (IPC {:.2}), {} replays \
             ({} coherence), {} invalidations",
            s.cycles,
            s.committed,
            s.ipc(),
            s.replay_squashes,
            s.policy.replays.coherence,
            s.policy.invalidations
        );
        if let Some(audit) = &core.result.audit {
            if !audit.is_clean() {
                return Err(format!("core {i} audit:\n{}", audit.render()));
            }
        }
    }
    Ok(())
}

/// The shared `dmdc run` stat block. Sampled runs append the sampling
/// summary (windows, population, estimates with 95% CIs); exact output is
/// byte-identical to what this command always printed.
fn print_run_stats(
    workload: &Workload,
    policy: &PolicyKind,
    config: &CoreConfig,
    s: &dmdc::ooo::SimStats,
) {
    println!(
        "workload {} under {policy:?} on {}",
        workload.name, config.name
    );
    println!("  cycles        {:>12}", s.cycles);
    println!("  committed     {:>12}  (IPC {:.2})", s.committed, s.ipc());
    println!("  loads/stores  {:>12}  / {}", s.loads, s.stores);
    println!("  mispredicts   {:>12}", s.mispredicts);
    println!(
        "  replays       {:>12}  ({:.1} false / 1M)",
        s.replay_squashes,
        s.per_million(s.policy.replays.false_total())
    );
    println!(
        "  safe stores   {:>12}",
        fmt::pct(s.policy.store_filter_rate())
    );
    println!(
        "  safe loads    {:>12}",
        fmt::pct(s.policy.safe_load_rate())
    );
    println!("  LQ searches   {:>12}", s.energy.lq_cam_searches);
    println!("  L1D miss rate {:>12}", fmt::pct(s.l1d.miss_rate()));
    if s.policy.invalidations > 0 {
        println!("  invalidations {:>12}", s.policy.invalidations);
    }
    if s.is_sampled() {
        let sp = &s.sampling;
        println!(
            "  sampled       {:>12}  windows over {} retired insts ({} measured)",
            sp.windows, sp.population, sp.sampled_committed
        );
        println!(
            "  estimates     IPC {}, replays/1M {}, safe stores {}, safe loads {}",
            fmt::f2_ci(sp.ipc_mean(), sp.ipc_ci()),
            fmt::f1_ci(sp.replays_per_m_mean(), sp.replays_per_m_ci()),
            fmt::pct_ci(sp.filter_rate_mean(), sp.filter_rate_ci()),
            fmt::pct_ci(sp.safe_load_rate_mean(), sp.safe_load_rate_ci()),
        );
    }
}

fn cmd_suite(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let policy = parse_policy(
        flags
            .get("policy")
            .map(String::as_str)
            .unwrap_or("dmdc-global"),
    )?;
    let kind = WorkKind::Suite {
        policy,
        config: config_flag(&flags)?,
    };
    execute_works("suite", args, &flags, vec![work_flags(&flags, kind)?])
}

fn cmd_experiment(args: &[String]) -> Result<(), String> {
    let which = args
        .first()
        .ok_or("which experiment? (see `dmdc list`: fig2..fig5, table2..table6, ablations, all)")?;
    let flags = parse_flags(&args[1..])?;
    let ids: Vec<&str> = match which.as_str() {
        "all" => experiments::registry().iter().map(|e| e.id()).collect(),
        "ablations" => experiments::ABLATION_IDS.to_vec(),
        one => vec![one],
    };
    let works = ids
        .into_iter()
        .map(|id| work_flags(&flags, WorkKind::Experiment { id: id.to_string() }))
        .collect::<Result<_, _>>()?;
    execute_works("experiment", args, &flags, works)
}

/// Runs each work through [`experiments::execute`] — across a worker
/// fleet under `--distrib` — and prints its report in `--format`; the
/// profile goes to stderr. Quarantined cells make the exit nonzero.
fn execute_works(
    command: &str,
    args: &[String],
    flags: &Flags,
    works: Vec<Work>,
) -> Result<(), String> {
    let format = parse_format(flags)?;
    let ctx = run_context(command, args, flags)?;
    let distrib_opts = parse_distrib(flags)?;
    let mut quarantined = 0;
    for work in &works {
        let report = experiments::execute(&ctx, work, distrib_opts.as_ref())?;
        quarantined += report.failures().len();
        print!("{}", report.emit(format));
    }
    report_profile(&ctx);
    if quarantined > 0 {
        return Err(format!(
            "{quarantined} cell(s) quarantined; the report is partial"
        ));
    }
    Ok(())
}

/// `dmdc fuzz`: parses its own flags (unlike [`parse_flags`], `--policy`
/// may repeat), then either replays a repro file or runs the fuzz loop.
/// Exits nonzero whenever a failure is (still) reproducible, so CI can
/// gate on it and upload the repro artifact.
fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let mut opts = FuzzOptions::new(1);
    let mut policies: Vec<PolicyKind> = Vec::new();
    let mut replay_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{a}`"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        match key {
            "seed" => opts.seed = value.parse().map_err(|_| "bad --seed")?,
            "budget" => opts.budget = value.parse().map_err(|_| "bad --budget")?,
            "policy" => {
                for tok in value.split(',') {
                    policies.push(parse_policy(tok.trim())?);
                }
            }
            "config" => {
                parse_config(&value)?;
                opts.config = value;
            }
            "out" => opts.out_dir = std::path::PathBuf::from(value),
            "replay" => replay_path = Some(value),
            "threads" => {
                let n: usize = value.parse().map_err(|_| "bad --threads")?;
                if !(1..=8).contains(&n) {
                    return Err("--threads must be 1..=8".to_string());
                }
                opts.threads = n;
            }
            other => return Err(format!("unknown fuzz flag `--{other}`")),
        }
    }

    if let Some(path) = replay_path {
        let (repro, failure) = fuzz::replay_file(std::path::Path::new(&path))?;
        let threads_note = if repro.extra.is_empty() {
            String::new()
        } else {
            format!(" x {} threads", 1 + repro.extra.len())
        };
        println!(
            "replaying {path}: {} ops x {} iters{threads_note}, policy {}, config {}",
            repro.kernel.ops.len(),
            repro.kernel.iters,
            repro.policy,
            repro.config
        );
        return match failure {
            Some(f) => {
                println!("reproduced [{}]:\n{}", f.kind, f.detail);
                Err(format!("repro still fails with `{}`", f.kind))
            }
            None => {
                println!("clean: the recorded `{}` no longer reproduces", repro.kind);
                Ok(())
            }
        };
    }

    if !policies.is_empty() {
        opts.policies = policies;
    } else if opts.threads > 1 {
        // Multi-core torture delivers real invalidations, so the default
        // policy set narrows to the two coherence-capable builds.
        opts.policies = FuzzOptions::mt_policies();
    }
    let outcome = fuzz::fuzz(&opts)?;
    match outcome.failure {
        Some(repro) => {
            println!("{}", repro.render());
            if let Some(p) = &outcome.repro_path {
                println!("repro written to {}", p.display());
            }
            Err(format!(
                "seed {} failed with `{}` after {} cases (kernel {} shrunk to {} ops)",
                opts.seed,
                repro.kind,
                outcome.cases,
                repro.index,
                repro.kernel.ops.len()
            ))
        }
        None => {
            let threads_note = if opts.threads > 1 {
                format!(" x {} threads", opts.threads)
            } else {
                String::new()
            };
            println!(
                "fuzz: seed {}, {} cases clean ({} kernels x {} policies{threads_note})",
                opts.seed,
                outcome.cases,
                opts.budget,
                opts.policies.len()
            );
            Ok(())
        }
    }
}

/// `dmdc serve`: run the long-lived simulation daemon (see the usage
/// text and `dmdc::core::service` for the wire contract).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let ctx = base_context(&flags)?;
    let mut opts = ServeOptions::default();
    if let Some(addr) = flags.get("addr") {
        opts.addr = addr.clone();
    }
    if let Some(dir) = flags.get("state-dir") {
        opts.state_dir = std::path::PathBuf::from(dir);
    }
    if let Some(quota) = flags.get("quota") {
        opts.quota = quota
            .parse()
            .map_err(|_| "bad --quota (want a positive integer)")?;
        if opts.quota == 0 {
            return Err("--quota must be at least 1".to_string());
        }
    }
    opts.paused = flags.contains_key("paused");
    service::serve(&ctx.with_store(opts.state_dir.join("cache")), &opts)
}

/// The daemon address for the client subcommands: `--addr`, else the
/// `DMDC_ADDR` environment variable, else the default port.
fn server_addr(flags: &Flags) -> String {
    flags
        .get("addr")
        .cloned()
        .or_else(|| std::env::var("DMDC_ADDR").ok())
        .unwrap_or_else(|| "127.0.0.1:8181".to_string())
}

/// `dmdc submit`: build the submission document from the same flags
/// `dmdc run`/`experiment` take, POST it, print the server's reply (and
/// with `--wait`, long-poll until the result is ready and print that).
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let addr = server_addr(&flags);
    let kind = match flags.get("experiment") {
        Some(id) => WorkKind::Experiment { id: id.clone() },
        None => WorkKind::Cell {
            workload: flags
                .get("workload")
                .ok_or("--workload or --experiment is required")?
                .clone(),
            policy: parse_policy(flags.get("policy").ok_or("--policy is required")?)?,
            config: config_flag(&flags)?,
            inval_rate: match flags.get("inval-rate") {
                None => 0.0,
                Some(r) => r.parse().map_err(|_| "bad --inval-rate")?,
            },
        },
    };
    // The work's JSON object, reopened (its closing brace dropped) for
    // the request's routing members.
    let mut body = work_flags(&flags, kind)?.to_json();
    body.pop();
    if let Some(priority) = flags.get("priority") {
        let p: u16 = priority.parse().map_err(|_| "bad --priority (0..=255)")?;
        if p > 255 {
            return Err("--priority must be 0..=255".to_string());
        }
        body.push_str(&format!(", \"priority\": {p}"));
    }
    if let Some(client) = flags.get("client") {
        body.push_str(&format!(", \"client\": \"{}\"", json::escape(client)));
    }
    body.push('}');

    // With `--wait` the whole interaction runs under one deadline
    // (`--max-wait`, seconds): connection refused/reset retries with
    // jittered exponential backoff instead of failing on the first
    // blip, each result request long-polls (`?wait=`, which the daemon
    // caps at 60 s) for what is left of the deadline, and a job that is
    // still pending at the deadline ends with a clear terminal error.
    let wait = flags.contains_key("wait");
    let max_wait = Duration::from_secs(match flags.get("max-wait") {
        Some(s) => {
            if !wait {
                return Err("--max-wait needs --wait".to_string());
            }
            let s: u64 = s.parse().map_err(|_| "bad --max-wait (want seconds)")?;
            if s == 0 {
                return Err("--max-wait must be at least 1 second".to_string());
            }
            s
        }
        None => 600,
    });
    let deadline = std::time::Instant::now() + max_wait;
    let remaining = |label: &str| -> Result<Duration, String> {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return Err(format!("{label} after --max-wait {max_wait:?}; giving up"));
        }
        Ok(left)
    };

    let (status, reply) = if wait {
        http::request_with_retry(&addr, "POST", "/jobs", Some(&body), max_wait)?
    } else {
        http::request(&addr, "POST", "/jobs", Some(&body))?
    };
    if status != 200 {
        return Err(format!("server {addr} returned {status}: {}", reply.trim()));
    }
    print!("{reply}");
    if !wait {
        return Ok(());
    }
    let doc = json::parse(&reply)?;
    let id = doc
        .get("id")
        .and_then(|v| v.as_str())
        .ok_or("server reply has no job id")?
        .to_string();
    loop {
        let left = remaining(&format!("job {id} still pending"))?;
        let path = format!("/jobs/{id}/result?wait={}", left.as_millis());
        let (status, payload) = http::request_with_retry(&addr, "GET", &path, None, left)?;
        match status {
            202 => {}
            200 => {
                print!("{payload}");
                return Ok(());
            }
            500 => {
                print!("{payload}");
                return Err(format!("job {id} failed"));
            }
            other => {
                return Err(format!(
                    "server {addr} returned {other}: {}",
                    payload.trim()
                ))
            }
        }
    }
}

/// `dmdc status`: one job's status document (`--job`), or every job.
fn cmd_status(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let addr = server_addr(&flags);
    let path = match flags.get("job") {
        Some(id) => format!("/jobs/{id}"),
        None => "/jobs".to_string(),
    };
    let (status, reply) = http::request(&addr, "GET", &path, None)?;
    print!("{reply}");
    if status != 200 {
        return Err(format!("server {addr} returned {status}"));
    }
    Ok(())
}

/// `dmdc metrics`: the daemon's service, store and recovery counters.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let addr = server_addr(&flags);
    let (status, reply) = http::request(&addr, "GET", "/metrics", None)?;
    print!("{reply}");
    if status != 200 {
        return Err(format!("server {addr} returned {status}"));
    }
    Ok(())
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("asm needs a file path")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = Assembler::new()
        .assemble_named(path, &src)
        .map_err(|e| format!("{path}:{e}"))?;
    let mut emu = Emulator::new(&program);
    let retired = emu.run(500_000_000).map_err(|e| e.to_string())?;
    println!("{path}: {retired} instructions retired");
    println!(
        "  x28 = {} ({:#x})",
        emu.int_reg(28) as i64,
        emu.int_reg(28)
    );
    println!("  f28 = {}", emu.fp_reg(28));
    println!("  state checksum = {:#018x}", emu.state_checksum());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let args: Vec<String> = ["--workload", "histo", "--config", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f["workload"], "histo");
        assert_eq!(f["config"], "2");
        assert!(parse_flags(&["stray".to_string()]).is_err());
    }

    #[test]
    fn flags_parse_booleans() {
        let args: Vec<String> = ["--profile", "--jobs", "4", "--trace"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f["profile"], "true");
        assert_eq!(f["jobs"], "4");
        assert_eq!(f["trace"], "true");
    }

    #[test]
    fn manifest_roundtrips() {
        let argv = vec![
            "suite".to_string(),
            "--scale".to_string(),
            "smoke".to_string(),
        ];
        let body = manifest_body("fp-x", &argv);
        assert_eq!(parse_manifest(&body), Some(("fp-x".to_string(), argv)));
        assert!(parse_manifest("garbage").is_none());
    }

    #[test]
    fn policies_parse() {
        assert_eq!(parse_policy("baseline").unwrap(), PolicyKind::Baseline);
        assert_eq!(parse_policy("dmdc").unwrap(), PolicyKind::DmdcGlobal);
        assert_eq!(
            parse_policy("yla-8").unwrap(),
            PolicyKind::Yla {
                regs: 8,
                line_interleaved: false
            }
        );
        assert_eq!(
            parse_policy("bloom-256").unwrap(),
            PolicyKind::Bloom { entries: 256 }
        );
        assert_eq!(
            parse_policy("queue-16").unwrap(),
            PolicyKind::CheckingQueue { entries: 16 }
        );
        assert!(parse_policy("nonsense").is_err());
    }

    #[test]
    fn workloads_resolve() {
        assert!(find_workload("histo", Scale::Smoke).is_ok());
        assert!(find_workload("synthetic", Scale::Smoke).is_ok());
        assert!(find_workload("nope", Scale::Smoke).is_err());
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&["bogus".to_string()]).is_err());
        assert!(usage().contains("dmdc fuzz"), "help covers fuzz");
        assert!(usage().contains("--replay"), "help covers replay");
    }

    fn fuzz_args(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fuzz_flags_reject_garbage() {
        assert!(cmd_fuzz(&fuzz_args(&["--seed", "banana"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--budget", "-3"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--config", "9"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--policy", "nonsense"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--warble"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["stray"])).is_err());
        assert!(cmd_fuzz(&fuzz_args(&["--replay", "/no/such/file.repro"])).is_err());
    }

    #[test]
    fn fuzz_small_clean_run_and_policy_lists() {
        // Two kernels, two policies via both spellings of --policy; must
        // come back clean (real policies under the auditor).
        let out = std::env::temp_dir().join("dmdc-fuzz-cli-test");
        assert!(cmd_fuzz(&fuzz_args(&[
            "--seed",
            "3",
            "--budget",
            "2",
            "--policy",
            "baseline,dmdc-global",
            "--policy",
            "dmdc-local",
            "--out",
            out.to_str().unwrap(),
        ]))
        .is_ok());
        let _ = std::fs::remove_dir_all(&out);
    }
}
