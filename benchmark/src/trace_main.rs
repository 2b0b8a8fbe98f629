//! `dmdc-benchmark-trace`: the per-layer view of the five workloads.
//!
//! Each workload runs once, serially on one thread so self times are
//! clean, next to an untraced serial reference: the real CLI with
//! `--jobs 1` for the in-process workloads, the same batch or pass without
//! the observers for the daemon and the fleet. The traced run keeps its
//! spans in memory and writes `trace.json` (Chrome trace-event format, for
//! Perfetto) and `layers.json` (per-layer totals, self times, counters).
//!
//! * `paper-smoke`, `full-sampled` and `warm-replay` replay each CLI
//!   invocation as a child process of this binary, which makes the same
//!   public calls the CLI makes with a span around each: `Experiment::plan`,
//!   the emulator oracle (`BlockCode::compile` + `Emulator::run_silent`),
//!   `PolicyKind::build` + `Simulator::run` with the stage profile, the
//!   checksum comparison, `Engine::try_run_cell` with the sampling
//!   counters, `CellCache::load`, `Experiment::reduce` and the emitters.
//!   Their output must equal the CLI's, which proves they did the same work.
//! * `serve-mixed` and `fleet-default` are traced from outside: the clients
//!   poll job states every 2 ms, and a watcher notes each cell landing in
//!   the fleet's store.

use std::collections::BTreeMap;
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use dmdc::core::cache::{self, CellCache, CheckpointStore};
use dmdc::core::experiments::{self, PolicyKind};
use dmdc::core::report::{fmt, OutputFormat, Report, Table};
use dmdc::core::runner::{self, Engine, RunSpec};
use dmdc::core::CellResult;
use dmdc::isa::{BlockCode, Emulator};
use dmdc::ooo::{CoreConfig, SampleSpec, Simulator, PROFILE_STAGES};
use dmdc::workloads::{full_suite, Scale};

use dmdc_benchmark::check::Check;
use dmdc_benchmark::json::{self, n, obj, s, Json};
use dmdc_benchmark::proc::{self, Proc};
use dmdc_benchmark::result::Metric;
use dmdc_benchmark::spec::Spec;
use dmdc_benchmark::stats;
use dmdc_benchmark::trace::{chrome_trace, Profile, Span, Tracer, COUNTERS, LAYERS};
use dmdc_benchmark::workloads::{
    exited_ok, fleet_default, full_sampled, paper_smoke, serve_mixed, store_bytes, warm_replay,
    Env, Tally,
};
use dmdc_benchmark::{release_exe, scratch_dir, target_dir, write_file, Options};

/// Span names of the pipeline stages, in `PROFILE_STAGE_NAMES` order.
const STAGES: [&str; PROFILE_STAGES] = [
    "ooo.commit",
    "ooo.writeback",
    "ooo.issue",
    "ooo.dispatch",
    "ooo.fetch",
];

type Counters = BTreeMap<String, u64>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]).map(|()| true),
        _ => parent_main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dmdc-benchmark-trace: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Child processes: one CLI invocation's work, in process, with spans.

/// `child <experiment ID | suite POLICY | read ITEM FORMAT> --parent ID
/// --first-id N --emit PATH`: does the work, writes the rendered report to
/// PATH, and prints its spans and counters as JSON lines.
fn child_main(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (op, flags) = args.split_at(split);
    let flags = dmdc_benchmark::parse_flags(flags)?;
    let flag = |name: &str| {
        flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .ok_or(format!("child needs --{name}"))
    };
    let number = |name: &str| {
        flag(name)?
            .parse::<u64>()
            .map_err(|e| format!("--{name}: {e}"))
    };
    let parent = number("parent")?;
    let tracer = Tracer::new(number("first-id")?);
    let mut counters = Counters::new();
    let report = match op.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["experiment", id] => child_experiment(id, &tracer, parent, &mut counters)?,
        ["suite", policy] => child_suite(policy, &tracer, parent, &mut counters)?,
        ["read", item, format] => child_read(item, format, &tracer, parent, &mut counters)?,
        _ => return Err(format!("unknown child operation {op:?}")),
    };
    std::fs::write(flag("emit")?, report).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for sp in tracer.take() {
        out.push_str(&obj([("span", sp.to_json())]).render());
        out.push('\n');
    }
    for (name, value) in counters {
        out.push_str(&obj([("counter", s(name)), ("value", n(value as f64))]).render());
        out.push('\n');
    }
    print!("{out}");
    Ok(())
}

fn add(counters: &mut Counters, name: &str, value: u64) {
    *counters.entry(name.to_string()).or_default() += value;
}

/// Lays aggregate durations (nanoseconds) end to end from `start_us` as
/// children of `parent`; returns where the last one ends.
fn lay_out(tracer: &Tracer, parent: u64, start_us: f64, parts: &[(&str, u64)]) -> f64 {
    parts.iter().fold(start_us, |at, (name, nanos)| {
        let end = at + *nanos as f64 / 1e3;
        tracer.interval(name, parent, 0, at, end);
        end
    })
}

/// The policy family a cell's host time per cycle is grouped under.
fn family(policy: &PolicyKind) -> &'static str {
    match policy {
        PolicyKind::Baseline | PolicyKind::BaselineCoherent => "baseline",
        PolicyKind::Yla { .. } => "yla",
        PolicyKind::Bloom { .. } => "bloom",
        PolicyKind::DmdcGlobal | PolicyKind::DmdcCoherent | PolicyKind::DmdcNoSafeLoads => {
            "dmdc-global"
        }
        PolicyKind::DmdcLocal => "dmdc-local",
        PolicyKind::CheckingQueue { .. } => "queue",
    }
}

/// `dmdc experiment <id> --scale smoke --no-cache`, cell by cell.
fn child_experiment(
    id: &str,
    tracer: &Tracer,
    parent: u64,
    counters: &mut Counters,
) -> Result<String, String> {
    let exp = experiments::find_experiment(id).ok_or(format!("unknown experiment `{id}`"))?;
    let plan = tracer.span("experiments.plan", parent, 0, |_| exp.plan(Scale::Smoke));
    let specs = plan.specs();
    let mut oracle: Vec<Option<(u64, u64)>> = vec![None; plan.workloads.len()];
    for spec in &specs {
        if oracle[spec.workload].is_some() {
            continue;
        }
        let w = &plan.workloads[spec.workload];
        let reference = tracer.span("isa.oracle", parent, 0, |oid| {
            let code = tracer.span("isa.compile", oid, 0, |_| BlockCode::compile(&w.program));
            let mut emu = Emulator::new(&w.program);
            emu.run_silent(&code, u64::MAX)
                .map_err(|e| format!("{} must halt under emulation: {e}", w.name))?;
            Ok::<_, String>((emu.state_checksum(), emu.retired()))
        })?;
        add(counters, "isa.oracle_insts", reference.1);
        oracle[spec.workload] = Some(reference);
    }
    let mut cells = Vec::with_capacity(specs.len());
    for spec in &specs {
        let w = &plan.workloads[spec.workload];
        let cell = tracer.span("runner.cell", parent, 0, |cell_id| {
            let policy = tracer.span("policy.build", cell_id, 0, |_| {
                spec.policy.build(&spec.config)
            });
            let mut opts = spec.opts;
            opts.profile = true;
            let sim = tracer.open("ooo.simulate", cell_id, 0);
            let (sim_id, sim_start) = (sim.id(), sim.start_us());
            let result = Simulator::new(&w.program, spec.config.clone(), policy).run(opts);
            let sim_us = tracer.close(sim);
            let result = result.map_err(|e| format!("{} under {:?}: {e}", w.name, spec.policy))?;
            if let Some(p) = &result.profile {
                let parts: Vec<(&str, u64)> = STAGES.iter().copied().zip(p.stage_nanos).collect();
                lay_out(tracer, sim_id, sim_start, &parts);
                add(counters, "ooo.executed_cycles", p.executed_cycles);
            }
            let st = &result.stats;
            add(counters, "ooo.simulated_cycles", st.cycles);
            add(counters, "ooo.skipped_cycles", st.skipped_cycles);
            add(counters, "ooo.committed", st.committed);
            let fam = family(&spec.policy);
            add(
                counters,
                &format!("policy.{fam}.sim_ns"),
                (sim_us * 1e3) as u64,
            );
            add(counters, &format!("policy.{fam}.cycles"), st.cycles);
            tracer.span("runner.checksum", cell_id, 0, |_| {
                let (expected, _) = oracle[spec.workload].expect("every workload's oracle ran");
                if result.halted && result.checksum != expected {
                    return Err(format!(
                        "{}: simulated state diverges from the emulator",
                        w.name
                    ));
                }
                Ok(())
            })?;
            Ok::<_, String>(CellResult {
                workload: w.name.to_string(),
                group: w.group,
                stats: result.stats,
            })
        })?;
        cells.push(cell);
    }
    let report = tracer.span("experiments.reduce", parent, 0, |_| exp.reduce(&cells));
    Ok(tracer.span("report.render", parent, 0, |_| report.text()))
}

/// `dmdc suite --policy <p> --scale full` in the working directory's
/// store, serially, with the sampling driver's counters per cell.
fn child_suite(
    token: &str,
    tracer: &Tracer,
    parent: u64,
    counters: &mut Counters,
) -> Result<String, String> {
    let policy = PolicyKind::parse_token(token)?;
    let config = CoreConfig::config2();
    runner::set_default_sampling(SampleSpec::standard());
    runner::set_global_checkpoint_store(Some(Arc::new(CheckpointStore::new(
        cache::default_cache_dir(),
    ))));
    runner::set_profile(true);
    let suite = tracer.span("workloads.build", parent, 0, |_| full_suite(Scale::Full));
    let engine = Engine::with_jobs(&suite, 1)
        .with_cache(Some(Arc::new(CellCache::new(cache::default_cache_dir()))));
    let mut runs = Vec::with_capacity(suite.len());
    for i in 0..suite.len() {
        let spec = RunSpec::new(i, &config, policy.clone());
        let cell = tracer.open("runner.cell", parent, 0);
        let (cell_id, start) = (cell.id(), cell.start_us());
        let result = engine.try_run_cell(&spec);
        tracer.close(cell);
        let p = runner::take_profile_totals();
        let window_start = lay_out(
            tracer,
            cell_id,
            start,
            &[("isa.compile", p.compile_nanos), ("isa.ff", p.ff_nanos)],
        );
        let window = tracer.interval(
            "sampling.window",
            cell_id,
            0,
            window_start,
            window_start + p.window_nanos as f64 / 1e3,
        );
        let parts: Vec<(&str, u64)> = STAGES.iter().copied().zip(p.stage_nanos).collect();
        lay_out(tracer, window, window_start, &parts);
        add(counters, "isa.ff_insts", p.ff_insts);
        add(counters, "sampling.windows", p.runs);
        add(counters, "sampling.window_committed", p.window_committed);
        add(counters, "ooo.simulated_cycles", p.simulated_cycles);
        add(counters, "ooo.executed_cycles", p.executed_cycles);
        add(counters, "ooo.skipped_cycles", p.skipped_cycles);
        runs.push(result.map_err(|f| format!("{}: [{}] {}", f.workload, f.kind, f.detail))?);
    }
    // The CLI's suite table, cell for cell.
    Ok(tracer.span("report.render", parent, 0, |_| {
        let mut t = Table::new(format!("suite under {policy:?} on {}", config.name));
        t.headers([
            "workload",
            "group",
            "IPC",
            "replays/1M",
            "safe stores",
            "safe loads",
        ]);
        for (w, r) in suite.iter().zip(&runs) {
            let s = &r.stats;
            let sp = &s.sampling;
            let [ipc, replays, stores, loads] = if s.is_sampled() {
                [
                    fmt::f2_ci(s.ipc(), sp.ipc_ci()),
                    fmt::f1_ci(
                        s.per_million(s.policy.replays.total()),
                        sp.replays_per_m_ci(),
                    ),
                    fmt::pct_ci(s.policy.store_filter_rate(), sp.filter_rate_ci()),
                    fmt::pct_ci(s.policy.safe_load_rate(), sp.safe_load_rate_ci()),
                ]
            } else {
                [
                    fmt::f2(s.ipc()),
                    fmt::f1(s.per_million(s.policy.replays.total())),
                    fmt::pct(s.policy.store_filter_rate()),
                    fmt::pct(s.policy.safe_load_rate()),
                ]
            };
            t.row([
                w.name.to_string(),
                w.group.to_string(),
                ipc,
                replays,
                stores,
                loads,
            ]);
        }
        Report::single("suite", t).text()
    }))
}

/// `dmdc experiment <item> --scale smoke --format <f>` from the working
/// directory's warm store.
fn child_read(
    item: &str,
    format: &str,
    tracer: &Tracer,
    parent: u64,
    counters: &mut Counters,
) -> Result<String, String> {
    let format: OutputFormat = format.parse()?;
    let store = CellCache::new(cache::default_cache_dir());
    let ids: Vec<&str> = match item {
        "all" => experiments::registry().iter().map(|e| e.id()).collect(),
        one => vec![one],
    };
    let mut out = String::new();
    for id in ids {
        let exp = experiments::find_experiment(id).ok_or(format!("unknown experiment `{id}`"))?;
        let plan = tracer.span("experiments.plan", parent, 0, |_| exp.plan(Scale::Smoke));
        let specs = plan.specs();
        let keys: Vec<u64> = tracer.span("cache.key", parent, 0, |_| {
            let digests: Vec<u64> = plan.workloads.iter().map(cache::workload_digest).collect();
            specs
                .iter()
                .map(|s| store.key(digests[s.workload], &s.desc()))
                .collect()
        });
        let mut cells = Vec::with_capacity(specs.len());
        for (spec, key) in specs.iter().zip(keys) {
            let name = plan.workloads[spec.workload].name;
            let cell = tracer.span("cache.load", parent, 0, |_| store.load(key, name));
            cells.push(cell.ok_or(format!("{id}: cell {name} is not in the store"))?);
            add(counters, "cache.cell_loads", 1);
        }
        let report = tracer.span("experiments.reduce", parent, 0, |_| exp.reduce(&cells));
        out.push_str(&tracer.span("report.render", parent, 0, |_| report.emit(format)));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The parent: references, traced passes, aggregates.

/// One workload's traced run.
struct Traced {
    spans: Vec<Span>,
    counters: Counters,
    untraced_s: f64,
    traced_s: f64,
    /// Durations of the workload's unit of work, ms (a cell, a cache load,
    /// a job, the gap between landed cells).
    units_ms: Vec<f64>,
    tally: Tally,
}

/// Runs children of this binary inside `process` spans.
struct Children<'a> {
    exe: PathBuf,
    env: &'a Env,
    tracer: &'a Tracer,
    parent: u64,
    next: u64,
    counters: Counters,
}

impl Children<'_> {
    /// Runs one operation in `cwd` and returns the report it rendered.
    fn run(&mut self, op: &[&str], cwd: &Path) -> io::Result<Result<Vec<u8>, String>> {
        self.next += 1;
        let emit = self.env.scratch.join("child.out");
        let process = self.tracer.open("process", self.parent, 0);
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child")
            .args(op)
            .args(["--parent", &process.id().to_string()])
            .args(["--first-id", &(self.next << 40).to_string()])
            .arg("--emit")
            .arg(&emit)
            .current_dir(cwd)
            .stderr(Stdio::inherit())
            .stdout(Stdio::piped());
        let mut child = Proc::spawn(&mut cmd)?;
        let mut lines = String::new();
        child
            .take_stdout()
            .expect("piped")
            .read_to_string(&mut lines)?;
        let exit = child.wait()?;
        self.tracer.close(process);
        if !exit.success() {
            return Ok(Err(format!("traced {op:?} exited with {:?}", exit.code)));
        }
        for line in lines.lines() {
            let doc = json::parse(line).map_err(io::Error::other)?;
            if let Some(sp) = doc.get("span").and_then(Span::from_json) {
                self.tracer.add(sp);
            } else if let (Some(name), Some(v)) = (
                doc.get("counter").and_then(Json::as_str),
                doc.get("value").and_then(Json::as_u64),
            ) {
                add(&mut self.counters, name, v);
            }
        }
        Ok(Ok(std::fs::read(&emit)?))
    }
}

/// Times CLI invocations run one after another (the untraced reference).
fn untraced(
    env: &Env,
    cwd: &Path,
    invocations: &[Vec<&str>],
    t: &mut Tally,
) -> io::Result<(f64, Vec<Vec<u8>>)> {
    let start = Instant::now();
    let mut outputs = Vec::new();
    for args in invocations {
        let out = env.dmdc(cwd, args)?;
        t.op(exited_ok(&out, &args.join(" ")));
        outputs.push(out.stdout);
    }
    Ok((start.elapsed().as_secs_f64(), outputs))
}

/// Runs the traced side: each operation as a child, its report held to
/// `expected[i]` under `check`.
fn traced_children(
    env: &Env,
    tracer: &Tracer,
    t: &mut Tally,
    cwd: &Path,
    ops: &[(Vec<&str>, String)],
    expected: &[Vec<u8>],
    check: Check,
) -> io::Result<(f64, Counters)> {
    let root = tracer.open("workload", 0, 0);
    let mut children = Children {
        exe: std::env::current_exe()?,
        env,
        tracer,
        parent: root.id(),
        next: 0,
        counters: Counters::new(),
    };
    for ((op, subject), expected) in ops.iter().zip(expected) {
        let report = children.run(op, cwd)?;
        tracer.span("harness.check", root.id(), 0, |_| match report {
            Ok(bytes) => {
                t.check(check, subject, expected, &bytes);
            }
            Err(e) => t.op(Err(e)),
        });
    }
    let traced_us = tracer.close(root);
    Ok((traced_us / 1e6, children.counters))
}

fn unit_durations(spans: &[Span], layer: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|sp| sp.name == layer)
        .map(|sp| sp.dur_us / 1e3)
        .collect()
}

fn trace_paper(env: &Env, tracer: &Tracer) -> io::Result<Traced> {
    let mut tally = Tally::default();
    // One experiment at a time, in registry order, so each id's time is
    // its own span.
    let smoke = paper_smoke::setup(env, &mut tally)?;
    let dir = env.fresh_dir("pass")?;
    let cli: Vec<Vec<&str>> = smoke
        .goldens
        .iter()
        .map(|(id, _)| {
            vec![
                "experiment",
                id.as_str(),
                "--scale",
                "smoke",
                "--no-cache",
                "--jobs",
                "1",
            ]
        })
        .collect();
    let (untraced_s, outputs) = untraced(env, &dir, &cli, &mut tally)?;
    for ((id, golden), out) in smoke.goldens.iter().zip(&outputs) {
        tally.check(Check::Golden, id, golden, out);
    }
    let ops: Vec<(Vec<&str>, String)> = smoke
        .goldens
        .iter()
        .map(|(id, _)| (vec!["experiment", id.as_str()], id.clone()))
        .collect();
    let expected: Vec<Vec<u8>> = smoke.goldens.iter().map(|(_, g)| g.clone()).collect();
    let (traced_s, counters) = traced_children(
        env,
        tracer,
        &mut tally,
        &dir,
        &ops,
        &expected,
        Check::Golden,
    )?;
    let spans = tracer.take();
    Ok(Traced {
        units_ms: unit_durations(&spans, "runner.cell"),
        spans,
        counters,
        untraced_s,
        traced_s,
        tally,
    })
}

fn trace_full(env: &Env, tracer: &Tracer) -> io::Result<Traced> {
    let mut tally = Tally::default();
    env.registry(&mut tally)?;
    let order = full_sampled::order(env.seed);
    let cli: Vec<Vec<&str>> = order
        .iter()
        .map(|p| vec!["suite", "--policy", p, "--scale", "full", "--jobs", "1"])
        .collect();
    let (untraced_s, outputs) = untraced(env, &env.fresh_dir("untraced")?, &cli, &mut tally)?;
    let dir = env.fresh_dir("traced")?;
    let ops: Vec<(Vec<&str>, String)> = order
        .iter()
        .map(|p| (vec!["suite", *p], p.to_string()))
        .collect();
    let (traced_s, mut counters) =
        traced_children(env, tracer, &mut tally, &dir, &ops, &outputs, Check::Traced)?;
    let (cell_bytes, ckpt_bytes) = store_bytes(&dir.join("target/dmdc-cache"));
    counters.insert("cache.cell_bytes".into(), cell_bytes);
    counters.insert("cache.ckpt_bytes".into(), ckpt_bytes);
    let spans = tracer.take();
    Ok(Traced {
        units_ms: unit_durations(&spans, "runner.cell"),
        spans,
        counters,
        untraced_s,
        traced_s,
        tally,
    })
}

fn trace_warm(env: &Env, tracer: &Tracer) -> io::Result<Traced> {
    let mut tally = Tally::default();
    let primed = warm_replay::setup(env, &mut tally)?;
    let mut items = primed.items();
    env.rng("warm-replay/pass0").shuffle(&mut items);
    let cli: Vec<Vec<&str>> = items
        .iter()
        .map(|(item, f)| {
            vec![
                "experiment",
                item.as_str(),
                "--scale",
                "smoke",
                "--jobs",
                "1",
                "--format",
                f,
            ]
        })
        .collect();
    let expected: Vec<Vec<u8>> = items
        .iter()
        .map(|(item, f)| primed.expected(item, f).unwrap_or_default().to_vec())
        .collect();
    let (untraced_s, outputs) = untraced(env, &primed.dir, &cli, &mut tally)?;
    for (((item, f), out), exp) in items.iter().zip(&outputs).zip(&expected) {
        tally.check(Check::WarmCold, &format!("{item} ({f})"), exp, out);
    }
    let ops: Vec<(Vec<&str>, String)> = items
        .iter()
        .map(|(item, f)| (vec!["read", item.as_str(), f], format!("{item} ({f})")))
        .collect();
    let (traced_s, mut counters) = traced_children(
        env,
        tracer,
        &mut tally,
        &primed.dir,
        &ops,
        &expected,
        Check::WarmCold,
    )?;
    let (cell_bytes, ckpt_bytes) = store_bytes(&primed.dir.join("target/dmdc-cache"));
    counters.insert("cache.cell_bytes".into(), cell_bytes);
    counters.insert("cache.ckpt_bytes".into(), ckpt_bytes);
    let spans = tracer.take();
    Ok(Traced {
        units_ms: unit_durations(&spans, "cache.load"),
        spans,
        counters,
        untraced_s,
        traced_s,
        tally,
    })
}

fn trace_serve(env: &Env, tracer: &Tracer) -> io::Result<Traced> {
    let mut tally = Tally::default();
    let served = serve_mixed::setup(env, &mut tally)?;
    let untraced_s = serve_mixed::batch(env, &served, 0, &mut tally, None)?;
    let traced_s = serve_mixed::batch(env, &served, 1, &mut tally, Some(tracer))?;
    serve_mixed::finish(served, &mut tally)?;
    let mut counters = store_counters(&tally);
    for name in ["service.jobs_coalesced", "service.cache_hits"] {
        let v = tally
            .extra
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        counters.insert(name.to_string(), v as u64);
    }
    let spans = tracer.take();
    Ok(Traced {
        units_ms: unit_durations(&spans, "service.job"),
        spans,
        counters,
        untraced_s,
        traced_s,
        tally,
    })
}

/// The store sizes an end-to-end workload recorded as counters.
fn store_counters(tally: &Tally) -> Counters {
    tally
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("cache."))
        .cloned()
        .collect()
}

/// Fleet passes per side; both sides report the median pass, as the
/// end-to-end workload does.
const FLEET_PASSES: usize = 3;

fn trace_fleet(env: &Env, tracer: &Tracer) -> io::Result<Traced> {
    let mut tally = Tally::default();
    let mut fleet = fleet_default::setup(env, &mut tally)?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for k in 0..FLEET_PASSES {
        untraced.push(fleet_default::pass(env, &mut fleet, k, &mut tally, None)?);
        traced.push(fleet_default::pass(
            env,
            &mut fleet,
            k,
            &mut tally,
            Some(tracer),
        )?);
    }
    let (untraced_s, traced_s) = (stats::median(&untraced), stats::median(&traced));
    let spans = tracer.take();
    // Gaps between landed cells, within each pass.
    let units_ms = spans
        .iter()
        .filter(|sp| sp.name == "distrib.run")
        .flat_map(|run| {
            let mut at: Vec<f64> = spans
                .iter()
                .filter(|sp| sp.instant && sp.parent == run.id)
                .map(|sp| sp.start_us)
                .collect();
            at.sort_by(f64::total_cmp);
            at.windows(2)
                .map(|w| (w[1] - w[0]) / 1e3)
                .collect::<Vec<_>>()
        })
        .collect();
    Ok(Traced {
        units_ms,
        spans,
        counters: store_counters(&tally),
        untraced_s,
        traced_s,
        tally,
    })
}

/// The per-layer metrics of one traced workload, in `BENCHMARK.json`'s
/// vocabulary, plus derived rates for `layers.json`.
fn layer_metrics(tr: &Traced, profile: &Profile) -> (Vec<Metric>, Vec<(String, f64)>) {
    let mut m = vec![
        Metric::new("trace.wall_s", "s", tr.traced_s, 1),
        Metric::new("trace.untraced_s", "s", tr.untraced_s, 1),
        Metric::new(
            "trace.overhead_pct",
            "%",
            (tr.traced_s / tr.untraced_s - 1.0) * 100.0,
            1,
        ),
        Metric::new("trace.unattributed_pct", "%", profile.unattributed_pct(), 1),
        Metric::new("runner.cells", "count", tr.units_ms.len() as f64, 1),
    ];
    let units = if tr.units_ms.is_empty() {
        vec![0.0]
    } else {
        tr.units_ms.clone()
    };
    m.push(Metric::new(
        "runner.cell_p50_ms",
        "ms",
        stats::percentile(&units, 50.0),
        tr.units_ms.len(),
    ));
    m.push(Metric::new(
        "runner.cell_p90_ms",
        "ms",
        stats::percentile(&units, 90.0),
        tr.units_ms.len(),
    ));
    for layer in LAYERS {
        let count = profile.layers.get(layer).map_or(0, |l| l.count);
        m.push(Metric::new(
            &format!("{layer}_pct"),
            "%",
            profile.self_pct(layer),
            count,
        ));
    }
    for name in COUNTERS {
        m.push(Metric::new(
            name,
            "count",
            tr.counters.get(name).copied().unwrap_or(0) as f64,
            1,
        ));
    }
    let counter = |k: &str| tr.counters.get(k).copied().unwrap_or(0) as f64;
    let total = |l: &str| profile.layers.get(l).map_or(0.0, |l| l.total_s);
    let self_s = |l: &str| profile.layers.get(l).map_or(0.0, |l| l.self_s);
    let p50 = |l: &str| {
        profile
            .layers
            .get(l)
            .map_or(0.0, |l| stats::percentile(&l.durations_ms, 50.0))
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut derived = vec![
        (
            "isa.oracle_minst_per_s".to_string(),
            ratio(counter("isa.oracle_insts"), total("isa.oracle") * 1e6),
        ),
        (
            "isa.ff_minst_per_s".to_string(),
            ratio(counter("isa.ff_insts"), total("isa.ff") * 1e6),
        ),
        ("ooo.loop_s".to_string(), self_s("ooo.simulate")),
        (
            "ooo.ns_per_executed_cycle".to_string(),
            ratio(total("ooo.simulate") * 1e9, counter("ooo.executed_cycles")),
        ),
        (
            "cache.cell_load_p50_us".to_string(),
            p50("cache.load") * 1e3,
        ),
        ("service.rtt_p50_ms".to_string(), p50("service.fetch")),
        ("service.submit_p50_ms".to_string(), p50("service.submit")),
        ("service.queue_p50_ms".to_string(), p50("service.queued")),
        ("service.run_p50_ms".to_string(), p50("service.running")),
        (
            "distrib.first_cell_s".to_string(),
            p50("distrib.startup") / 1e3,
        ),
        ("distrib.drain_s".to_string(), p50("distrib.drain") / 1e3),
    ];
    if profile.layers.contains_key("distrib.cells") {
        derived.push((
            "distrib.cell_gap_p50_ms".to_string(),
            stats::percentile(&units, 50.0),
        ));
    }
    if profile.layers.contains_key("sampling.window") {
        // A sampled cell's own time: checkpoint decode, store I/O, oracle.
        derived.push(("sampling.cell_self_s".to_string(), self_s("runner.cell")));
    }
    for fam in [
        "baseline",
        "yla",
        "bloom",
        "dmdc-global",
        "dmdc-local",
        "queue",
    ] {
        let ns = counter(&format!("policy.{fam}.sim_ns"));
        derived.push((
            format!("policy.{fam}.ns_per_cycle"),
            ratio(ns, counter(&format!("policy.{fam}.cycles"))),
        ));
    }
    for layer in profile.layers.keys() {
        derived.push((format!("{layer}.self_s"), self_s(layer)));
    }
    (m, derived)
}

fn parent_main(args: &[String]) -> Result<bool, String> {
    let opts = Options::parse(args)?;
    let spec = Spec::load()?;
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("dmdc-benchmark").join("trace"));
    proc::become_subreaper();
    let mut rows = Vec::new();
    let mut layers_doc = Vec::new();
    let mut all_ok = true;
    for name in opts.workloads() {
        let env = Env {
            dmdc: release_exe("dmdc")?,
            repo: std::env::current_dir().map_err(|e| e.to_string())?,
            scratch: scratch_dir(&format!("trace-{name}"), opts.seed).map_err(|e| e.to_string())?,
            seed: opts.seed,
            seconds: opts.seconds as f64,
        };
        let tracer = Tracer::new(0);
        let traced = match name {
            "paper-smoke" => trace_paper(&env, &tracer),
            "full-sampled" => trace_full(&env, &tracer),
            "warm-replay" => trace_warm(&env, &tracer),
            "serve-mixed" => trace_serve(&env, &tracer),
            _ => trace_fleet(&env, &tracer),
        };
        let _ = std::fs::remove_dir_all(&env.scratch);
        let traced = traced.map_err(|e| format!("{name}: {e}"))?;
        let profile = Profile::of(&traced.spans);
        let (metrics, derived) = layer_metrics(&traced, &profile);
        let result = traced.tally.into_result(name, opts.seed, metrics);
        for m in &result.metrics {
            eprintln!(
                "{name:<13} {:<30} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        for f in &result.failures {
            eprintln!("{name:<13} FAILED: {f}");
        }
        all_ok &= result.failed == 0;
        layers_doc.push((
            name.to_string(),
            obj([
                ("layers", profile.to_json()),
                (
                    "metrics",
                    obj(result.metrics.iter().map(|m| (m.name.clone(), n(m.value)))),
                ),
                ("derived", obj(derived.into_iter().map(|(k, v)| (k, n(v))))),
                (
                    "counters",
                    obj(traced
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), n(*v as f64)))),
                ),
            ]),
        ));
        rows.push((name.to_string(), traced.spans));
        if opts.workload.is_some() {
            println!("{}", result.summary_line(&spec.names(true))?);
        }
    }
    write_file(&out, "trace.json", &chrome_trace(&rows).render()).map_err(|e| e.to_string())?;
    write_file(
        &out,
        "layers.json",
        &format!("{}\n", obj(layers_doc).render()),
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "trace: wrote {0}/trace.json (open in https://ui.perfetto.dev) and {0}/layers.json",
        out.display()
    );
    Ok(opts.workload.is_some() || all_ok)
}
