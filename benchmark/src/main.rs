//! `dmdc-benchmark`: the end-to-end benchmark of the dmdc CLI, daemon and
//! worker fleet. It drives only `target/release/dmdc` and its HTTP wire.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use dmdc_benchmark::result::{read_run_set, RunRecord, WorkloadResult};
use dmdc_benchmark::spec::Spec;
use dmdc_benchmark::workloads::{self, Env};
use dmdc_benchmark::{compare, proc, release_exe, scratch_dir, target_dir, Options};

const USAGE: &str = "\
USAGE (from the repository root):
  dmdc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0]
      one workload: metrics on stderr, then one JSON summary line on stdout
  dmdc-benchmark run [--seed N] [--seconds S] [--out DIR] [--workload NAME]
      every workload: metrics with unit and sample count on stdout;
      DIR/result.json is the run, DIR/runs.jsonl gains it as one line;
      exits non-zero if any output check failed
  dmdc-benchmark compare PARENT.jsonl CHANGE.jsonl
      judge a change from two run sets of at least 10 alternating pairs;
      exits non-zero on a regression, a counter difference, a failed
      operation or a metric too noisy to judge

Workloads: paper-smoke full-sampled warm-replay serve-mixed fleet-default.
Seed 1 is the working seed, 2 the hold-out. Traced per-layer runs are
dmdc-benchmark-trace's (benchmark/run.sh ... --trace 1 builds and runs it).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => cmd_single(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dmdc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in a scratch directory of its own, removed afterwards.
fn run_workload(name: &str, opts: &Options) -> Result<WorkloadResult, String> {
    let env = Env {
        dmdc: release_exe("dmdc")?,
        repo: std::env::current_dir().map_err(|e| e.to_string())?,
        scratch: scratch_dir(name, opts.seed).map_err(|e| e.to_string())?,
        seed: opts.seed,
        seconds: opts.seconds as f64,
    };
    let result = workloads::run(name, &env, None).map_err(|e| format!("{name}: {e}"));
    let _ = std::fs::remove_dir_all(&env.scratch);
    result
}

/// Every metric with its unit and sample count, every counter, every
/// failure.
fn print_result(w: &WorkloadResult, out: &mut impl Write) {
    for m in &w.metrics {
        let quartiles = m
            .quartiles
            .map(|(q1, q3)| format!("  q1={q1:.6} q3={q3:.6}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<13} {:<22} {:>16.6} {:<16} n={}{quartiles}",
            w.workload, m.name, m.value, m.unit, m.n
        );
    }
    for (name, value) in &w.counters {
        let _ = writeln!(
            out,
            "{:<13} {:<22} {:>16} count (exact)",
            w.workload, name, value
        );
    }
    for f in &w.failures {
        let _ = writeln!(out, "{:<13} FAILED: {f}", w.workload);
    }
}

/// One workload: metrics on stderr, the JSON summary line last on stdout.
fn cmd_single(args: &[String]) -> Result<bool, String> {
    let opts = Options::parse(args)?;
    let Some(name) = opts.workload.clone() else {
        return Err(format!("which workload? (--workload NAME)\n\n{USAGE}"));
    };
    if opts.trace {
        return Err(
            "traced runs are dmdc-benchmark-trace's (benchmark/run.sh dispatches --trace 1)".into(),
        );
    }
    let spec = Spec::load()?;
    proc::become_subreaper();
    let result = run_workload(&name, &opts)?;
    print_result(&result, &mut std::io::stderr());
    println!("{}", result.summary_line(&spec.names(false))?);
    Ok(true)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let opts = Options::parse(args)?;
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("dmdc-benchmark").join("out"));
    proc::become_subreaper();
    let started = Instant::now();
    let mut record = RunRecord {
        seed: opts.seed,
        seconds: opts.seconds,
        workloads: Vec::new(),
    };
    for name in opts.workloads() {
        let t0 = Instant::now();
        let result = run_workload(name, &opts)?;
        print_result(&result, &mut std::io::stdout());
        println!("{name:<13} took {:.1} s\n", t0.elapsed().as_secs_f64());
        record.workloads.push(result);
    }
    let failed: u64 = record.workloads.iter().map(|w| w.failed).sum();
    println!(
        "run: seed {} in {:.1} s, {failed} failed operation(s)",
        opts.seed,
        started.elapsed().as_secs_f64()
    );
    let line = record.to_line();
    dmdc_benchmark::write_file(&out, "result.json", &format!("{line}\n"))
        .map_err(|e| e.to_string())?;
    let mut set = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("runs.jsonl"))
        .map_err(|e| e.to_string())?;
    writeln!(set, "{line}").map_err(|e| e.to_string())?;
    println!(
        "run: wrote {0}/result.json and appended to {0}/runs.jsonl",
        out.display()
    );
    Ok(failed == 0)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("compare needs PARENT.jsonl CHANGE.jsonl".to_string());
    };
    let spec = Spec::load()?;
    let (report, outcome) = compare::compare(
        &spec,
        &read_run_set(parent.as_ref())?,
        &read_run_set(change.as_ref())?,
    )?;
    print!("{report}");
    Ok(outcome == compare::Outcome::Pass)
}
