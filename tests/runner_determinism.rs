//! The parallel runner must be invisible in the output: any figure or
//! table rendered with `--jobs N` must be byte-identical to the serial
//! (`--jobs 1`) rendering, and the emulator oracle must be consulted
//! once per distinct workload regardless of how many cells share it.
//! Every setting lives in an explicit [`Context`], so these tests run in
//! parallel and two contexts can even share one process at once.

use std::path::PathBuf;
use std::sync::Barrier;

use dmdc::core::experiments::{self, Plan, PolicyKind};
use dmdc::core::runner::{Context, Engine, RunSpec};
use dmdc::core::CellResult;
use dmdc::ooo::{CoreConfig, SampleSpec, SimOptions};
use dmdc::workloads::{fp_suite, int_suite, Scale, Workload};

/// A tiny two-workload set (one INT, one FP) so the test stays fast.
fn mini() -> Vec<Workload> {
    vec![
        int_suite(Scale::Smoke).remove(6),
        fp_suite(Scale::Smoke).remove(1),
    ]
}

#[test]
fn rendered_tables_are_byte_identical_at_any_job_count() {
    let workloads = mini();
    let config = CoreConfig::config2();
    let render = |jobs: usize| {
        let ctx = Context::new().with_jobs(jobs);
        (
            experiments::fig2_on(&ctx, &workloads, &config).render(),
            experiments::window_stats_on(&ctx, &workloads, &config, false).render(),
        )
    };
    let (serial_fig2, serial_table2) = render(1);
    let (parallel_fig2, parallel_table2) = render(4);
    assert_eq!(
        serial_fig2, parallel_fig2,
        "fig2 must not depend on the worker count"
    );
    assert_eq!(
        serial_table2, parallel_table2,
        "table2 must not depend on the worker count"
    );
}

#[test]
fn oracle_emulates_each_workload_once_across_policies() {
    let workloads = mini();
    let config = CoreConfig::config2();
    let specs: Vec<RunSpec> = (0..workloads.len())
        .flat_map(|i| {
            [
                RunSpec::new(i, &config, PolicyKind::Baseline),
                RunSpec::new(i, &config, PolicyKind::DmdcGlobal),
                RunSpec::new(i, &config, PolicyKind::DmdcLocal),
            ]
        })
        .collect();
    let engine = Engine::new(&Context::new().with_jobs(4), &workloads);
    let runs = engine.run_all(&specs);
    assert_eq!(runs.len(), specs.len());
    let (hits, misses) = engine.oracle_stats();
    assert_eq!(
        misses,
        workloads.len() as u64,
        "one emulation per distinct workload"
    );
    assert_eq!(
        hits,
        (specs.len() - workloads.len()) as u64,
        "every other cell hit the cache"
    );
}

/// Two policies over `workloads`, planned and run under `ctx`.
fn run_under(ctx: &Context, workloads: &[Workload]) -> Vec<CellResult> {
    let config = CoreConfig::config2();
    let variants = [PolicyKind::Baseline, PolicyKind::DmdcGlobal]
        .map(|policy| (config.clone(), policy, SimOptions::default()))
        .to_vec();
    let plan = Plan::matrix(workloads.to_vec(), variants).sampled(ctx.sampling());
    Engine::new(ctx, &plan.workloads).run_all(&plan.specs())
}

/// A sampled, profiled context with its own fresh store.
fn sampled_context(tag: &str) -> Context {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("dmdc-context-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    Context::new()
        .with_jobs(2)
        .with_sampling(SampleSpec::standard())
        .with_profile()
        .with_store(dir)
}

/// Contexts are independent: an exact context without stores and a
/// sampled one with its own store and profile sink run at the same time
/// on two threads of one process, and each produces exactly what it
/// produces alone — and reports only its own work.
#[test]
fn concurrent_contexts_match_their_serial_runs() {
    let exact_set = mini();
    let sampled_set = vec![int_suite(Scale::Smoke).remove(6)]; // histo: samples
    let exact = || Context::new().with_jobs(2);

    let exact_alone = run_under(&exact(), &exact_set);
    let sampled_alone = run_under(&sampled_context("serial"), &sampled_set);
    assert!(sampled_alone.iter().all(|c| c.stats.is_sampled()));
    assert!(exact_alone.iter().all(|c| !c.stats.is_sampled()));

    let (exact_ctx, sampled_ctx) = (exact(), sampled_context("concurrent"));
    let start = Barrier::new(2);
    let (exact_both, sampled_both) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            start.wait();
            run_under(&exact_ctx, &exact_set)
        });
        let b = scope.spawn(|| {
            start.wait();
            run_under(&sampled_ctx, &sampled_set)
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(exact_both, exact_alone, "the exact context drifted");
    assert_eq!(sampled_both, sampled_alone, "the sampled context drifted");

    assert!(exact_ctx.cache().is_none() && exact_ctx.take_profile().is_none());
    let totals = sampled_ctx.take_profile().expect("profiling is on");
    assert_eq!(
        totals.sampled_cells,
        sampled_both.len() as u64,
        "the sampled context's profile counts its own cells only"
    );
    let stored = sampled_ctx.cache().unwrap().counters().stores;
    assert_eq!(stored, sampled_both.len() as u64);
    assert!(sampled_ctx.checkpoints().unwrap().counters().stores > 0);
    assert!(!exact_ctx.recovery().any() && !sampled_ctx.recovery().any());
}
