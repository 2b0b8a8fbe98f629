//! Shape tests for the reproduced results: the qualitative claims of the
//! paper's evaluation must hold on the full suite (at smoke scale, so CI
//! stays fast; the benches regenerate the full-scale numbers).

use dmdc::core::experiments::{
    checking_queue_ablation_on, fig2_on, fig3_on, fig4_on, replay_breakdown_on,
    safe_load_ablation_on, sq_filter_potential_on, table_size_ablation_on, window_stats_on,
};
use dmdc::core::runner::Context;
use dmdc::ooo::CoreConfig;
use dmdc::workloads::{full_suite, Group, Scale, Workload};

fn suite() -> Vec<Workload> {
    full_suite(Scale::Smoke)
}

fn ctx() -> Context {
    Context::new()
}

#[test]
fn fig2_quad_word_beats_line_interleaving_and_grows_with_regs() {
    let fig = fig2_on(&ctx(), &suite(), &CoreConfig::config2());
    for group in [Group::Int, Group::Fp] {
        let series = |interleave: &str| -> Vec<f64> {
            fig.rows
                .iter()
                .filter(|r| r.interleave == interleave && r.group == group)
                .map(|r| r.filtered.mean)
                .collect()
        };
        let qw = series("quad-word");
        let line = series("cache-line");
        // Monotone in register count (allow float fuzz).
        for w in qw.windows(2).chain(line.windows(2)) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "{group}: filtering must not shrink with more regs"
            );
        }
        // Quad-word interleaving dominates for INT (the paper's Figure 2
        // shows a wide gap there); FP's regular strides make the two
        // interleavings nearly equivalent, so allow a small tolerance.
        let slack = if group == Group::Int { 1e-9 } else { 0.03 };
        for (q, l) in qw.iter().zip(&line) {
            assert!(
                *q >= l - slack,
                "{group}: quad-word ({q:.3}) must not trail line interleaving ({l:.3}) by more than {slack}"
            );
        }
        // 8 registers filter the vast majority (paper: 95-98%).
        assert!(
            qw[3] > 0.90,
            "{group}: YLA-8 should exceed 90%, got {}",
            qw[3]
        );
    }
}

#[test]
fn fig3_yla_beats_same_scale_bloom_filters() {
    let fig = fig3_on(&ctx(), &suite(), &CoreConfig::config2());
    let mean = |design: &str, group: Group| {
        fig.rows
            .iter()
            .find(|r| r.design == design && r.group == group)
            .map(|r| r.filtered.mean)
            .expect("row exists")
    };
    for group in [Group::Int, Group::Fp] {
        // An 8-register YLA bank outfilters even a 1024-entry bloom filter
        // (the paper's headline for Figure 3).
        assert!(
            mean("yla-8", group) >= mean("bloom-1024", group) - 1e-9,
            "{group}: yla-8 {} vs bloom-1024 {}",
            mean("yla-8", group),
            mean("bloom-1024", group)
        );
        // Bloom filtering improves with size.
        assert!(mean("bloom-1024", group) >= mean("bloom-32", group) - 1e-9);
    }
}

#[test]
fn fig4_savings_grow_with_machine_size() {
    let fig = fig4_on(&ctx(), &suite(), &CoreConfig::all());
    for group in [Group::Int, Group::Fp] {
        let series: Vec<f64> = fig
            .rows
            .iter()
            .filter(|r| r.group == group)
            .map(|r| r.total_savings.mean)
            .collect();
        assert_eq!(series.len(), 3);
        assert!(
            series[2] > series[0],
            "{group}: config3 savings ({:.3}) should exceed config1 ({:.3})",
            series[2],
            series[0]
        );
        for r in fig.rows.iter().filter(|r| r.group == group) {
            assert!(
                r.lq_savings.mean > 0.80,
                "{group}: LQ savings {:?}",
                r.lq_savings
            );
            assert!(r.slowdown.mean < 0.02, "{group}: slowdown {:?}", r.slowdown);
            assert!(
                r.total_savings.mean > 0.0,
                "{group}: net savings must be positive"
            );
        }
    }
}

#[test]
fn window_tables_have_the_paper_shape() {
    let global = window_stats_on(&ctx(), &suite(), &CoreConfig::config2(), false);
    let local = window_stats_on(&ctx(), &suite(), &CoreConfig::config2(), true);
    for (g, l) in global.rows.iter().zip(&local.rows) {
        assert!(
            g.instructions > g.loads,
            "windows contain non-load instructions"
        );
        assert!(g.safe_loads <= g.loads);
        // Local windows are no longer than global ones (Table 4 vs 2).
        assert!(
            l.instructions <= g.instructions + 1e-9,
            "{:?}: local windows must not outgrow global",
            l.group
        );
    }
}

#[test]
fn replay_tables_favor_local_and_int_dominates_fp() {
    let config = CoreConfig::config2();
    let global = replay_breakdown_on(&ctx(), &suite(), &config, false);
    let local = replay_breakdown_on(&ctx(), &suite(), &config, true);
    let int_g = &global.rows[0];
    let fp_g = &global.rows[1];
    assert!(
        int_g.false_total >= fp_g.false_total,
        "INT should see at least as many false replays as FP (paper: 168 vs 35)"
    );
    for (g, l) in global.rows.iter().zip(&local.rows) {
        assert!(
            l.false_total <= g.false_total + 1e-9,
            "{:?}: local DMDC must not increase false replays",
            g.group
        );
    }
}

#[test]
fn checking_queue_equivalence_point_exists() {
    // Some moderate queue depth should match the table's replay rate to
    // within a small factor (the paper estimates ~16 entries ≈ 2K table).
    let ablation = checking_queue_ablation_on(
        &Context::new(),
        &suite(),
        &CoreConfig::config2(),
        &[4, 16, 32],
    );
    let table_int = ablation
        .rows
        .iter()
        .find(|(label, g, ..)| label.starts_with("table") && *g == Group::Int)
        .map(|&(_, _, fr, _)| fr)
        .unwrap();
    let q32_int = ablation
        .rows
        .iter()
        .find(|(label, g, ..)| label == "queue-32" && *g == Group::Int)
        .map(|&(_, _, fr, _)| fr)
        .unwrap();
    let q4_int = ablation
        .rows
        .iter()
        .find(|(label, g, ..)| label == "queue-4" && *g == Group::Int)
        .map(|&(_, _, fr, _)| fr)
        .unwrap();
    assert!(
        q32_int <= q4_int + 1e-9,
        "a deeper queue must not replay more (q32 {q32_int} vs q4 {q4_int})"
    );
    // The 32-entry queue should be in the table's ballpark (within ~4x or
    // both negligible).
    assert!(
        q32_int <= table_int * 4.0 + 50.0,
        "queue-32 ({q32_int}) should approach the table ({table_int})"
    );
}

#[test]
fn safe_load_ablation_shows_the_benefit() {
    let ab = safe_load_ablation_on(&ctx(), &suite(), &CoreConfig::config2());
    for (group, with, without) in &ab.rows {
        assert!(
            with <= without,
            "{group}: disabling safe loads must not reduce replays ({with} vs {without})"
        );
    }
}

#[test]
fn sq_filter_potential_is_nontrivial() {
    // Paper §3: "about 20%" of loads are older than every in-flight store.
    let p = sq_filter_potential_on(&ctx(), &suite(), &CoreConfig::config2());
    for (group, potential, saved, slowdown) in &p.rows {
        assert!(
            potential.mean > 0.02 && potential.mean < 0.95,
            "{group}: SQ-filterable fraction {:.3} implausible",
            potential.mean
        );
        assert!(
            (saved.mean - potential.mean).abs() < 0.05,
            "{group}: enabling the filter should save about the measured potential"
        );
        assert!(
            slowdown.mean.abs() < 1e-9,
            "{group}: the SQ filter must be timing-neutral"
        );
    }
}

#[test]
fn growing_the_table_has_diminishing_returns() {
    // Paper §6.2.2: hashing is a minor replay cause at 2K entries, so a
    // bigger table barely helps — while a much smaller one hurts.
    let ab = table_size_ablation_on(
        &Context::new(),
        &suite(),
        &CoreConfig::config2(),
        &[64, 2048, 8192],
    );
    let int_false = |entries: u32| {
        ab.rows
            .iter()
            .find(|&&(e, g, ..)| e == entries && g == Group::Int)
            .map(|&(_, _, fr, _)| fr)
            .unwrap()
    };
    assert!(
        int_false(64) >= int_false(2048),
        "a 64-entry table must replay at least as much as 2K ({} vs {})",
        int_false(64),
        int_false(2048)
    );
    let improvement = int_false(2048) - int_false(8192);
    assert!(
        improvement <= int_false(2048) * 0.5 + 5.0,
        "quadrupling past 2K should buy little (2K {} vs 8K {})",
        int_false(2048),
        int_false(8192)
    );
}
