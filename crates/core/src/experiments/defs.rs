//! Definitions of every registry experiment: the paper's tables and
//! figures (§6) plus the ablations DESIGN.md calls out.
//!
//! Each artifact appears in two forms that share one variant list and one
//! reducer, so they cannot drift apart:
//!
//! * a typed `*_on` function (e.g. [`fig2_on`]) taking a run
//!   [`Context`] and explicit workloads/configs and returning the typed
//!   row struct — what shape tests and library callers use;
//! * a unit struct (e.g. [`Fig2Exp`]) implementing
//!   [`Experiment`](super::Experiment), which is what the registry, the
//!   CLI and the golden-snapshot tests drive.
//!
//! Every typed result renders through [`Table`] (`table()` / `render()`)
//! and the registry path wraps the same table in a [`Report`] for the
//! text/JSON/CSV emitters.

use dmdc_energy::EnergyModel;
use dmdc_ooo::{run_multicore, CoreConfig, MultiCoreOptions, SimOptions, SimStats};
use dmdc_workloads::{full_suite, mt_share, Group, Scale, Workload};

use super::{
    chunk_by_variants, group_stat, group_stat_ci, run_matrix, CellResult, Experiment, Plan,
    PolicyKind, Run, Variant,
};
use crate::report::{f1, f2, pct, pct_ci, GroupStat, Report, Table};
use crate::runner::Context;

/// The per-cell 95% half-width of the store-filter-rate estimate, when
/// the cell came from a sampled run.
fn filter_rate_ci(r: &CellResult) -> Option<f64> {
    r.stats
        .is_sampled()
        .then(|| r.stats.sampling.filter_rate_ci())
}

/// The per-cell *relative* 95% half-width of the cycle-count estimate.
/// A sampled run reconstructs cycles as population / IPC, so the relative
/// uncertainty of cycles equals that of the IPC estimate.
fn rel_cycles_ci(r: &CellResult) -> Option<f64> {
    r.stats
        .is_sampled()
        .then(|| r.stats.sampling.ipc_ci() / r.stats.sampling.ipc_mean().max(1e-9))
}

/// Propagated 95% half-width of a ratio `num/den` of two cycle counts,
/// each possibly sampled: relative errors add in quadrature.
fn ratio_ci(ratio: f64, num: &CellResult, den: &CellResult) -> Option<f64> {
    let rn = rel_cycles_ci(num);
    let rd = rel_cycles_ci(den);
    if rn.is_none() && rd.is_none() {
        return None;
    }
    let rn = rn.unwrap_or(0.0);
    let rd = rd.unwrap_or(0.0);
    Some(ratio.abs() * (rn * rn + rd * rd).sqrt())
}

/// The queue depths the checking-queue ablation sweeps by default.
pub const DEFAULT_QUEUE_SIZES: [u32; 4] = [4, 8, 16, 32];

/// The checking-table sizes the table-size ablation sweeps by default.
pub const DEFAULT_TABLE_SIZES: [u32; 4] = [256, 1024, 2048, 4096];

/// Table 6's default injected invalidation rates (per 1000 cycles).
pub const DEFAULT_INVAL_RATES: [f64; 4] = [0.0, 1.0, 10.0, 100.0];

// ---------------------------------------------------------------------------
// Figure 2: LQ searches filtered vs. number and interleaving of YLAs.
// ---------------------------------------------------------------------------

/// One Figure 2 bar.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// "quad-word" or "cache-line".
    pub interleave: &'static str,
    /// YLA register count.
    pub regs: u32,
    /// Suite.
    pub group: Group,
    /// Fraction of store LQ searches filtered (mean with range).
    pub filtered: GroupStat,
}

/// Figure 2 data.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// All bars.
    pub rows: Vec<Fig2Row>,
}

fn fig2_labels() -> Vec<(&'static str, bool, u32)> {
    let mut labels = Vec::new();
    for (interleave, line) in [("quad-word", false), ("cache-line", true)] {
        for regs in [1u32, 2, 4, 8, 16] {
            labels.push((interleave, line, regs));
        }
    }
    labels
}

fn fig2_variants(config: &CoreConfig) -> Vec<Variant> {
    fig2_labels()
        .into_iter()
        .map(|(_, line, regs)| {
            (
                config.clone(),
                PolicyKind::Yla {
                    regs,
                    line_interleaved: line,
                },
                SimOptions::default(),
            )
        })
        .collect()
}

fn fig2_reduce(chunks: &[Vec<CellResult>]) -> Fig2 {
    let mut rows = Vec::new();
    for ((interleave, _, regs), runs) in fig2_labels().into_iter().zip(chunks) {
        for group in [Group::Int, Group::Fp] {
            rows.push(Fig2Row {
                interleave,
                regs,
                group,
                filtered: group_stat_ci(
                    runs,
                    group,
                    |r| r.stats.policy.store_filter_rate(),
                    filter_rate_ci,
                ),
            });
        }
    }
    Fig2 { rows }
}

/// Regenerates Figure 2 on an explicit workload set.
pub fn fig2_on(ctx: &Context, workloads: &[Workload], config: &CoreConfig) -> Fig2 {
    fig2_reduce(&run_matrix(ctx, workloads, &fig2_variants(config)))
}

impl Fig2 {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Figure 2: % of LQ searches filtered by YLA count and interleaving");
        t.headers(["interleave", "regs", "group", "filtered mean [min, max]"]);
        for r in &self.rows {
            t.row([
                r.interleave.to_string(),
                r.regs.to_string(),
                r.group.to_string(),
                r.filtered.pct_range(),
            ]);
        }
        t
    }

    /// Renders the figure data as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for Figure 2.
pub struct Fig2Exp;

impl Experiment for Fig2Exp {
    fn id(&self) -> &'static str {
        "fig2"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 2, §6.1"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(full_suite(scale), fig2_variants(&CoreConfig::config2()))
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let chunks = chunk_by_variants(cells, fig2_labels().len());
        Report::single(self.id(), fig2_reduce(&chunks).table())
    }
}

// ---------------------------------------------------------------------------
// Figure 3: YLA filtering vs. bloom filters.
// ---------------------------------------------------------------------------

/// One Figure 3 bar.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Design label ("yla-1", "bloom-256", ...).
    pub design: String,
    /// Suite.
    pub group: Group,
    /// Filter rate.
    pub filtered: GroupStat,
}

/// Figure 3 data.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// All bars.
    pub rows: Vec<Fig3Row>,
}

fn fig3_designs() -> Vec<(String, PolicyKind)> {
    let mut designs: Vec<(String, PolicyKind)> = vec![
        (
            "yla-1".into(),
            PolicyKind::Yla {
                regs: 1,
                line_interleaved: false,
            },
        ),
        (
            "yla-8".into(),
            PolicyKind::Yla {
                regs: 8,
                line_interleaved: false,
            },
        ),
    ];
    for entries in [32u32, 64, 128, 256, 512, 1024] {
        designs.push((format!("bloom-{entries}"), PolicyKind::Bloom { entries }));
    }
    designs
}

fn fig3_variants(config: &CoreConfig) -> Vec<Variant> {
    fig3_designs()
        .into_iter()
        .map(|(_, kind)| (config.clone(), kind, SimOptions::default()))
        .collect()
}

fn fig3_reduce(chunks: &[Vec<CellResult>]) -> Fig3 {
    let mut rows = Vec::new();
    for ((design, _), runs) in fig3_designs().into_iter().zip(chunks) {
        for group in [Group::Int, Group::Fp] {
            rows.push(Fig3Row {
                design: design.clone(),
                group,
                filtered: group_stat_ci(
                    runs,
                    group,
                    |r| r.stats.policy.store_filter_rate(),
                    filter_rate_ci,
                ),
            });
        }
    }
    Fig3 { rows }
}

/// Regenerates Figure 3 on an explicit workload set.
pub fn fig3_on(ctx: &Context, workloads: &[Workload], config: &CoreConfig) -> Fig3 {
    fig3_reduce(&run_matrix(ctx, workloads, &fig3_variants(config)))
}

impl Fig3 {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Figure 3: filtering of YLA vs bloom filters (H0 hash)");
        t.headers(["design", "group", "filtered mean [min, max]"]);
        for r in &self.rows {
            t.row([
                r.design.clone(),
                r.group.to_string(),
                r.filtered.pct_range(),
            ]);
        }
        t
    }

    /// Renders the figure data as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for Figure 3.
pub struct Fig3Exp;

impl Experiment for Fig3Exp {
    fn id(&self) -> &'static str {
        "fig3"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 3, §6.1"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(full_suite(scale), fig3_variants(&CoreConfig::config2()))
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let chunks = chunk_by_variants(cells, fig3_designs().len());
        Report::single(self.id(), fig3_reduce(&chunks).table())
    }
}

// ---------------------------------------------------------------------------
// Figure 4: DMDC main results (LQ energy, slowdown, total energy; 3 configs).
// ---------------------------------------------------------------------------

/// One Figure 4 cluster.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Machine configuration name.
    pub config: &'static str,
    /// Suite.
    pub group: Group,
    /// LQ-functionality energy savings vs. the conventional design.
    pub lq_savings: GroupStat,
    /// Execution-time increase (negative = speedup).
    pub slowdown: GroupStat,
    /// Processor-wide net energy savings.
    pub total_savings: GroupStat,
}

/// Figure 4 data.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// All clusters.
    pub rows: Vec<Fig4Row>,
}

/// Per-workload comparison of a design against the baseline run.
#[derive(Debug, Clone, Copy)]
struct Comparison {
    slowdown: f64,
    lq_savings: f64,
    total_savings: f64,
}

fn compare(
    config: &CoreConfig,
    base: &SimStats,
    base_kind: &PolicyKind,
    new: &SimStats,
    new_kind: &PolicyKind,
) -> Comparison {
    let base_e = EnergyModel::with_geometry(base_kind.geometry(config)).evaluate(base);
    let new_e = EnergyModel::with_geometry(new_kind.geometry(config)).evaluate(new);
    Comparison {
        slowdown: new.cycles as f64 / base.cycles as f64 - 1.0,
        lq_savings: 1.0 - new_e.lq_functionality() / base_e.lq_functionality(),
        total_savings: 1.0 - new_e.total() / base_e.total(),
    }
}

fn fig4_variants(configs: &[CoreConfig]) -> Vec<Variant> {
    configs
        .iter()
        .flat_map(|config| {
            [
                (config.clone(), PolicyKind::Baseline, SimOptions::default()),
                (
                    config.clone(),
                    PolicyKind::DmdcGlobal,
                    SimOptions::default(),
                ),
            ]
        })
        .collect()
}

fn fig4_reduce(configs: &[CoreConfig], chunks: &[Vec<CellResult>]) -> Fig4 {
    let base_kind = PolicyKind::Baseline;
    let dmdc_kind = PolicyKind::DmdcGlobal;
    let mut rows = Vec::new();
    for (ci, config) in configs.iter().enumerate() {
        let (base_runs, dmdc_runs) = (&chunks[2 * ci], &chunks[2 * ci + 1]);
        let comparisons: Vec<(Group, Comparison)> = base_runs
            .iter()
            .zip(dmdc_runs)
            .map(|(base, dmdc)| {
                (
                    base.group,
                    compare(config, &base.stats, &base_kind, &dmdc.stats, &dmdc_kind),
                )
            })
            .collect();
        for group in [Group::Int, Group::Fp] {
            let of = |f: &dyn Fn(&Comparison) -> f64| {
                let vals: Vec<f64> = comparisons
                    .iter()
                    .filter(|(g, _)| *g == group)
                    .map(|(_, c)| f(c))
                    .collect();
                GroupStat::of(&vals)
            };
            rows.push(Fig4Row {
                config: config.name,
                group,
                lq_savings: of(&|c| c.lq_savings),
                slowdown: of(&|c| c.slowdown),
                total_savings: of(&|c| c.total_savings),
            });
        }
    }
    Fig4 { rows }
}

/// Regenerates Figure 4 on an explicit workload set across the given
/// configurations.
pub fn fig4_on(ctx: &Context, workloads: &[Workload], configs: &[CoreConfig]) -> Fig4 {
    fig4_reduce(
        configs,
        &run_matrix(ctx, workloads, &fig4_variants(configs)),
    )
}

impl Fig4 {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Figure 4: DMDC LQ energy savings, slowdown, total energy savings");
        t.headers(["config", "group", "LQ savings", "slowdown", "total savings"]);
        for r in &self.rows {
            t.row([
                r.config.to_string(),
                r.group.to_string(),
                r.lq_savings.pct_range(),
                r.slowdown.pct_range(),
                r.total_savings.pct_range(),
            ]);
        }
        t
    }

    /// Renders the figure data as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for Figure 4.
pub struct Fig4Exp;

impl Experiment for Fig4Exp {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 4, §6.1"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(full_suite(scale), fig4_variants(&CoreConfig::all()))
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let configs = CoreConfig::all();
        let chunks = chunk_by_variants(cells, 2 * configs.len());
        Report::single(self.id(), fig4_reduce(&configs, &chunks).table())
    }
}

// ---------------------------------------------------------------------------
// §6.1 energy note: YLA-8 alone (32.4% LQ energy, ~1.7% core-wide in paper).
// ---------------------------------------------------------------------------

/// The §6.1 YLA-only energy result.
#[derive(Debug, Clone)]
pub struct YlaEnergy {
    /// Per-group LQ-functionality savings of YLA-8 filtering.
    pub lq_savings: Vec<(Group, GroupStat)>,
    /// Per-group processor-wide savings.
    pub total_savings: Vec<(Group, GroupStat)>,
}

fn yla_energy_kinds() -> (PolicyKind, PolicyKind) {
    (
        PolicyKind::Baseline,
        PolicyKind::Yla {
            regs: 8,
            line_interleaved: false,
        },
    )
}

fn yla_energy_variants(config: &CoreConfig) -> Vec<Variant> {
    let (base_kind, yla_kind) = yla_energy_kinds();
    vec![
        (config.clone(), base_kind, SimOptions::default()),
        (config.clone(), yla_kind, SimOptions::default()),
    ]
}

fn yla_energy_reduce(config: &CoreConfig, chunks: &[Vec<CellResult>]) -> YlaEnergy {
    let (base_kind, yla_kind) = yla_energy_kinds();
    let comparisons: Vec<(Group, Comparison)> = chunks[0]
        .iter()
        .zip(&chunks[1])
        .map(|(base, yla)| {
            (
                base.group,
                compare(config, &base.stats, &base_kind, &yla.stats, &yla_kind),
            )
        })
        .collect();
    let agg = |f: &dyn Fn(&Comparison) -> f64| {
        [Group::Int, Group::Fp]
            .into_iter()
            .map(|g| {
                let vals: Vec<f64> = comparisons
                    .iter()
                    .filter(|(gg, _)| *gg == g)
                    .map(|(_, c)| f(c))
                    .collect();
                (g, GroupStat::of(&vals))
            })
            .collect::<Vec<_>>()
    };
    YlaEnergy {
        lq_savings: agg(&|c| c.lq_savings),
        total_savings: agg(&|c| c.total_savings),
    }
}

impl YlaEnergy {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("§6.1: energy savings from YLA-8 filtering alone");
        t.headers(["group", "LQ savings", "total savings"]);
        for ((g, lq), (_, total)) in self.lq_savings.iter().zip(&self.total_savings) {
            t.row([g.to_string(), lq.pct_range(), total.pct_range()]);
        }
        t
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for the §6.1 YLA-8 energy note.
pub struct YlaEnergyExp;

impl Experiment for YlaEnergyExp {
    fn id(&self) -> &'static str {
        "yla-energy"
    }

    fn paper_ref(&self) -> &'static str {
        "§6.1 (YLA-8 energy note)"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(
            full_suite(scale),
            yla_energy_variants(&CoreConfig::config2()),
        )
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let config = CoreConfig::config2();
        let chunks = chunk_by_variants(cells, 2);
        Report::single(self.id(), yla_energy_reduce(&config, &chunks).table())
    }
}

// ---------------------------------------------------------------------------
// Tables 2 & 4: checking-window statistics (global & local DMDC).
// ---------------------------------------------------------------------------

/// One window-statistics row.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Suite.
    pub group: Group,
    /// Mean committed instructions per checking window.
    pub instructions: f64,
    /// Mean committed loads per window.
    pub loads: f64,
    /// Mean safe loads per window.
    pub safe_loads: f64,
    /// Fraction of cycles spent in checking mode.
    pub checking_cycle_frac: f64,
    /// Fraction of windows containing a single unsafe store.
    pub single_store_frac: f64,
}

/// Table 2 / Table 4 data.
#[derive(Debug, Clone)]
pub struct WindowTable {
    /// `true` = local DMDC (Table 4).
    pub local: bool,
    /// Per-group rows.
    pub rows: Vec<WindowRow>,
}

fn dmdc_kind(local: bool) -> PolicyKind {
    if local {
        PolicyKind::DmdcLocal
    } else {
        PolicyKind::DmdcGlobal
    }
}

fn window_reduce(runs: &[CellResult], local: bool) -> WindowTable {
    let per_window = |r: &Run, total: u64| {
        let windows = r.stats.policy.checking_windows.max(1);
        total as f64 / windows as f64
    };
    let rows = [Group::Int, Group::Fp]
        .into_iter()
        .map(|group| WindowRow {
            group,
            instructions: group_stat(runs, group, |r| {
                per_window(r, r.stats.policy.window_instructions)
            })
            .mean,
            loads: group_stat(runs, group, |r| per_window(r, r.stats.policy.window_loads)).mean,
            safe_loads: group_stat(runs, group, |r| {
                per_window(r, r.stats.policy.window_safe_loads)
            })
            .mean,
            checking_cycle_frac: group_stat(runs, group, |r| {
                r.stats.policy.checking_mode_cycles as f64 / r.stats.cycles.max(1) as f64
            })
            .mean,
            single_store_frac: group_stat(runs, group, |r| {
                r.stats.policy.single_store_windows as f64
                    / r.stats.policy.checking_windows.max(1) as f64
            })
            .mean,
        })
        .collect();
    WindowTable { local, rows }
}

/// Regenerates checking-window statistics on an explicit workload set.
pub fn window_stats_on(
    ctx: &Context,
    workloads: &[Workload],
    config: &CoreConfig,
    local: bool,
) -> WindowTable {
    let runs = run_matrix(
        ctx,
        workloads,
        &[(config.clone(), dmdc_kind(local), SimOptions::default())],
    )
    .remove(0);
    window_reduce(&runs, local)
}

impl WindowTable {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let title = if self.local {
            "Table 4: checking-window statistics (local DMDC)"
        } else {
            "Table 2: checking-window statistics (global DMDC)"
        };
        let mut t = Table::new(title);
        t.headers([
            "group",
            "instructions",
            "loads",
            "safe loads",
            "% cycles checking",
            "% 1-store windows",
        ]);
        for r in &self.rows {
            t.row([
                r.group.to_string(),
                f1(r.instructions),
                f1(r.loads),
                f2(r.safe_loads),
                pct(r.checking_cycle_frac),
                pct(r.single_store_frac),
            ]);
        }
        t
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

fn window_plan(scale: Scale, local: bool) -> Plan {
    Plan::matrix(
        full_suite(scale),
        vec![(
            CoreConfig::config2(),
            dmdc_kind(local),
            SimOptions::default(),
        )],
    )
}

fn window_report(id: &'static str, cells: &[CellResult], local: bool) -> Report {
    let chunks = chunk_by_variants(cells, 1);
    Report::single(id, window_reduce(&chunks[0], local).table())
}

/// Registry entry for Table 2 (global-DMDC window statistics).
pub struct Table2Exp;

impl Experiment for Table2Exp {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 2, §6.2"
    }

    fn plan(&self, scale: Scale) -> Plan {
        window_plan(scale, false)
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        window_report(self.id(), cells, false)
    }
}

/// Registry entry for Table 4 (local-DMDC window statistics).
pub struct Table4Exp;

impl Experiment for Table4Exp {
    fn id(&self) -> &'static str {
        "table4"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 4, §6.2"
    }

    fn plan(&self, scale: Scale) -> Plan {
        window_plan(scale, true)
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        window_report(self.id(), cells, true)
    }
}

// ---------------------------------------------------------------------------
// Tables 3 & 5: false-replay breakdown per million committed instructions.
// ---------------------------------------------------------------------------

/// One false-replay-breakdown row (events per million commits).
#[derive(Debug, Clone)]
pub struct ReplayRow {
    /// Suite.
    pub group: Group,
    /// Address match, load in the store's own window (X).
    pub addr_x: f64,
    /// Address match, merged windows (Y).
    pub addr_y: f64,
    /// Hash conflict, load issued before the store resolved.
    pub hash_before: f64,
    /// Hash conflict, X.
    pub hash_x: f64,
    /// Hash conflict, Y.
    pub hash_y: f64,
    /// Total false replays.
    pub false_total: f64,
    /// True violations (for reference; the paper excludes them).
    pub true_violations: f64,
}

/// Table 3 / Table 5 data.
#[derive(Debug, Clone)]
pub struct ReplayTable {
    /// `true` = local DMDC (Table 5).
    pub local: bool,
    /// Per-group rows.
    pub rows: Vec<ReplayRow>,
}

fn replay_reduce(runs: &[CellResult], local: bool) -> ReplayTable {
    let rows = [Group::Int, Group::Fp]
        .into_iter()
        .map(|group| {
            let pm = |f: &dyn Fn(&Run) -> u64| {
                group_stat(runs, group, |r| r.stats.per_million(f(r))).mean
            };
            ReplayRow {
                group,
                addr_x: pm(&|r| r.stats.policy.replays.false_addr_x),
                addr_y: pm(&|r| r.stats.policy.replays.false_addr_y),
                hash_before: pm(&|r| r.stats.policy.replays.false_hash_before),
                hash_x: pm(&|r| r.stats.policy.replays.false_hash_x),
                hash_y: pm(&|r| r.stats.policy.replays.false_hash_y),
                false_total: pm(&|r| r.stats.policy.replays.false_total()),
                true_violations: pm(&|r| r.stats.policy.replays.true_violation),
            }
        })
        .collect();
    ReplayTable { local, rows }
}

/// Regenerates the false-replay breakdown on an explicit workload set.
pub fn replay_breakdown_on(
    ctx: &Context,
    workloads: &[Workload],
    config: &CoreConfig,
    local: bool,
) -> ReplayTable {
    let runs = run_matrix(
        ctx,
        workloads,
        &[(config.clone(), dmdc_kind(local), SimOptions::default())],
    )
    .remove(0);
    replay_reduce(&runs, local)
}

impl ReplayTable {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let title = if self.local {
            "Table 5: false replays per 1M commits (local DMDC)"
        } else {
            "Table 3: false replays per 1M commits (global DMDC)"
        };
        let mut t = Table::new(title);
        t.headers([
            "group",
            "addr X",
            "addr Y",
            "hash before",
            "hash X",
            "hash Y",
            "false total",
            "(true)",
        ]);
        for r in &self.rows {
            t.row([
                r.group.to_string(),
                f1(r.addr_x),
                f1(r.addr_y),
                f1(r.hash_before),
                f1(r.hash_x),
                f1(r.hash_y),
                f1(r.false_total),
                f1(r.true_violations),
            ]);
        }
        t
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

fn replay_report(id: &'static str, cells: &[CellResult], local: bool) -> Report {
    let chunks = chunk_by_variants(cells, 1);
    Report::single(id, replay_reduce(&chunks[0], local).table())
}

/// Registry entry for Table 3 (global-DMDC replay breakdown).
pub struct Table3Exp;

impl Experiment for Table3Exp {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 3, §6.2"
    }

    fn plan(&self, scale: Scale) -> Plan {
        window_plan(scale, false)
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        replay_report(self.id(), cells, false)
    }
}

/// Registry entry for Table 5 (local-DMDC replay breakdown).
pub struct Table5Exp;

impl Experiment for Table5Exp {
    fn id(&self) -> &'static str {
        "table5"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 5, §6.2"
    }

    fn plan(&self, scale: Scale) -> Plan {
        window_plan(scale, true)
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        replay_report(self.id(), cells, true)
    }
}

// ---------------------------------------------------------------------------
// Figure 5: slowdown, global vs local DMDC, three configurations.
// ---------------------------------------------------------------------------

/// One Figure 5 cluster.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Machine configuration.
    pub config: &'static str,
    /// Suite.
    pub group: Group,
    /// Global-DMDC slowdown vs. baseline.
    pub global_slowdown: GroupStat,
    /// Local-DMDC slowdown vs. baseline.
    pub local_slowdown: GroupStat,
}

/// Figure 5 data.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// All clusters.
    pub rows: Vec<Fig5Row>,
}

fn fig5_variants(configs: &[CoreConfig]) -> Vec<Variant> {
    configs
        .iter()
        .flat_map(|config| {
            [
                PolicyKind::Baseline,
                PolicyKind::DmdcGlobal,
                PolicyKind::DmdcLocal,
            ]
            .map(|kind| (config.clone(), kind, SimOptions::default()))
        })
        .collect()
}

fn fig5_reduce(configs: &[CoreConfig], chunks: &[Vec<CellResult>]) -> Fig5 {
    let mut rows = Vec::new();
    for (ci, config) in configs.iter().enumerate() {
        let (base, global, local) = (&chunks[3 * ci], &chunks[3 * ci + 1], &chunks[3 * ci + 2]);
        let per: Vec<(Group, f64, f64)> = base
            .iter()
            .zip(global)
            .zip(local)
            .map(|((b, g), l)| {
                (
                    b.group,
                    g.stats.cycles as f64 / b.stats.cycles as f64 - 1.0,
                    l.stats.cycles as f64 / b.stats.cycles as f64 - 1.0,
                )
            })
            .collect();
        for group in [Group::Int, Group::Fp] {
            let g: Vec<f64> = per
                .iter()
                .filter(|(gg, ..)| *gg == group)
                .map(|&(_, g, _)| g)
                .collect();
            let l: Vec<f64> = per
                .iter()
                .filter(|(gg, ..)| *gg == group)
                .map(|&(_, _, l)| l)
                .collect();
            rows.push(Fig5Row {
                config: config.name,
                group,
                global_slowdown: GroupStat::of(&g),
                local_slowdown: GroupStat::of(&l),
            });
        }
    }
    Fig5 { rows }
}

impl Fig5 {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Figure 5: slowdown of global vs local DMDC");
        t.headers(["config", "group", "global slowdown", "local slowdown"]);
        for r in &self.rows {
            t.row([
                r.config.to_string(),
                r.group.to_string(),
                r.global_slowdown.pct_range(),
                r.local_slowdown.pct_range(),
            ]);
        }
        t
    }

    /// Renders the figure data as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for Figure 5.
pub struct Fig5Exp;

impl Experiment for Fig5Exp {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn paper_ref(&self) -> &'static str {
        "Figure 5, §6.2"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(full_suite(scale), fig5_variants(&CoreConfig::all()))
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let configs = CoreConfig::all();
        let chunks = chunk_by_variants(cells, 3 * configs.len());
        Report::single(self.id(), fig5_reduce(&configs, &chunks).table())
    }
}

// ---------------------------------------------------------------------------
// Table 6: impact of external invalidations.
// ---------------------------------------------------------------------------

/// One Table 6 row.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Suite.
    pub group: Group,
    /// Injected invalidations per 1000 cycles.
    pub rate: f64,
    /// Fraction of cycles in checking mode.
    pub checking_cycle_frac: f64,
    /// Checking-window size relative to the zero-invalidation run.
    pub rel_window: f64,
    /// False-replay rate relative to the zero-invalidation run.
    pub rel_false_replays: f64,
    /// Slowdown vs. the conventional baseline without invalidations.
    pub slowdown: f64,
    /// Propagated 95% half-width of the slowdown, when runs were sampled.
    pub slowdown_ci: Option<f64>,
}

/// Table 6 data.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Rows, grouped by suite then rate.
    pub rows: Vec<Table6Row>,
}

fn table6_variants(config: &CoreConfig, rates: &[f64]) -> Vec<Variant> {
    // Baseline timing reference (no coherence, as in the paper's baseline)
    // plus one DMDC-coherent variant per invalidation rate, in one batch.
    let mut variants = vec![(config.clone(), PolicyKind::Baseline, SimOptions::default())];
    for &rate in rates {
        let opts = SimOptions {
            inval_per_kcycle: rate,
            inval_seed: 42,
            ..SimOptions::default()
        };
        variants.push((config.clone(), PolicyKind::DmdcCoherent, opts));
    }
    variants
}

fn table6_reduce(rates: &[f64], chunks: &[Vec<CellResult>]) -> Table6 {
    let base_runs = &chunks[0];
    // The zero-rate DMDC run normalizes the relative columns.
    let reference = &chunks[1];
    let mut rows = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let runs = &chunks[i + 1];
        for group in [Group::Int, Group::Fp] {
            let window_size = |rs: &[Run]| {
                group_stat(rs, group, |r| {
                    r.stats.policy.window_instructions as f64
                        / r.stats.policy.checking_windows.max(1) as f64
                })
                .mean
            };
            let false_rate = |rs: &[Run]| {
                group_stat(rs, group, |r| {
                    r.stats.per_million(r.stats.policy.replays.false_total())
                })
                .mean
            };
            // Floors keep the relative columns meaningful when the
            // zero-invalidation run has (near-)zero events, as FP does.
            let ref_window = window_size(reference).max(1.0);
            let ref_false = false_rate(reference).max(1.0);
            let checking = group_stat(runs, group, |r| {
                r.stats.policy.checking_mode_cycles as f64 / r.stats.cycles.max(1) as f64
            })
            .mean;
            // Mean slowdown pairs each workload's run with its baseline;
            // sampled runs carry the propagated CI of the cycle ratio.
            let pairs: Vec<(&Run, &Run)> = runs
                .iter()
                .zip(base_runs)
                .filter(|(r, _)| r.group == group)
                .collect();
            let slowdowns: Vec<f64> = pairs
                .iter()
                .map(|(r, b)| r.stats.cycles as f64 / b.stats.cycles as f64 - 1.0)
                .collect();
            let cis: Vec<Option<f64>> = pairs
                .iter()
                .zip(&slowdowns)
                .map(|((r, b), s)| ratio_ci(s + 1.0, r, b))
                .collect();
            let slowdown = GroupStat::of_ci(&slowdowns, &cis);
            rows.push(Table6Row {
                group,
                rate,
                checking_cycle_frac: checking,
                rel_window: window_size(runs).max(1.0) / ref_window,
                rel_false_replays: false_rate(runs).max(1.0) / ref_false,
                slowdown: slowdown.mean,
                slowdown_ci: slowdown.ci,
            });
        }
    }
    Table6 { rows }
}

/// Regenerates Table 6 on an explicit workload set.
pub fn table6_on(
    ctx: &Context,
    workloads: &[Workload],
    config: &CoreConfig,
    rates: &[f64],
) -> Table6 {
    table6_reduce(
        rates,
        &run_matrix(ctx, workloads, &table6_variants(config, rates)),
    )
}

impl Table6 {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Table 6: impact of external invalidations on DMDC");
        t.headers([
            "group",
            "inv/1k cycles",
            "% cycles checking",
            "rel window",
            "rel false replays",
            "slowdown",
        ]);
        for r in &self.rows {
            t.row([
                r.group.to_string(),
                f1(r.rate),
                pct(r.checking_cycle_frac),
                f2(r.rel_window),
                f2(r.rel_false_replays),
                match r.slowdown_ci {
                    Some(ci) => pct_ci(r.slowdown, ci),
                    None => pct(r.slowdown),
                },
            ]);
        }
        t
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for Table 6.
pub struct Table6Exp;

impl Experiment for Table6Exp {
    fn id(&self) -> &'static str {
        "table6"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 6, §6.3"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(
            full_suite(scale),
            table6_variants(&CoreConfig::config2(), &DEFAULT_INVAL_RATES),
        )
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let chunks = chunk_by_variants(cells, 1 + DEFAULT_INVAL_RATES.len());
        Report::single(
            self.id(),
            table6_reduce(&DEFAULT_INVAL_RATES, &chunks).table(),
        )
    }
}

// ---------------------------------------------------------------------------
// Multicore: organic coherence traffic next to the injected approximation.
// ---------------------------------------------------------------------------

/// Contention periods (private ALU instructions between shared-line
/// rounds) the multicore experiment sweeps, sparsest first: smaller
/// periods mean denser organic invalidation traffic.
pub const DEFAULT_SHARING_PERIODS: [u32; 4] = [64, 16, 4, 1];

/// Shared rounds per core in the organic sweep. Fixed rather than scaled:
/// the organic runs are full-detail two-core simulations driven inline by
/// the reducer, so they stay smoke-sized at every scale.
const SHARING_ROUNDS: u32 = 300;

/// One organic (really-coherent) two-core run.
#[derive(Debug, Clone)]
pub struct MulticoreRow {
    /// Policy token ("baseline-coherent" / "dmdc-coherent").
    pub policy: String,
    /// Private instructions between shared rounds.
    pub period: u32,
    /// Measured invalidation deliveries per 1000 driver cycles.
    pub invals_per_kcycle: f64,
    /// Coherence replays per million committed instructions, both cores.
    pub coherence_replays_per_m: f64,
    /// Line ownership transfers on the bus (BusUpgr + BusRdX).
    pub bus_transfers: u64,
    /// Driver cycles to completion.
    pub cycles: u64,
}

/// Multicore experiment data: the single-core injected sweep (Table 6's
/// approximation of §6.2.4) next to the organic two-core MESI sweep the
/// approximation stands in for.
#[derive(Debug, Clone)]
pub struct Multicore {
    /// `(injected rate, DMDC coherence replays per 1M committed)` per
    /// swept rate.
    pub injected: Vec<(f64, f64)>,
    /// Organic rows, contention-period-major, policy-minor.
    pub organic: Vec<MulticoreRow>,
}

/// The injected half's cell matrix: exactly Table 6's DMDC-coherent
/// columns (same config, policy and options), so the persistent cell
/// cache shares these cells with `table6` verbatim.
fn multicore_injected_variants(config: &CoreConfig, rates: &[f64]) -> Vec<Variant> {
    rates
        .iter()
        .map(|&rate| {
            let opts = SimOptions {
                inval_per_kcycle: rate,
                inval_seed: 42,
                ..SimOptions::default()
            };
            (config.clone(), PolicyKind::DmdcCoherent, opts)
        })
        .collect()
}

/// Runs the organic two-core sweep: every contention period under the
/// coherent baseline and coherent DMDC, through the real MESI hub.
fn multicore_organic(config: &CoreConfig, periods: &[u32]) -> Vec<MulticoreRow> {
    let mut rows = Vec::new();
    for &period in periods {
        let kernel = mt_share(SHARING_ROUNDS, period);
        for kind in [PolicyKind::BaselineCoherent, PolicyKind::DmdcCoherent] {
            let policies = (0..kernel.programs.len())
                .map(|_| kind.build(config))
                .collect();
            let opts = MultiCoreOptions {
                seed: 7,
                ..MultiCoreOptions::default()
            };
            let r = run_multicore(&kernel.program_refs(), config, policies, &opts)
                .unwrap_or_else(|e| panic!("{} under {kind:?}: {e}", kernel.name));
            assert!(
                r.coherence_violations.is_empty(),
                "{} under {kind:?}: {:?}",
                kernel.name,
                r.coherence_violations
            );
            let committed: u64 = r.cores.iter().map(|c| c.result.stats.committed).sum();
            let coherence: u64 = r
                .cores
                .iter()
                .map(|c| c.result.stats.policy.replays.coherence)
                .sum();
            rows.push(MulticoreRow {
                policy: kind.token(),
                period,
                invals_per_kcycle: r.invals_per_kcycle(),
                coherence_replays_per_m: coherence as f64 * 1e6 / committed.max(1) as f64,
                bus_transfers: r.bus.bus_upgrades + r.bus.bus_read_x,
                cycles: r.cycles,
            });
        }
    }
    rows
}

fn multicore_reduce(
    rates: &[f64],
    chunks: &[Vec<CellResult>],
    organic: Vec<MulticoreRow>,
) -> Multicore {
    let injected = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let runs = &chunks[i];
            let mean = runs
                .iter()
                .map(|r| r.stats.per_million(r.stats.policy.replays.coherence))
                .sum::<f64>()
                / runs.len().max(1) as f64;
            (rate, mean)
        })
        .collect();
    Multicore { injected, organic }
}

impl Multicore {
    /// The rendered tables, injected sweep first.
    pub fn tables(&self) -> Vec<Table> {
        let mut inj = Table::new(
            "Multicore A: DMDC replay rate under injected invalidations (1 core, Bernoulli model)",
        );
        inj.headers(["inv/1k cycles (injected)", "coherence replays /1M"]);
        for &(rate, replays) in &self.injected {
            inj.row([f1(rate), f1(replays)]);
        }
        let mut org =
            Table::new("Multicore B: organic MESI traffic (2 cores, false-sharing kernel)");
        org.headers([
            "policy",
            "period",
            "inv/1k cycles (measured)",
            "coherence replays /1M",
            "bus transfers",
            "cycles",
        ]);
        for r in &self.organic {
            org.row([
                r.policy.clone(),
                r.period.to_string(),
                f1(r.invals_per_kcycle),
                f1(r.coherence_replays_per_m),
                r.bus_transfers.to_string(),
                r.cycles.to_string(),
            ]);
        }
        vec![inj, org]
    }

    /// Renders both tables.
    pub fn render(&self) -> String {
        self.tables()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Registry entry for the multicore comparison.
pub struct MulticoreExp;

impl Experiment for MulticoreExp {
    fn id(&self) -> &'static str {
        "multicore"
    }

    fn paper_ref(&self) -> &'static str {
        "§6.2.4 (external invalidations, organically generated)"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(
            full_suite(scale),
            multicore_injected_variants(&CoreConfig::config2(), &DEFAULT_INVAL_RATES),
        )
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let chunks = chunk_by_variants(cells, DEFAULT_INVAL_RATES.len());
        let m = multicore_reduce(
            &DEFAULT_INVAL_RATES,
            &chunks,
            multicore_organic(&CoreConfig::config2(), &DEFAULT_SHARING_PERIODS),
        );
        let mut report = Report::new(self.id());
        for t in m.tables() {
            report.push(t);
        }
        report
    }
}

// ---------------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------------

/// Checking-queue vs. hash-table ablation (§4.4/§6.2.3).
#[derive(Debug, Clone)]
pub struct CheckingQueueAblation {
    /// (design label, group, false replays per 1M, slowdown vs baseline).
    pub rows: Vec<(String, Group, f64, f64)>,
}

fn cq_designs(config: &CoreConfig, queue_sizes: &[u32]) -> Vec<(String, PolicyKind)> {
    let mut designs = vec![(
        format!("table-{}", config.checking_table_entries),
        PolicyKind::DmdcGlobal,
    )];
    for &entries in queue_sizes {
        designs.push((
            format!("queue-{entries}"),
            PolicyKind::CheckingQueue { entries },
        ));
    }
    designs
}

fn cq_variants(config: &CoreConfig, queue_sizes: &[u32]) -> Vec<Variant> {
    let mut variants = vec![(config.clone(), PolicyKind::Baseline, SimOptions::default())];
    for (_, kind) in cq_designs(config, queue_sizes) {
        variants.push((config.clone(), kind, SimOptions::default()));
    }
    variants
}

fn cq_reduce(
    config: &CoreConfig,
    queue_sizes: &[u32],
    chunks: &[Vec<CellResult>],
) -> CheckingQueueAblation {
    let base_runs = &chunks[0];
    let mut rows = Vec::new();
    for ((label, _), runs) in cq_designs(config, queue_sizes)
        .into_iter()
        .zip(&chunks[1..])
    {
        for group in [Group::Int, Group::Fp] {
            let false_pm = group_stat(runs, group, |r| {
                r.stats.per_million(r.stats.policy.replays.false_total())
            })
            .mean;
            let slowdowns: Vec<f64> = runs
                .iter()
                .zip(base_runs)
                .filter(|(r, _)| r.group == group)
                .map(|(r, b)| r.stats.cycles as f64 / b.stats.cycles as f64 - 1.0)
                .collect();
            rows.push((
                label.clone(),
                group,
                false_pm,
                GroupStat::of(&slowdowns).mean,
            ));
        }
    }
    CheckingQueueAblation { rows }
}

/// Compares the hash table against associative queues of several depths.
pub fn checking_queue_ablation_on(
    ctx: &Context,
    workloads: &[Workload],
    config: &CoreConfig,
    queue_sizes: &[u32],
) -> CheckingQueueAblation {
    cq_reduce(
        config,
        queue_sizes,
        &run_matrix(ctx, workloads, &cq_variants(config, queue_sizes)),
    )
}

impl CheckingQueueAblation {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Ablation: hash table vs associative checking queue");
        t.headers(["design", "group", "false replays / 1M", "slowdown"]);
        for (label, group, fr, sd) in &self.rows {
            t.row([label.clone(), group.to_string(), f1(*fr), pct(*sd)]);
        }
        t
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for the checking-queue ablation.
pub struct CheckingQueueAblationExp;

impl Experiment for CheckingQueueAblationExp {
    fn id(&self) -> &'static str {
        "ablation-queue"
    }

    fn paper_ref(&self) -> &'static str {
        "§4.4 / §6.2.3"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(
            full_suite(scale),
            cq_variants(&CoreConfig::config2(), &DEFAULT_QUEUE_SIZES),
        )
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let config = CoreConfig::config2();
        let chunks = chunk_by_variants(cells, 2 + DEFAULT_QUEUE_SIZES.len());
        Report::single(
            self.id(),
            cq_reduce(&config, &DEFAULT_QUEUE_SIZES, &chunks).table(),
        )
    }
}

/// Checking-table size sweep (§6.2.2: "increasing the size of the checking
/// table will have limited effectiveness due to diminishing returns").
#[derive(Debug, Clone)]
pub struct TableSizeAblation {
    /// (table entries, group, false replays per 1M, hash-conflict replays
    /// per 1M).
    pub rows: Vec<(u32, Group, f64, f64)>,
}

fn table_size_variants(config: &CoreConfig, sizes: &[u32]) -> Vec<Variant> {
    sizes
        .iter()
        .map(|&entries| {
            let mut cfg = config.clone();
            cfg.checking_table_entries = entries;
            (cfg, PolicyKind::DmdcGlobal, SimOptions::default())
        })
        .collect()
}

fn table_size_reduce(sizes: &[u32], chunks: &[Vec<CellResult>]) -> TableSizeAblation {
    let mut rows = Vec::new();
    for (&entries, runs) in sizes.iter().zip(chunks) {
        for group in [Group::Int, Group::Fp] {
            let false_pm = group_stat(runs, group, |r| {
                r.stats.per_million(r.stats.policy.replays.false_total())
            })
            .mean;
            let hash_pm = group_stat(runs, group, |r| {
                r.stats.per_million(
                    r.stats.policy.replays.false_hash_before
                        + r.stats.policy.replays.false_hash_x
                        + r.stats.policy.replays.false_hash_y,
                )
            })
            .mean;
            rows.push((entries, group, false_pm, hash_pm));
        }
    }
    TableSizeAblation { rows }
}

/// Sweeps the checking-table size under global DMDC.
pub fn table_size_ablation_on(
    ctx: &Context,
    workloads: &[Workload],
    config: &CoreConfig,
    sizes: &[u32],
) -> TableSizeAblation {
    table_size_reduce(
        sizes,
        &run_matrix(ctx, workloads, &table_size_variants(config, sizes)),
    )
}

impl TableSizeAblation {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Ablation: checking-table size vs false replays");
        t.headers([
            "entries",
            "group",
            "false replays / 1M",
            "hash-conflict part",
        ]);
        for (entries, group, fr, hash) in &self.rows {
            t.row([entries.to_string(), group.to_string(), f1(*fr), f1(*hash)]);
        }
        t
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for the checking-table size ablation.
pub struct TableSizeAblationExp;

impl Experiment for TableSizeAblationExp {
    fn id(&self) -> &'static str {
        "ablation-table-size"
    }

    fn paper_ref(&self) -> &'static str {
        "§6.2.2"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(
            full_suite(scale),
            table_size_variants(&CoreConfig::config2(), &DEFAULT_TABLE_SIZES),
        )
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let chunks = chunk_by_variants(cells, DEFAULT_TABLE_SIZES.len());
        Report::single(
            self.id(),
            table_size_reduce(&DEFAULT_TABLE_SIZES, &chunks).table(),
        )
    }
}

/// Safe-load ablation (§6.2.2: "without safe loads, replays will double").
#[derive(Debug, Clone)]
pub struct SafeLoadAblation {
    /// (group, false replays/1M with safe loads, without).
    pub rows: Vec<(Group, f64, f64)>,
}

fn safe_load_variants(config: &CoreConfig) -> Vec<Variant> {
    vec![
        (
            config.clone(),
            PolicyKind::DmdcGlobal,
            SimOptions::default(),
        ),
        (
            config.clone(),
            PolicyKind::DmdcNoSafeLoads,
            SimOptions::default(),
        ),
    ]
}

fn safe_load_reduce(chunks: &[Vec<CellResult>]) -> SafeLoadAblation {
    let (with, without) = (&chunks[0], &chunks[1]);
    let rows = [Group::Int, Group::Fp]
        .into_iter()
        .map(|group| {
            let f = |rs: &[Run]| {
                group_stat(rs, group, |r| {
                    r.stats.per_million(r.stats.policy.replays.false_total())
                })
                .mean
            };
            (group, f(with), f(without))
        })
        .collect();
    SafeLoadAblation { rows }
}

/// Measures the false-replay reduction the safe-load logic provides.
pub fn safe_load_ablation_on(
    ctx: &Context,
    workloads: &[Workload],
    config: &CoreConfig,
) -> SafeLoadAblation {
    safe_load_reduce(&run_matrix(ctx, workloads, &safe_load_variants(config)))
}

impl SafeLoadAblation {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Ablation: safe-load detection (false replays / 1M)");
        t.headers(["group", "with safe loads", "without"]);
        for (g, w, wo) in &self.rows {
            t.row([g.to_string(), f1(*w), f1(*wo)]);
        }
        t
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for the safe-load ablation.
pub struct SafeLoadAblationExp;

impl Experiment for SafeLoadAblationExp {
    fn id(&self) -> &'static str {
        "ablation-safe-loads"
    }

    fn paper_ref(&self) -> &'static str {
        "§6.2.2"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(
            full_suite(scale),
            safe_load_variants(&CoreConfig::config2()),
        )
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let chunks = chunk_by_variants(cells, 2);
        Report::single(self.id(), safe_load_reduce(&chunks).table())
    }
}

/// §3 store-queue filtering: fraction of loads older than every in-flight
/// store (paper: "about 20%"), plus the measured effect of actually
/// enabling the oldest-store-age register (the paper's deferred extension).
#[derive(Debug, Clone)]
pub struct SqFilterPotential {
    /// Per-group: (bypassable fraction, SQ searches saved when the filter
    /// is enabled, timing change when enabled — must be zero).
    pub rows: Vec<(Group, GroupStat, GroupStat, GroupStat)>,
}

fn sq_filter_variants(config: &CoreConfig) -> Vec<Variant> {
    let mut filtered_config = config.clone();
    filtered_config.sq_age_filter = true;
    vec![
        (config.clone(), PolicyKind::Baseline, SimOptions::default()),
        (filtered_config, PolicyKind::Baseline, SimOptions::default()),
    ]
}

fn sq_filter_reduce(chunks: &[Vec<CellResult>]) -> SqFilterPotential {
    let (baseline_runs, filtered_runs) = (&chunks[0], &chunks[1]);
    let rows = [Group::Int, Group::Fp]
        .into_iter()
        .map(|group| {
            let potential = group_stat(baseline_runs, group, |r| {
                r.stats.sq_filterable_loads as f64 / r.stats.energy.sq_cam_searches.max(1) as f64
            });
            let saved: Vec<f64> = baseline_runs
                .iter()
                .zip(filtered_runs)
                .filter(|(b, _)| b.group == group)
                .map(|(b, f)| {
                    1.0 - f.stats.energy.sq_cam_searches as f64
                        / b.stats.energy.sq_cam_searches.max(1) as f64
                })
                .collect();
            let slowdown: Vec<f64> = baseline_runs
                .iter()
                .zip(filtered_runs)
                .filter(|(b, _)| b.group == group)
                .map(|(b, f)| f.stats.cycles as f64 / b.stats.cycles as f64 - 1.0)
                .collect();
            (
                group,
                potential,
                GroupStat::of(&saved),
                GroupStat::of(&slowdown),
            )
        })
        .collect();
    SqFilterPotential { rows }
}

/// Measures the §3 SQ-filtering opportunity and exercises the filter.
pub fn sq_filter_potential_on(
    ctx: &Context,
    workloads: &[Workload],
    config: &CoreConfig,
) -> SqFilterPotential {
    sq_filter_reduce(&run_matrix(ctx, workloads, &sq_filter_variants(config)))
}

impl SqFilterPotential {
    /// The rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("§3: oldest-store-age SQ filtering (potential and measured effect)");
        t.headers([
            "group",
            "bypassable loads",
            "SQ searches saved",
            "timing change",
        ]);
        for (g, potential, saved, slowdown) in &self.rows {
            t.row([
                g.to_string(),
                potential.pct_range(),
                pct(saved.mean),
                pct(slowdown.mean),
            ]);
        }
        t
    }

    /// Renders as a table.
    pub fn render(&self) -> String {
        self.table().to_string()
    }
}

/// Registry entry for the SQ-filter potential study.
pub struct SqFilterAblationExp;

impl Experiment for SqFilterAblationExp {
    fn id(&self) -> &'static str {
        "ablation-sq-filter"
    }

    fn paper_ref(&self) -> &'static str {
        "§3 (deferred SQ-filtering extension)"
    }

    fn plan(&self, scale: Scale) -> Plan {
        Plan::matrix(
            full_suite(scale),
            sq_filter_variants(&CoreConfig::config2()),
        )
    }

    fn reduce(&self, cells: &[CellResult]) -> Report {
        let chunks = chunk_by_variants(cells, 2);
        Report::single(self.id(), sq_filter_reduce(&chunks).table())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{find_experiment, run_workload};
    use super::*;
    use dmdc_workloads::{fp_suite, int_suite};

    /// A tiny two-workload set (one INT, one FP) for harness smoke tests.
    fn mini_suite() -> Vec<Workload> {
        vec![
            int_suite(Scale::Smoke).remove(6), // histo: dependence-heavy
            fp_suite(Scale::Smoke).remove(1),  // saxpy: regular FP
        ]
    }

    #[test]
    fn run_workload_verifies_against_emulator() {
        let w = &mini_suite()[0];
        let r = run_workload(
            w,
            &CoreConfig::config2(),
            &PolicyKind::DmdcGlobal,
            SimOptions::default(),
        );
        assert!(r.stats.committed > 1_000);
    }

    #[test]
    fn fig2_shape_more_regs_filter_more() {
        let suite = mini_suite();
        let fig = fig2_on(&Context::new(), &suite, &CoreConfig::config2());
        assert_eq!(fig.rows.len(), 2 * 5 * 2);
        let qw_int: Vec<&Fig2Row> = fig
            .rows
            .iter()
            .filter(|r| r.interleave == "quad-word" && r.group == Group::Int)
            .collect();
        assert!(
            qw_int.last().unwrap().filtered.mean >= qw_int.first().unwrap().filtered.mean,
            "16 YLAs must filter at least as much as 1"
        );
        assert!(!fig.render().is_empty());
    }

    #[test]
    fn fig4_reports_all_groups_and_configs() {
        let suite = mini_suite();
        let fig = fig4_on(&Context::new(), &suite, &[CoreConfig::config1()]);
        assert_eq!(fig.rows.len(), 2);
        for row in &fig.rows {
            assert!(
                row.lq_savings.mean > 0.5,
                "DMDC must slash LQ energy, got {:?}",
                row.lq_savings
            );
            assert!(
                row.slowdown.mean.abs() < 0.25,
                "slowdown should be small, got {:?}",
                row.slowdown
            );
        }
        assert!(fig.render().contains("config1"));
    }

    #[test]
    fn window_and_replay_tables_have_both_groups() {
        let suite = mini_suite();
        let wt = window_stats_on(&Context::new(), &suite, &CoreConfig::config2(), false);
        assert_eq!(wt.rows.len(), 2);
        let rt = replay_breakdown_on(&Context::new(), &suite, &CoreConfig::config2(), false);
        assert_eq!(rt.rows.len(), 2);
        assert!(!wt.render().is_empty());
        assert!(!rt.render().is_empty());
    }

    #[test]
    fn table6_zero_rate_is_the_reference() {
        let suite = mini_suite();
        let t = table6_on(
            &Context::new(),
            &suite,
            &CoreConfig::config2(),
            &[0.0, 10.0],
        );
        assert_eq!(t.rows.len(), 4);
        for row in t.rows.iter().take(2) {
            assert!((row.rel_window - 1.0).abs() < 1e-9 || row.rel_window == 0.0);
        }
        assert!(t.render().contains("inv/1k"));
    }

    #[test]
    fn sq_filter_potential_is_sane() {
        let suite = mini_suite();
        let p = sq_filter_potential_on(&Context::new(), &suite, &CoreConfig::config2());
        for (_, potential, saved, slowdown) in &p.rows {
            assert!((0.0..=1.0).contains(&potential.mean));
            assert!((0.0..=1.0).contains(&saved.mean));
            assert_eq!(slowdown.mean, 0.0, "the SQ filter is timing-neutral");
        }
    }

    #[test]
    fn registry_reduce_matches_typed_path() {
        // The registry entry and the typed `_on` function must agree cell
        // for cell: reduce the same mini-matrix both ways.
        let suite = mini_suite();
        let config = CoreConfig::config2();
        let cells: Vec<CellResult> = run_matrix(&Context::new(), &suite, &fig2_variants(&config))
            .into_iter()
            .flatten()
            .collect();
        let report = find_experiment("fig2").unwrap().reduce(&cells);
        assert_eq!(
            report.text(),
            format!("{}\n", fig2_on(&Context::new(), &suite, &config).render())
        );
    }
}
