//! The declarative experiment pipeline: **plan → run → reduce → emit**.
//!
//! Every paper artifact (Figs. 2–5, Tables 2–6, the ablations) is an
//! [`Experiment`]: a registry entry that *plans* a flat matrix of
//! independent [`RunSpec`] cells at a [`Scale`], has them *run* by the
//! parallel [`Engine`] — which verifies each cell
//! against the functional emulator and serves unchanged cells from the
//! persistent content-addressed [cell cache](crate::cache) — and then
//! *reduces* the uniform [`CellResult`] records to a typed table,
//! *emitted* as text, JSON or CSV through [`Report`].
//!
//! What to run — one cell, the suite matrix or a registry experiment —
//! is one [`Work`] descriptor for the CLI, the daemon and the worker
//! fleet alike, and [`execute`] is its one plan → run → report path.
//!
//! The `*_on` variants take an explicit workload slice so tests (and
//! impatient users) can run reduced sets; the registry entries plan the
//! full suite at the requested scale. Both funnel through the same
//! variant lists and reducers, so `dmdc experiment fig2` and
//! [`fig2_on`] cannot drift apart.
//!
//! Cells run concurrently across a worker pool, results come back in
//! spec order, and the emulator's reference state is computed once per
//! workload and shared by every cell (see [`crate::runner`]). Output is
//! byte-identical at any worker count, with or without the cache. Every
//! entry point that runs cells takes the [`Context`] to run them under.

use dmdc_energy::StructureGeometry;
use dmdc_isa::Emulator;
use dmdc_ooo::{
    BaselinePolicy, CoreConfig, MemDepPolicy, SampleSpec, SimOptions, SimResult, Simulator,
};
use dmdc_workloads::{full_suite, Group, Scale, SyntheticKernel, Workload};

use crate::cache::{default_fingerprint, Fnv64};
use crate::cell::{CellError, CellFailure, FailureKind};
use crate::distrib::DistribOptions;
use crate::report::{GroupStat, Report, Table};
use crate::runner::{Context, Engine, RunSpec};
use crate::service::json::{self, Json};
use crate::{BloomPolicy, CheckingQueuePolicy, DmdcConfig, DmdcPolicy, Interleave, YlaPolicy};

mod defs;

pub use crate::cell::CellResult;
pub use defs::*;

/// Backwards-compatible alias: a "run" is one verified cell.
pub type Run = CellResult;

/// Which dependence-checking design to instantiate for a run.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Conventional CAM load queue.
    Baseline,
    /// Conventional design with POWER4-style coherence searches.
    BaselineCoherent,
    /// YLA filtering in front of the CAM LQ.
    Yla {
        /// Register count.
        regs: u32,
        /// Quad-word (`false`) or cache-line (`true`) interleaving.
        line_interleaved: bool,
    },
    /// Bloom-filter search filtering (\[18\]).
    Bloom {
        /// Filter entries.
        entries: u32,
    },
    /// DMDC with the global end-check register.
    DmdcGlobal,
    /// DMDC with local (per-store) windows.
    DmdcLocal,
    /// Global DMDC with INV-bit coherence support.
    DmdcCoherent,
    /// Global DMDC with the safe-load optimization disabled (ablation).
    DmdcNoSafeLoads,
    /// DMDC with the associative checking queue instead of the table.
    CheckingQueue {
        /// Queue entries.
        entries: u32,
    },
}

impl PolicyKind {
    /// Builds the policy for a machine configuration.
    pub fn build(&self, config: &CoreConfig) -> Box<dyn MemDepPolicy> {
        match *self {
            PolicyKind::Baseline => Box::new(BaselinePolicy::new()),
            PolicyKind::BaselineCoherent => {
                Box::new(BaselinePolicy::with_coherence(config.l2.line_bytes))
            }
            PolicyKind::Yla {
                regs,
                line_interleaved,
            } => {
                let il = if line_interleaved {
                    Interleave::CacheLine(config.l2.line_bytes)
                } else {
                    Interleave::QuadWord
                };
                Box::new(YlaPolicy::new(regs, il))
            }
            PolicyKind::Bloom { entries } => Box::new(BloomPolicy::new(entries)),
            PolicyKind::DmdcGlobal => Box::new(DmdcPolicy::new(DmdcConfig::global(config))),
            PolicyKind::DmdcLocal => Box::new(DmdcPolicy::new(DmdcConfig::local(config))),
            PolicyKind::DmdcCoherent => {
                Box::new(DmdcPolicy::new(DmdcConfig::global(config).with_coherence()))
            }
            PolicyKind::DmdcNoSafeLoads => Box::new(DmdcPolicy::new(
                DmdcConfig::global(config).without_safe_loads(),
            )),
            PolicyKind::CheckingQueue { entries } => {
                Box::new(CheckingQueuePolicy::new(config, entries))
            }
        }
    }

    /// Stable CLI/repro-file token (`dmdc run --policy <token>`); parsed
    /// back by [`PolicyKind::parse_token`].
    pub fn token(&self) -> String {
        match self {
            PolicyKind::Baseline => "baseline".to_string(),
            PolicyKind::BaselineCoherent => "baseline-coherent".to_string(),
            PolicyKind::Yla {
                regs,
                line_interleaved,
            } => {
                if *line_interleaved {
                    format!("yla-line-{regs}")
                } else {
                    format!("yla-{regs}")
                }
            }
            PolicyKind::Bloom { entries } => format!("bloom-{entries}"),
            PolicyKind::DmdcGlobal => "dmdc-global".to_string(),
            PolicyKind::DmdcLocal => "dmdc-local".to_string(),
            PolicyKind::DmdcCoherent => "dmdc-coherent".to_string(),
            PolicyKind::DmdcNoSafeLoads => "dmdc-no-safe-loads".to_string(),
            PolicyKind::CheckingQueue { entries } => format!("queue-{entries}"),
        }
    }

    /// Parses a [`PolicyKind::token`] (plus the `dmdc` alias for
    /// `dmdc-global`).
    pub fn parse_token(name: &str) -> Result<PolicyKind, String> {
        Ok(match name {
            "baseline" => PolicyKind::Baseline,
            "baseline-coherent" => PolicyKind::BaselineCoherent,
            "dmdc-global" | "dmdc" => PolicyKind::DmdcGlobal,
            "dmdc-local" => PolicyKind::DmdcLocal,
            "dmdc-coherent" => PolicyKind::DmdcCoherent,
            "dmdc-no-safe-loads" => PolicyKind::DmdcNoSafeLoads,
            other => {
                if let Some(regs) = other.strip_prefix("yla-line-") {
                    let regs: u32 = regs
                        .parse()
                        .map_err(|_| format!("bad YLA count in `{other}`"))?;
                    PolicyKind::Yla {
                        regs,
                        line_interleaved: true,
                    }
                } else if let Some(regs) = other.strip_prefix("yla-") {
                    let regs: u32 = regs
                        .parse()
                        .map_err(|_| format!("bad YLA count in `{other}`"))?;
                    PolicyKind::Yla {
                        regs,
                        line_interleaved: false,
                    }
                } else if let Some(entries) = other.strip_prefix("bloom-") {
                    let entries: u32 = entries
                        .parse()
                        .map_err(|_| format!("bad bloom size in `{other}`"))?;
                    PolicyKind::Bloom { entries }
                } else if let Some(entries) = other.strip_prefix("queue-") {
                    let entries: u32 = entries
                        .parse()
                        .map_err(|_| format!("bad queue size in `{other}`"))?;
                    PolicyKind::CheckingQueue { entries }
                } else {
                    return Err(format!("unknown policy `{other}` (see `dmdc list`)"));
                }
            }
        })
    }

    /// The energy-model geometry matching this design.
    pub fn geometry(&self, config: &CoreConfig) -> StructureGeometry {
        match *self {
            PolicyKind::Baseline | PolicyKind::BaselineCoherent => {
                StructureGeometry::conventional(config)
            }
            PolicyKind::Yla { regs, .. } => StructureGeometry::yla_filtered(config, regs),
            PolicyKind::Bloom { entries } => StructureGeometry::bloom_filtered(config, entries),
            PolicyKind::DmdcGlobal | PolicyKind::DmdcLocal | PolicyKind::DmdcNoSafeLoads => {
                StructureGeometry::dmdc(config, 8)
            }
            PolicyKind::DmdcCoherent => StructureGeometry::dmdc(config, 16),
            PolicyKind::CheckingQueue { entries } => {
                StructureGeometry::checking_queue(config, entries, 8)
            }
        }
    }
}

/// One machine/policy/options combination to run every workload under —
/// one column of an experiment's cell matrix.
pub type Variant = (CoreConfig, PolicyKind, SimOptions);

/// An experiment's planned cell matrix: every workload crossed with every
/// variant. The flat spec list is variant-major (all workloads under
/// variant 0, then variant 1, ...), matching the chunk layout reducers
/// consume.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload set (one oracle emulation each, shared across
    /// variants).
    pub workloads: Vec<Workload>,
    /// The variants, in output order.
    pub variants: Vec<Variant>,
}

impl Plan {
    /// Plans `variants` over `workloads`.
    pub fn matrix(workloads: Vec<Workload>, variants: Vec<Variant>) -> Plan {
        Plan {
            workloads,
            variants,
        }
    }

    /// Gives every variant that does not carry its own sampling spec
    /// `spec` — before any spec description or cache key is derived from
    /// them, so sampled and exact cells never collide.
    pub fn sampled(mut self, spec: SampleSpec) -> Plan {
        if spec.enabled() {
            for (_, _, opts) in &mut self.variants {
                if !opts.sampling.enabled() {
                    opts.sampling = spec;
                }
            }
        }
        self
    }

    /// Total number of cells (`workloads × variants`).
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.variants.len()
    }

    /// The flat, variant-major spec list.
    pub fn specs(&self) -> Vec<RunSpec> {
        self.variants
            .iter()
            .flat_map(|(config, kind, opts)| {
                (0..self.workloads.len()).map(move |i| RunSpec {
                    workload: i,
                    config: config.clone(),
                    policy: kind.clone(),
                    opts: *opts,
                })
            })
            .collect()
    }
}

/// One paper artifact as a registry entry: plans its cell matrix at a
/// scale and reduces the resulting cells to a [`Report`].
///
/// `reduce` is a pure function of the cells (plus the entry's own
/// constants), so cells may come from live simulation, the parallel
/// worker pool or the persistent cell cache interchangeably.
pub trait Experiment: Sync {
    /// Stable registry id (`"fig2"`, `"table6"`, `"ablation-queue"`, ...).
    fn id(&self) -> &'static str;

    /// Which paper table/figure/section this regenerates.
    fn paper_ref(&self) -> &'static str;

    /// The full cell matrix at `scale`.
    fn plan(&self, scale: Scale) -> Plan;

    /// Reduces cells (flat, in [`Plan::specs`] order) to the rendered
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not have the planned matrix shape.
    fn reduce(&self, cells: &[CellResult]) -> Report;
}

/// Every paper artifact, in the order `dmdc experiment all` prints them.
pub fn registry() -> &'static [&'static dyn Experiment] {
    &[
        &Fig2Exp,
        &Fig3Exp,
        &Fig4Exp,
        &Fig5Exp,
        &Table2Exp,
        &Table3Exp,
        &Table4Exp,
        &Table5Exp,
        &Table6Exp,
        &MulticoreExp,
        &CheckingQueueAblationExp,
        &TableSizeAblationExp,
        &SafeLoadAblationExp,
        &SqFilterAblationExp,
        &YlaEnergyExp,
    ]
}

/// The ablation subset (the historical `dmdc experiment ablations`
/// output, in order).
pub const ABLATION_IDS: [&str; 5] = [
    "ablation-queue",
    "ablation-table-size",
    "ablation-safe-loads",
    "ablation-sq-filter",
    "yla-energy",
];

/// Looks up a registry entry by id.
pub fn find_experiment(id: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.id() == id)
}

/// Stable scale token (`smoke`/`default`/`large`/`full`).
pub fn scale_token(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Default => "default",
        Scale::Large => "large",
        Scale::Full => "full",
    }
}

/// Parses a [`scale_token`].
pub fn parse_scale(token: &str) -> Result<Scale, String> {
    match token {
        "smoke" => Ok(Scale::Smoke),
        "default" => Ok(Scale::Default),
        "large" => Ok(Scale::Large),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale `{other}`")),
    }
}

/// Parses a machine-configuration token (`1`, `2` or `3`, the paper's
/// Table 1 configs).
pub fn parse_config(token: &str) -> Result<CoreConfig, String> {
    match token {
        "1" => Ok(CoreConfig::config1()),
        "2" => Ok(CoreConfig::config2()),
        "3" => Ok(CoreConfig::config3()),
        other => Err(format!("unknown config `{other}` (1, 2 or 3)")),
    }
}

/// Materializes a workload by name at `scale`: a suite kernel, or the
/// parameterized `synthetic` kernel.
pub fn find_workload(name: &str, scale: Scale) -> Result<Workload, String> {
    if name == "synthetic" {
        return Ok(SyntheticKernel::new(20_000 * scale.factor())
            .branch_noise(true)
            .build());
    }
    full_suite(scale)
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}` (see `dmdc list`)"))
}

/// What to run: one cell, the `dmdc suite` matrix or a registry
/// experiment, at a scale, sampled or exact. It is the one description
/// of work every front end exchanges: `dmdc suite`/`experiment`/`submit`
/// build it from their flags, `dmdc serve` parses it from a `POST /jobs`
/// body and keys coalescing on it, and the `--distrib` coordinator
/// publishes it as `GET /plan`, from which every worker rebuilds the
/// identical cell list. [`Work::plan`] plans it, [`execute`] runs it and
/// [`Work::report`] renders its cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Work {
    /// What the work simulates.
    pub kind: WorkKind,
    /// Workload scale.
    pub scale: Scale,
    /// SMARTS-style sampled simulation instead of exact, for every cell.
    pub sampled: bool,
}

/// The three kinds of [`Work`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkKind {
    /// One (workload, policy, config) cell.
    Cell {
        /// Workload name (`histo`, `saxpy`, `synthetic`, ...).
        workload: String,
        /// Dependence-checking design.
        policy: PolicyKind,
        /// Machine configuration (1, 2 or 3).
        config: u8,
        /// Injected invalidations per kilocycle (0 = none).
        inval_rate: f64,
    },
    /// The `dmdc suite` matrix: every workload under one policy/config.
    Suite {
        /// Dependence-checking design.
        policy: PolicyKind,
        /// Machine configuration (1, 2 or 3).
        config: u8,
    },
    /// A registry experiment.
    Experiment {
        /// Registry id (`fig2`, `table6`, ...).
        id: String,
    },
}

impl Work {
    /// `kind` at `scale`, sampled by the rule every front end shares
    /// ([`spec_for`](crate::sampling::spec_for)): `forced` is `Some` for
    /// an explicit `--sampled`/`--exact` (or JSON `sampled`), `None` for
    /// the scale's default.
    pub fn new(kind: WorkKind, scale: Scale, forced: Option<bool>) -> Work {
        Work {
            kind,
            scale,
            sampled: crate::sampling::spec_for(scale, forced).enabled(),
        }
    }

    /// The work as a JSON object: the `spec` of job documents and the
    /// `plan` of the fleet's `GET /plan`.
    pub fn to_json(&self) -> String {
        let scale = scale_token(self.scale);
        let sampled = self.sampled;
        match &self.kind {
            WorkKind::Cell {
                workload,
                policy,
                config,
                inval_rate,
            } => format!(
                "{{\"kind\": \"cell\", \"workload\": \"{}\", \"policy\": \"{}\", \
                 \"config\": {config}, \"scale\": \"{scale}\", \"inval_rate\": {inval_rate}, \
                 \"sampled\": {sampled}}}",
                json::escape(workload),
                json::escape(&policy.token()),
            ),
            WorkKind::Suite { policy, config } => format!(
                "{{\"kind\": \"suite\", \"policy\": \"{}\", \"config\": {config}, \
                 \"scale\": \"{scale}\", \"sampled\": {sampled}}}",
                json::escape(&policy.token()),
            ),
            WorkKind::Experiment { id } => format!(
                "{{\"kind\": \"experiment\", \"id\": \"{}\", \"scale\": \"{scale}\", \
                 \"sampled\": {sampled}}}",
                json::escape(id),
            ),
        }
    }

    /// Parses and validates a work object (a `POST /jobs` body, a
    /// persisted job's `spec`, the fleet's `plan`). Absent members take
    /// the CLI's defaults, except that a missing `scale` means smoke:
    /// config 2, no invalidations, and sampling by
    /// [`spec_for`](crate::sampling::spec_for) at the scale.
    pub fn from_json(doc: &Json) -> Result<Work, String> {
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing `kind` (cell, suite or experiment)")?;
        let scale = parse_scale(
            doc.get("scale")
                .map(|s| s.as_str().ok_or("`scale` must be a string"))
                .transpose()?
                .unwrap_or("smoke"),
        )?;
        let forced = doc
            .get("sampled")
            .map(|v| v.as_bool().ok_or("`sampled` must be a boolean"))
            .transpose()?;
        let policy = || {
            PolicyKind::parse_token(
                doc.get("policy")
                    .and_then(Json::as_str)
                    .ok_or(format!("{kind} work needs a `policy`"))?,
            )
        };
        let config = || match doc.get("config") {
            None => Ok(2),
            Some(v) => match v.as_u64() {
                Some(c @ 1..=3) => Ok(c as u8),
                _ => Err("`config` must be 1, 2 or 3".to_string()),
            },
        };
        let kind = match kind {
            "cell" => {
                let workload = doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("cell work needs a `workload`")?
                    .to_string();
                // The name set is scale-independent, and smoke-scale
                // construction is cheap.
                if find_workload(&workload, Scale::Smoke).is_err() {
                    return Err(format!("unknown workload `{workload}`"));
                }
                let policy = policy()?;
                let config = config()?;
                let inval_rate = match doc.get("inval_rate") {
                    None => 0.0,
                    Some(v) => v
                        .as_f64()
                        .filter(|r| r.is_finite() && *r >= 0.0)
                        .ok_or("`inval_rate` must be a non-negative number")?,
                };
                WorkKind::Cell {
                    workload,
                    policy,
                    config,
                    inval_rate,
                }
            }
            "suite" => WorkKind::Suite {
                policy: policy()?,
                config: config()?,
            },
            "experiment" => {
                let id = doc
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("experiment work needs an `id`")?;
                registered(id)?;
                WorkKind::Experiment { id: id.to_string() }
            }
            other => {
                return Err(format!(
                    "unknown work kind `{other}` (cell, suite or experiment)"
                ))
            }
        };
        Ok(Work::new(kind, scale, forced))
    }

    /// The coalescing key: fnv64 over the simulator fingerprint and
    /// [`Work::to_json`], which names everything that can influence the
    /// result.
    pub fn key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(default_fingerprint().as_bytes());
        h.write(b"\0");
        h.write(self.to_json().as_bytes());
        h.finish()
    }

    /// Plans the cell matrix this work names, with its sampling mode
    /// applied to every variant. Deterministic: a fleet's coordinator and
    /// workers get byte-identical spec lists, and a cell's cache key
    /// does not depend on which kind of work planned it.
    pub fn plan(&self) -> Result<Plan, String> {
        let plan = match &self.kind {
            WorkKind::Cell {
                workload,
                policy,
                config,
                inval_rate,
            } => {
                let opts = SimOptions {
                    inval_per_kcycle: *inval_rate,
                    ..SimOptions::default()
                };
                Plan::matrix(
                    vec![find_workload(workload, self.scale)?],
                    vec![(core_config(*config)?, policy.clone(), opts)],
                )
            }
            WorkKind::Suite { policy, config } => {
                let variants = vec![(core_config(*config)?, policy.clone(), SimOptions::default())];
                Plan::matrix(full_suite(self.scale), variants)
            }
            WorkKind::Experiment { id } => registered(id)?.plan(self.scale),
        };
        Ok(plan.sampled(crate::sampling::spec_for(self.scale, Some(self.sampled))))
    }

    /// Renders the executed plan's cells (in [`Plan::specs`] order, a
    /// failed cell as a `None` slot plus its [`CellFailure`]): the
    /// per-cell table for a cell or suite, with any quarantined cells
    /// listed under it, or the experiment's reduced tables — or, when
    /// any cell was quarantined, only its failures, since a partial
    /// matrix cannot be reduced honestly.
    pub fn report(
        &self,
        cells: Vec<Option<CellResult>>,
        failures: Vec<CellFailure>,
    ) -> Result<Report, String> {
        let mut report = match &self.kind {
            WorkKind::Cell {
                workload,
                policy,
                config,
                ..
            } => {
                let title = format!(
                    "cell {workload} under {policy:?} on {}",
                    core_config(*config)?.name
                );
                Report::single("cell", Table::cells(title, cells.iter().flatten()))
            }
            WorkKind::Suite { policy, config } => {
                let title = format!("suite under {policy:?} on {}", core_config(*config)?.name);
                Report::single("suite", Table::cells(title, cells.iter().flatten()))
            }
            WorkKind::Experiment { id } => {
                let exp = registered(id)?;
                if failures.is_empty() {
                    return Ok(exp.reduce(&cells.into_iter().flatten().collect::<Vec<_>>()));
                }
                Report::new(exp.id())
            }
        };
        for f in failures {
            report.push_failure(f);
        }
        Ok(report)
    }
}

/// The machine configuration a [`Work`] numbers (1, 2 or 3).
fn core_config(config: u8) -> Result<CoreConfig, String> {
    parse_config(&config.to_string())
}

/// The registry entry `id` names.
fn registered(id: &str) -> Result<&'static dyn Experiment, String> {
    find_experiment(id).ok_or_else(|| format!("unknown experiment `{id}` (see `dmdc list`)"))
}

/// Runs `work` end to end under `ctx` — plan → run → report — on this
/// process's engine, or with `distrib` across a worker fleet; the report
/// is byte-identical either way. This is the one path of `dmdc suite`,
/// every `dmdc experiment` id and every daemon job.
///
/// Cells that exhaust their retries are quarantined into the report (see
/// [`Work::report`]), and the process lives on; `Err` means the work
/// could not run at all (an unknown id, a fleet that could not start).
pub fn execute(
    ctx: &Context,
    work: &Work,
    distrib: Option<&DistribOptions>,
) -> Result<Report, String> {
    let (cells, failures) = match distrib {
        Some(opts) => crate::distrib::execute_plan_distributed(ctx, work, opts)?,
        None => execute_plan(ctx, &work.plan()?),
    };
    work.report(cells, failures)
}

/// Executes a plan's cells through one engine, logging the engine's
/// sharing counters to stderr (stdout stays reserved for the tables).
/// Failed cells come back as `None` slots plus their [`CellFailure`]s.
fn execute_plan(ctx: &Context, plan: &Plan) -> (Vec<Option<CellResult>>, Vec<CellFailure>) {
    let engine = Engine::new(ctx, &plan.workloads);
    let specs = plan.specs();
    let (cells, failures) = engine.run_all_recovered(&specs);
    log_engine(&engine, specs.len());
    (cells, failures)
}

fn log_engine(engine: &Engine<'_>, cells: usize) {
    let (hits, misses) = engine.oracle_stats();
    eprintln!(
        "[runner] jobs={} cells={cells} oracle: {misses} emulations, {hits} cache hits",
        engine.jobs(),
    );
    if let Some(c) = engine.cache_counters() {
        eprintln!(
            "[cache] cells: {} hits, {} misses, {} stored",
            c.hits, c.misses, c.stores
        );
    }
}

/// One verified simulation cell. See [`CellResult`]; this free function
/// is the single execution funnel both the serial path and the engine's
/// workers use.
///
/// Every way the cell can go wrong — a simulator error, a workload the
/// oracle cannot verify, an architectural-state divergence, an auditor
/// violation — comes back as a structured [`CellError`] instead of a
/// panic, so the engine's fault-tolerant layer can retry or quarantine
/// the cell without killing the process.
pub(crate) fn execute_verified(
    ctx: &Context,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    mut opts: SimOptions,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<CellResult, CellError> {
    if ctx.profile.is_some() {
        opts.profile = true;
    }
    if opts.sampling.enabled() {
        return crate::sampling::execute_sampled(ctx, workload, config, policy_kind, opts, oracle);
    }
    execute_exact(ctx, workload, config, policy_kind, opts, oracle)
}

/// The exact (every-instruction) execution path: one detailed simulation,
/// verified against the emulator reference when it halts. Also the
/// sampling engine's fallback for populations too small to sample.
pub(crate) fn execute_exact(
    ctx: &Context,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<CellResult, CellError> {
    let policy = policy_kind.build(config);
    let mut sim = Simulator::new(&workload.program, config.clone(), policy);
    let result = sim.run(opts).map_err(|e| {
        CellError::new(
            FailureKind::SimError,
            format!(
                "{} under {policy_kind:?} on {}: {e}",
                workload.name, config.name
            ),
        )
    })?;
    verify_exact(workload, config, policy_kind, &result, oracle)?;
    if let Some(profile) = &result.profile {
        ctx.record_profile(profile, &result.stats);
    }
    Ok(CellResult {
        workload: workload.name.to_string(),
        group: workload.group,
        stats: result.stats,
    })
}

/// Checks a finished exact run the way every verified path does: a
/// halting run's final state must equal the functional emulator's
/// (`oracle` gives its `(checksum, retired)`), and the invariant auditor,
/// when compiled in, must have found nothing. The engine's cells and
/// `dmdc run --exact`, which drives the simulator itself to keep its
/// trace, both call it.
pub fn verify_exact(
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    result: &SimResult,
    oracle: impl FnOnce() -> Result<(u64, u64), String>,
) -> Result<(), CellError> {
    if result.halted {
        let (expected, _retired) =
            oracle().map_err(|e| CellError::new(FailureKind::OracleMustHalt, e))?;
        if result.checksum != expected {
            return Err(CellError::new(
                FailureKind::StateDivergence,
                format!(
                    "golden-state mismatch: {} under {policy_kind:?} on {}: simulated {:#x}, emulator {expected:#x}",
                    workload.name, config.name, result.checksum
                ),
            ));
        }
    }
    if let Some(audit) = &result.audit {
        if !audit.is_clean() {
            return Err(CellError::new(
                FailureKind::Audit,
                format!(
                    "invariant auditor: {} under {policy_kind:?} on {}:\n{}",
                    workload.name,
                    config.name,
                    audit.render()
                ),
            ));
        }
    }
    Ok(())
}

/// Emulates `workload` to its halt: the `(checksum, retired)` reference
/// a standalone run is verified against.
pub fn emulate(workload: &Workload) -> Result<(u64, u64), String> {
    let mut emu = Emulator::new(&workload.program);
    let retired = emu
        .run(u64::MAX)
        .map_err(|e| format!("{} must halt under emulation: {e}", workload.name))?;
    Ok((emu.state_checksum(), retired))
}

/// Runs `workload` under `policy_kind` on `config`, verifying the final
/// architectural state against the functional emulator when the run halts.
///
/// This is the standalone single-run entry point (correctness tests,
/// examples), under a fresh exact [`Context`] with nothing installed.
/// Experiments instead batch their cells through
/// [`crate::runner::Engine`], which memoizes the emulator oracle across
/// cells and consults the cell cache; here each call emulates afresh and
/// nothing is cached.
///
/// # Panics
///
/// Panics if the simulation's architectural state diverges from the
/// emulator — a standalone caller has nowhere to surface a structured
/// failure, so this stays fatal. The engine's
/// [`try_run_cell`](crate::runner::Engine::try_run_cell) path returns the
/// same condition as a [`CellFailure`] instead.
pub fn run_workload(
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
) -> CellResult {
    run_workload_in(&Context::new(), workload, config, policy_kind, opts)
}

/// [`run_workload`] under `ctx`: a sampled run consults the context's
/// checkpoint store and checkpoint memo, and reports into its profile
/// sink and recovery counters (CLI `dmdc run --sampled`).
///
/// # Panics
///
/// Panics like [`run_workload`].
pub fn run_workload_in(
    ctx: &Context,
    workload: &Workload,
    config: &CoreConfig,
    policy_kind: &PolicyKind,
    opts: SimOptions,
) -> CellResult {
    execute_verified(ctx, workload, config, policy_kind, opts, || {
        emulate(workload)
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Aggregates `f` over the cells of one suite group.
pub(crate) fn group_stat<F: Fn(&CellResult) -> f64>(
    cells: &[CellResult],
    group: Group,
    f: F,
) -> GroupStat {
    let vals: Vec<f64> = cells.iter().filter(|r| r.group == group).map(f).collect();
    GroupStat::of(&vals)
}

/// Like [`group_stat`], but also propagates per-cell sampling CIs: `ci`
/// extracts the 95% half-width the sampling engine attached to a sampled
/// cell (exact cells return `None` and contribute zero uncertainty). The
/// group stat carries a CI iff at least one cell was sampled, so exact
/// runs render byte-identically to before.
pub(crate) fn group_stat_ci<F, C>(cells: &[CellResult], group: Group, f: F, ci: C) -> GroupStat
where
    F: Fn(&CellResult) -> f64,
    C: Fn(&CellResult) -> Option<f64>,
{
    let picked: Vec<&CellResult> = cells.iter().filter(|r| r.group == group).collect();
    let vals: Vec<f64> = picked.iter().map(|r| f(r)).collect();
    let cis: Vec<Option<f64>> = picked.iter().map(|r| ci(r)).collect();
    GroupStat::of_ci(&vals, &cis)
}

/// Runs every workload under each variant through one shared engine,
/// returning one chunk of cells per variant, each in workload order. The
/// `_on` experiment functions use this; registry entries go through
/// [`execute`], which executes the identical matrix as one flat
/// plan.
///
/// # Panics
///
/// Panics if any cell is quarantined — the typed `*_on` entry points
/// return bare tables with nowhere to surface structured failures.
pub(crate) fn run_matrix(
    ctx: &Context,
    workloads: &[Workload],
    variants: &[Variant],
) -> Vec<Vec<CellResult>> {
    let plan = Plan::matrix(workloads.to_vec(), variants.to_vec()).sampled(ctx.sampling());
    let (cells, failures) = execute_plan(ctx, &plan);
    if let Some(f) = failures.first() {
        panic!(
            "cell {} quarantined after {} attempts: [{}] {}",
            f.workload, f.attempts, f.kind, f.detail
        );
    }
    let cells: Vec<CellResult> = cells
        .into_iter()
        .map(|c| c.expect("no failures, so every cell is present"))
        .collect();
    chunk_by_variants(&cells, variants.len())
}

/// Splits a flat, variant-major cell list into per-variant chunks.
///
/// # Panics
///
/// Panics if `cells` does not divide evenly into `n_variants` chunks.
pub(crate) fn chunk_by_variants(cells: &[CellResult], n_variants: usize) -> Vec<Vec<CellResult>> {
    assert!(n_variants > 0, "an experiment needs at least one variant");
    assert_eq!(
        cells.len() % n_variants,
        0,
        "{} cells do not form a {n_variants}-variant matrix",
        cells.len()
    );
    let per = cells.len() / n_variants;
    cells.chunks(per).map(<[CellResult]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, policy: PolicyKind, config: u8, inval_rate: f64) -> WorkKind {
        WorkKind::Cell {
            workload: workload.to_string(),
            policy,
            config,
            inval_rate,
        }
    }

    /// Every kind of work round-trips through its one JSON form, keys on
    /// it (the sampling mode included), and plans under its sampling mode
    /// exactly the specs built by hand here: a one-cell job (whose cache
    /// key must not move), `dmdc suite`'s matrix and the registry's
    /// experiment matrix.
    #[test]
    fn every_kind_of_work_roundtrips_keys_and_plans() {
        let yla = PolicyKind::Yla {
            regs: 8,
            line_interleaved: true,
        };
        let suite = |policy| WorkKind::Suite { policy, config: 2 };
        let fig2 = WorkKind::Experiment {
            id: "fig2".to_string(),
        };
        let (config2, config3) = (CoreConfig::config2(), CoreConfig::config3());
        let exact = SimOptions::default();
        let sampled = SimOptions {
            sampling: SampleSpec::standard(),
            ..exact
        };
        let by_hand = |workload, config: &CoreConfig, policy, opts| RunSpec {
            workload,
            config: config.clone(),
            policy,
            opts,
        };
        let smoke_suite = full_suite(Scale::Smoke).len();
        let histo = cell("histo", PolicyKind::DmdcGlobal, 2, 0.0);
        let synthetic = cell("synthetic", yla.clone(), 3, 2.5);
        let cases: Vec<(Work, Vec<RunSpec>)> = vec![
            (
                Work::new(histo, Scale::Smoke, None),
                vec![by_hand(0, &config2, PolicyKind::DmdcGlobal, exact)],
            ),
            (
                Work::new(synthetic, Scale::Default, Some(true)),
                vec![by_hand(
                    0,
                    &config3,
                    yla,
                    SimOptions {
                        inval_per_kcycle: 2.5,
                        ..sampled
                    },
                )],
            ),
            (
                Work::new(suite(PolicyKind::DmdcGlobal), Scale::Default, Some(true)),
                (0..full_suite(Scale::Default).len())
                    .map(|i| by_hand(i, &config2, PolicyKind::DmdcGlobal, sampled))
                    .collect(),
            ),
            (
                Work::new(suite(PolicyKind::Baseline), Scale::Smoke, None),
                (0..smoke_suite)
                    .map(|i| RunSpec::new(i, &config2, PolicyKind::Baseline))
                    .collect(),
            ),
            (
                Work::new(fig2, Scale::Smoke, None),
                find_experiment("fig2").unwrap().plan(Scale::Smoke).specs(),
            ),
        ];
        let mut keys = Vec::new();
        for (work, want) in &cases {
            let parsed = Work::from_json(&json::parse(&work.to_json()).unwrap()).unwrap();
            assert_eq!(&parsed, work);
            assert_eq!(parsed.key(), work.key());
            let flipped = Work {
                sampled: !work.sampled,
                ..work.clone()
            };
            assert_ne!(
                flipped.key(),
                work.key(),
                "{work:?}: the key covers `sampled`"
            );
            keys.push(work.key());

            let plan = work.plan().unwrap();
            let planned: Vec<String> = plan.specs().iter().map(RunSpec::desc).collect();
            let want: Vec<String> = want.iter().map(RunSpec::desc).collect();
            assert_eq!(planned, want, "{work:?} planned other cells");
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cases.len(), "distinct works key apart");
        assert!(Work::from_json(&json::parse("{}").unwrap()).is_err());
        let plan = cases[3].0.plan().unwrap();
        assert_eq!(
            (plan.variants.len(), plan.workloads.len()),
            (1, smoke_suite)
        );
    }

    /// A body without `sampled` samples as `dmdc` does at its scale, and
    /// one without `scale` is smoke: `dmdc submit --experiment fig2
    /// --scale full` samples in the daemon as `dmdc experiment fig2
    /// --scale full` does on the CLI.
    #[test]
    fn absent_members_follow_the_cli_defaults() {
        for (body, scale, sampled) in [
            (
                r#"{"kind": "experiment", "id": "fig2", "scale": "full"}"#,
                Scale::Full,
                true,
            ),
            (
                r#"{"kind": "experiment", "id": "fig2", "scale": "smoke"}"#,
                Scale::Smoke,
                false,
            ),
            (
                r#"{"kind": "cell", "workload": "histo", "policy": "baseline", "scale": "full"}"#,
                Scale::Full,
                true,
            ),
            (
                r#"{"kind": "suite", "policy": "baseline"}"#,
                Scale::Smoke,
                false,
            ),
        ] {
            let work = Work::from_json(&json::parse(body).unwrap()).unwrap();
            assert_eq!((work.scale, work.sampled), (scale, sampled), "{body}");
            let want = crate::sampling::spec_for(scale, Some(sampled));
            let specs = work.plan().unwrap().specs();
            assert!(specs.iter().all(|s| s.opts.sampling == want), "{body}");
        }
    }
}
