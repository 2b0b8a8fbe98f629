//! Coherence-traffic study (paper §6.2.4 / Table 6): inject external
//! invalidations at increasing rates and watch DMDC's checking pressure,
//! false replays and slowdown respond.
//!
//! ```sh
//! cargo run --release --example invalidations
//! ```

use dmdc::core::experiments::{run_workload, table6_on, PolicyKind, DEFAULT_INVAL_RATES};
use dmdc::core::report::Table;
use dmdc::core::runner::Context;
use dmdc::ooo::{CoreConfig, SimOptions};
use dmdc::workloads::{full_suite, Scale, SyntheticKernel};

fn main() {
    let config = CoreConfig::config2();
    // A dependence-heavy synthetic kernel with a known footprint.
    let w = SyntheticKernel::new(60_000)
        .addr_bits(10)
        .store_load_gap(3)
        .branch_noise(true)
        .build();
    let base = run_workload(&w, &config, &PolicyKind::Baseline, SimOptions::default());

    let mut t = Table::new("DMDC under injected invalidations (synthetic kernel)");
    t.headers([
        "inv/1k cycles",
        "invalidations",
        "% cycles checking",
        "replays/1M",
        "slowdown",
    ]);
    for rate in [0.0, 1.0, 10.0, 100.0] {
        let opts = SimOptions {
            inval_per_kcycle: rate,
            inval_seed: 3,
            ..SimOptions::default()
        };
        let r = run_workload(&w, &config, &PolicyKind::DmdcCoherent, opts);
        t.row([
            format!("{rate:.0}"),
            r.stats.policy.invalidations.to_string(),
            format!(
                "{:.1}%",
                r.stats.policy.checking_mode_cycles as f64 / r.stats.cycles as f64 * 100.0
            ),
            format!("{:.1}", r.stats.per_million(r.stats.policy.replays.total())),
            format!(
                "{:+.2}%",
                (r.stats.cycles as f64 / base.stats.cycles as f64 - 1.0) * 100.0
            ),
        ]);
    }
    println!("{t}");
    println!("(Full-suite Table 6 regeneration: dmdc experiment table6)");

    // The paper's suite-level Table 6, at smoke scale so this example stays
    // quick; crank DMDC_SCALE for the real thing.
    if std::env::var("DMDC_TABLE6").is_ok() {
        let suite = full_suite(Scale::Smoke);
        let config = CoreConfig::config2();
        let table6 = table6_on(&Context::new(), &suite, &config, &DEFAULT_INVAL_RATES);
        println!("{}", table6.render());
    }
}
