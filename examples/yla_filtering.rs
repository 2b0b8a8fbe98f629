//! Sweep the YLA register count and interleaving over the benchmark suite
//! and print the Figure 2 data (plus the bloom-filter comparison from
//! Figure 3).
//!
//! ```sh
//! cargo run --release --example yla_filtering
//! # smaller/faster:
//! DMDC_SCALE=smoke cargo run --release --example yla_filtering
//! ```

use dmdc::core::experiments::{fig2_on, fig3_on};
use dmdc::core::runner::Context;
use dmdc::ooo::CoreConfig;
use dmdc::workloads::{full_suite, Scale};

fn scale() -> Scale {
    match std::env::var("DMDC_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "smoke" => Scale::Smoke,
        "large" => Scale::Large,
        _ => Scale::Default,
    }
}

fn main() {
    let (ctx, suite, config) = (Context::new(), full_suite(scale()), CoreConfig::config2());
    println!("{}", fig2_on(&ctx, &suite, &config).render());
    println!("{}", fig3_on(&ctx, &suite, &config).render());
}
