//! # dht-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section VII).  Each experiment is a library function
//! returning the formatted report, so it can be invoked from its dedicated
//! binary (`cargo run -p dht-bench --release --bin fig7`), from the combined
//! `repro_all` binary, or asserted on by tests.
//!
//! | paper artefact | module | binary |
//! |---|---|---|
//! | Table III (top-5 3-way joins on DBLP) | [`experiments::table3`] | `table3` |
//! | Table IV (link / 3-clique prediction AUC) | [`experiments::table4`] | `table4` |
//! | Figure 6 (ROC curves, AUC vs λ) | [`experiments::fig6`] | `fig6` |
//! | Figure 7 (n-way joins on Yeast) | [`experiments::fig7`] | `fig7` |
//! | Figure 8 (n-way joins on DBLP) | [`experiments::fig8`] | `fig8` |
//! | Figure 9 (2-way joins on Yeast) | [`experiments::fig9`] | `fig9` |
//! | Figure 10 (2-way joins on DBLP) | [`experiments::fig10`] | `fig10` |
//!
//! Beside the paper artefacts the crate keeps one serving scenario the
//! repository's benchmark does not run: [`experiments::server_overload`],
//! well-behaved clients under hostile load.  Performance is measured by
//! the standalone `benchmark/` package (see `BENCHMARK.json`), not here.
//!
//! The experiment scale is chosen with the `DHT_SCALE` environment variable
//! (`tiny`, `bench` — the default, or `full`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod timing;
pub mod workloads;

use dht_datasets::Scale;

/// Parses a scale name (`tiny`, `bench`, `full`), case-insensitively.
pub fn parse_scale(name: &str) -> Option<Scale> {
    match name.to_lowercase().as_str() {
        "tiny" => Some(Scale::Tiny),
        "bench" => Some(Scale::Bench),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// Reads the experiment scale from the `DHT_SCALE` environment variable
/// (default: [`Scale::Bench`]).
pub fn scale_from_env() -> Scale {
    std::env::var("DHT_SCALE")
        .ok()
        .and_then(|name| parse_scale(&name))
        .unwrap_or(Scale::Bench)
}
