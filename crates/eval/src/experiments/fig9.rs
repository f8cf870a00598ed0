//! Figure 9 — efficiency of the 2-way join algorithms on Yeast.
//!
//! Four panels: (a) all five algorithms at the default configuration,
//! (b) the backward algorithms vs the accuracy bound ε (which sets the walk
//! depth `d` through Lemma 1), (c) vs the decay factor λ, (d) vs `k`.
//! Where the paper plots seconds, every row reports the run's walk steps,
//! pairs scored and walk invocations.

use dht_core::twoway::{TwoWayAlgorithm, TwoWayConfig};
use dht_datasets::Scale;
use dht_walks::DhtParams;

use crate::{report, workloads};

use super::{Outcome, TwoWayRuns};

const BACKWARD: [TwoWayAlgorithm; 3] = [
    TwoWayAlgorithm::BackwardBasic,
    TwoWayAlgorithm::BackwardIdjX,
    TwoWayAlgorithm::BackwardIdjY,
];

fn set_cap(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 25,
        _ => 100,
    }
}

/// Runs the four panels of Figure 9.
pub fn run(scale: Scale) -> Outcome {
    let dataset = workloads::yeast(scale);
    let mut runs = TwoWayRuns::new(&dataset, set_cap(scale));

    // (a) all five algorithms at the paper defaults.
    let config = TwoWayConfig::paper_default();
    for algorithm in TwoWayAlgorithm::ALL {
        runs.run("(a)", "default".to_string(), algorithm, &config, 50);
    }
    // (b) backward algorithms vs ε.
    for exp in [3i32, 4, 5, 6, 7, 8] {
        let params = DhtParams::paper_default();
        let d = params
            .depth_for_epsilon(10f64.powi(-exp))
            .expect("valid epsilon");
        let config = TwoWayConfig::new(params, d);
        for algorithm in BACKWARD {
            runs.run("(b)", format!("1e-{exp} (d={d})"), algorithm, &config, 50);
        }
    }
    // (c) backward algorithms vs λ.
    for lambda in [0.2f64, 0.4, 0.6, 0.8] {
        let params = DhtParams::dht_lambda(lambda);
        let d = params.depth_for_epsilon(1e-6).expect("valid epsilon");
        let config = TwoWayConfig::new(params, d);
        for algorithm in BACKWARD {
            runs.run(
                "(c)",
                format!("{lambda:.1} (d={d})"),
                algorithm,
                &config,
                50,
            );
        }
    }
    // (d) backward algorithms vs k.
    let config = TwoWayConfig::paper_default();
    for k in [10usize, 20, 50, 75, 100] {
        for algorithm in BACKWARD {
            runs.run("(d)", k.to_string(), algorithm, &config, k);
        }
    }

    let mut report = report::heading("Figure 9 — 2-way join on Yeast");
    report.push_str(&runs.describe());
    report.push_str(&runs.table("(a)", "work per algorithm (λ = 0.2, ε = 1e-6)", "config"));
    report.push_str(&runs.table("(b)", "work vs ε", "epsilon"));
    report.push_str(&runs.table("(c)", "work vs λ", "lambda"));
    report.push_str(&runs.table("(d)", "work vs k", "k"));
    Outcome {
        report,
        claims: runs.claims(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny;

    #[test]
    fn tiny_report_contains_all_panels_and_algorithms() {
        let report = &tiny("fig9").report;
        for needle in [
            "(a) work",
            "(b) work",
            "(c) work",
            "(d) work",
            "F-BJ",
            "F-IDJ",
            "B-BJ",
            "B-IDJ-X",
            "B-IDJ-Y",
            "walk steps",
            "pairs scored",
        ] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }
}
