//! Figure 10 — 2-way joins on DBLP.
//!
//! (a) the work of the backward algorithms (and of F-BJ at λ = 0.2) as a
//! function of the decay factor λ; (b) the fraction of `Q` pruned in each of the first four
//! iterations of B-IDJ-X vs B-IDJ-Y at λ = 0.7.  The paper expects the `X`
//! bound to degenerate towards B-BJ as λ grows and the `Y` bound not to.
//! The counters do not bear the second half out at every scale: on tiny
//! DBLP at λ = 0.8, B-IDJ-Y takes more walk steps than B-IDJ-X (2 841 vs
//! 2 765) and more than B-BJ (1 140), and neither bound prunes anything in
//! (b).

use dht_core::twoway::{bidj, BoundKind, TwoWayAlgorithm, TwoWayConfig};
use dht_datasets::Scale;
use dht_walks::DhtParams;

use crate::{report, workloads};

use super::{Claim, Outcome, TwoWayRuns};

fn set_cap(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 25,
        _ => 100,
    }
}

/// Runs both panels of Figure 10.
pub fn run(scale: Scale) -> Outcome {
    let dataset = workloads::dblp(scale);
    let mut runs = TwoWayRuns::new(&dataset, set_cap(scale));

    // (a) work vs λ.
    let lambdas: &[f64] = if scale == Scale::Tiny {
        &[0.2, 0.5, 0.8]
    } else {
        &[0.2, 0.4, 0.6, 0.8]
    };
    for &lambda in lambdas {
        let params = DhtParams::dht_lambda(lambda);
        let d = params.depth_for_epsilon(1e-6).expect("valid epsilon");
        let config = TwoWayConfig::new(params, d);
        // F-BJ (one forward walk per pair) runs at the paper's default λ
        // only: at λ = 0.8 it takes minutes on bench-scale DBLP.
        let forward = (lambda == 0.2).then_some(TwoWayAlgorithm::ForwardBasic);
        for algorithm in forward.into_iter().chain([
            TwoWayAlgorithm::BackwardBasic,
            TwoWayAlgorithm::BackwardIdjX,
            TwoWayAlgorithm::BackwardIdjY,
        ]) {
            runs.run(
                "(a)",
                format!("{lambda:.1} (d={d})"),
                algorithm,
                &config,
                50,
            );
        }
    }
    let mut report = report::heading("Figure 10 — 2-way join on DBLP");
    report.push_str(&runs.describe());
    report.push_str(&runs.table("(a)", "work vs λ", "lambda"));
    let mut claims = runs.claims();

    // (b) % of Q pruned per iteration at λ = 0.7; an iteration the run
    // never reached counts as everything pruned.
    let params = DhtParams::dht_lambda(0.7);
    let d = params.depth_for_epsilon(1e-6).expect("valid epsilon");
    let config = TwoWayConfig::new(params, d);
    let pruned = |bound| {
        let (p, q) = runs.sets();
        let out = bidj::top_k(&dataset.graph, &config, p, q, 50, bound, None);
        let fractions = out.stats.pruned_fraction_per_iteration();
        (0..4)
            .map(|i| fractions.get(i).copied().unwrap_or(1.0))
            .collect::<Vec<f64>>()
    };
    let (x, y) = (pruned(BoundKind::X), pruned(BoundKind::Y));
    let rows: Vec<Vec<String>> = (0..4)
        .map(|i| {
            let percent = |f: f64| format!("{:.1}", f * 100.0);
            vec![(i + 1).to_string(), percent(x[i]), percent(y[i])]
        })
        .collect();
    report.push_str(&format!(
        "\n(b) nodes pruned from Q (%) per iteration, λ = 0.7 (d = {d})\n{}",
        report::format_table(&["iteration", "B-IDJ-X", "B-IDJ-Y"], &rows)
    ));
    let listed: Vec<String> = (0..4)
        .map(|i| format!("iteration {} {:.3} vs {:.3}", i + 1, y[i], x[i]))
        .collect();
    claims.push(Claim::new(
        "y_prunes_no_later_than_x",
        "§VI-C, Fig. 10(b)",
        (0..4).all(|i| y[i] >= x[i]),
        format!(
            "pruned fraction of Q at λ = 0.7, Y ≥ X: {}",
            listed.join("; ")
        ),
    ));
    Outcome { report, claims }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny;

    #[test]
    fn tiny_report_contains_both_panels() {
        let report = &tiny("fig10").report;
        assert!(report.contains("(a) work vs λ"));
        assert!(report.contains("(b) nodes pruned"));
        assert!(report.contains("B-IDJ-Y"));
    }
}
