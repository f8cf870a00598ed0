//! Figure 6 — effectiveness of the 2-way join for link prediction.
//!
//! (a) ROC curves of the 2-way join link predictor on the three datasets;
//! (b) AUC as a function of the decay factor λ on Yeast, for `DHT_λ` and
//! `DHT_e` (the latter has no free λ, so it appears as a constant series, as
//! in the paper).  Every AUC is checked as `joins_beat_chance`.

use dht_datasets::split::link_prediction_split;
use dht_datasets::{Dataset, Scale};
use dht_walks::DhtParams;

use crate::linkpred::{self, LinkPrediction};
use crate::{report, workloads};

use super::{beats_chance, Outcome};

fn set_cap(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 40,
        _ => 200,
    }
}

/// The 2-way join link predictor on a dataset at the paper's defaults
/// (Table IV reads its AUC).  DBLP's paper split is temporal ("edges before
/// 2010"), approximated here by removing 30% of the cross-set edges; Yeast
/// and YouTube remove half, as in the paper.
pub(super) fn link_prediction(dataset: &Dataset, scale: Scale) -> LinkPrediction {
    let (p, q) = workloads::link_prediction_sets(dataset, set_cap(scale));
    let fraction = if dataset.name == "dblp" { 0.3 } else { 0.5 };
    let split = link_prediction_split(&dataset.graph, &p, &q, fraction, 2014)
        .expect("split of a generated dataset cannot fail");
    let params = DhtParams::paper_default();
    linkpred::evaluate(&dataset.graph, &split.test_graph, &p, &q, &params, 8)
}

/// AUC on Yeast of `DHT_e` and of `DHT_λ` at each of `lambdas`.
fn yeast_lambda_aucs(yeast: &Dataset, cap: usize, lambdas: &[f64]) -> (f64, Vec<f64>) {
    let (p, q) = workloads::link_prediction_sets(yeast, cap);
    let split = link_prediction_split(&yeast.graph, &p, &q, 0.5, 2014)
        .expect("split of a generated dataset cannot fail");
    let auc = |params: DhtParams| {
        let d = params.depth_for_epsilon(1e-6).expect("valid epsilon");
        linkpred::evaluate(&yeast.graph, &split.test_graph, &p, &q, &params, d).auc()
    };
    let per_lambda = lambdas
        .iter()
        .map(|&lambda| auc(DhtParams::dht_lambda(lambda)))
        .collect();
    (auc(DhtParams::dht_e()), per_lambda)
}

/// Runs both panels of Figure 6.
pub fn run(scale: Scale) -> Outcome {
    let cap = set_cap(scale);
    let mut out = String::new();
    out.push_str(&report::heading(
        "Figure 6 — link prediction with 2-way joins",
    ));

    // (a) ROC curves per dataset.
    out.push_str("\n(a) ROC curve samples (TPR at selected FPR levels)\n");
    let mut rows = Vec::new();
    let mut aucs = Vec::new();
    let datasets = [
        workloads::yeast(scale),
        workloads::dblp(scale),
        workloads::youtube(scale),
    ];
    for dataset in &datasets {
        let result = link_prediction(dataset, scale);
        let mut row = vec![dataset.name.clone()];
        for fpr in [0.05f64, 0.1, 0.2, 0.5] {
            row.push(report::rate(result.roc.tpr_at_fpr(fpr)));
        }
        row.push(report::rate(result.auc()));
        row.push(format!("{}", result.positives));
        aucs.push((dataset.name.clone(), result.auc()));
        rows.push(row);
    }
    out.push_str(&report::format_table(
        &[
            "dataset",
            "TPR@0.05",
            "TPR@0.1",
            "TPR@0.2",
            "TPR@0.5",
            "AUC",
            "positives",
        ],
        &rows,
    ));

    // (b) AUC vs λ on Yeast for DHT_λ and DHT_e.
    let lambdas: &[f64] = if scale == Scale::Tiny {
        &[0.2, 0.6]
    } else {
        &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let (auc_e, per_lambda) = yeast_lambda_aucs(&datasets[0], cap, lambdas);
    let rows: Vec<Vec<String>> = lambdas
        .iter()
        .zip(&per_lambda)
        .map(|(lambda, &auc)| {
            vec![
                format!("{lambda:.1}"),
                report::rate(auc),
                report::rate(auc_e),
            ]
        })
        .collect();
    out.push_str(&format!(
        "\n(b) AUC vs λ on Yeast\n{}",
        report::format_table(&["lambda", "DHT_lambda", "DHT_e"], &rows)
    ));
    for (lambda, auc) in lambdas.iter().zip(per_lambda) {
        aucs.push((format!("yeast DHT_λ {lambda:.1}"), auc));
    }
    aucs.push(("yeast DHT_e".to_string(), auc_e));
    Outcome {
        report: out,
        claims: vec![beats_chance(&aucs)],
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny;
    use super::*;

    #[test]
    fn tiny_report_lists_all_three_datasets() {
        let report = &tiny("fig6").report;
        assert!(report.contains("yeast"));
        assert!(report.contains("dblp"));
        assert!(report.contains("youtube"));
        assert!(report.contains("AUC"));
        assert!(report.contains("DHT_e"));
    }

    #[test]
    fn tiny_lambda_aucs_are_pinned() {
        let yeast = workloads::yeast(Scale::Tiny);
        let (auc_e, per_lambda) = yeast_lambda_aucs(&yeast, set_cap(Scale::Tiny), &[0.2, 0.6]);
        assert!((auc_e - 0.940251572327044).abs() < 1e-12, "DHT_e {auc_e}");
        for (auc, pinned) in per_lambda
            .into_iter()
            .zip([0.9411320754716981, 0.9410062893081761])
        {
            assert!((auc - pinned).abs() < 1e-12, "DHT_λ {auc}");
        }
    }
}
