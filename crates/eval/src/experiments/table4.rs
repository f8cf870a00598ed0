//! Table IV — AUC scores for link prediction and 3-clique prediction on the
//! three datasets, checked as `joins_beat_chance`.

use dht_core::Aggregate;
use dht_datasets::split::clique_prediction_split;
use dht_datasets::{Dataset, Scale};
use dht_walks::DhtParams;

use crate::{cliquepred, report, workloads};

use super::{beats_chance, fig6, Outcome};

fn clique_cap(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 40,
        _ => 150,
    }
}

fn clique_auc(dataset: &Dataset, scale: Scale) -> Option<f64> {
    let (p, q, r) = workloads::clique_prediction_sets(dataset, clique_cap(scale));
    let split = clique_prediction_split(&dataset.graph, &p, &q, &r, 2014)
        .expect("split of a generated dataset cannot fail");
    if split.cliques.is_empty() {
        return None;
    }
    let params = DhtParams::paper_default();
    let result = cliquepred::evaluate(
        &dataset.graph,
        &split.test_graph,
        &p,
        &q,
        &r,
        &params,
        8,
        Aggregate::Min,
    );
    if result.positives == 0 || result.negatives == 0 {
        None
    } else {
        Some(result.auc())
    }
}

/// Link- and 3-clique-prediction AUC per dataset (`None`: the dataset has
/// no 3-clique spanning the three sets).
fn aucs(scale: Scale) -> Vec<(String, f64, Option<f64>)> {
    [
        workloads::yeast(scale),
        workloads::dblp(scale),
        workloads::youtube(scale),
    ]
    .iter()
    .map(|dataset| {
        let link = fig6::link_prediction(dataset, scale).auc();
        (dataset.name.clone(), link, clique_auc(dataset, scale))
    })
    .collect()
}

/// Runs the Table IV experiment.
pub fn run(scale: Scale) -> Outcome {
    let mut report = report::heading("Table IV — AUC for link- and 3-clique-prediction");
    let aucs = aucs(scale);
    let rows: Vec<Vec<String>> = aucs
        .iter()
        .map(|(name, link, clique)| {
            let clique = clique
                .map(report::rate)
                .unwrap_or_else(|| "n/a (no spanning 3-cliques)".to_string());
            vec![name.clone(), report::rate(*link), clique]
        })
        .collect();
    report.push_str(&report::format_table(
        &["dataset", "link-prediction", "3-clique-prediction"],
        &rows,
    ));
    let mut labelled = Vec::new();
    for (name, link, clique) in aucs {
        labelled.push((format!("{name} link"), link));
        labelled.extend(clique.map(|auc| (format!("{name} 3-clique"), auc)));
    }
    Outcome {
        report,
        claims: vec![beats_chance(&labelled)],
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny;
    use super::*;

    #[test]
    fn tiny_report_lists_every_dataset_with_an_auc() {
        let report = &tiny("table4").report;
        for needle in [
            "yeast",
            "dblp",
            "youtube",
            "link-prediction",
            "3-clique-prediction",
        ] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn tiny_aucs_are_pinned() {
        let pinned = [
            ("yeast", 0.9411320754716981, 0.9986131597511704),
            ("dblp", 0.933649289099526, 0.9928015660620477),
            ("youtube", 0.7589749058079193, 0.9328267996356241),
        ];
        let measured = aucs(Scale::Tiny);
        assert_eq!(measured.len(), pinned.len());
        for ((name, link, clique), (want, want_link, want_clique)) in
            measured.into_iter().zip(pinned)
        {
            assert_eq!(name, want);
            assert!((link - want_link).abs() < 1e-12, "{name} link {link}");
            let clique = clique.expect("every tiny dataset has spanning 3-cliques");
            assert!(
                (clique - want_clique).abs() < 1e-12,
                "{name} 3-clique {clique}"
            );
        }
    }

    #[test]
    fn link_prediction_auc_beats_chance_on_tiny_yeast() {
        let dataset = workloads::yeast(Scale::Tiny);
        let auc = fig6::link_prediction(&dataset, Scale::Tiny).auc();
        assert!(auc > 0.55, "AUC {auc} is not better than chance");
    }
}
