//! Table III — top-5 3-way joins on DBLP (triangle and chain query graphs).
//!
//! The paper lists the names of the DB / AI / SYS researchers returned by a
//! top-5 3-way join.  Real author names cannot be reproduced with synthetic
//! data, so the report prints the synthetic author labels; the property that
//! carries over is structural — the returned triples are groups of authors
//! that are strongly connected across the three areas, and the triangle and
//! chain query graphs return different rankings, which the experiment
//! checks as `triangle_and_chain_rank_differently`.

use dht_core::multiway::{NWayAlgorithm, NWayConfig};
use dht_core::{QueryCtx, QueryGraph};
use dht_datasets::Scale;

use crate::{report, workloads};

use super::{Claim, Outcome};

/// Runs the Table III experiment.
pub fn run(scale: Scale) -> Outcome {
    let dataset = workloads::dblp(scale);
    let sets = workloads::dblp_query_sets(&dataset, 3);
    let config = NWayConfig::paper_default().with_k(5);
    let algorithm = NWayAlgorithm::IncrementalPartialJoin { m: 50 };

    let mut out = String::new();
    out.push_str(&report::heading(
        "Table III — top-5 3-way join on DBLP (DB, AI, SYS)",
    ));
    out.push_str(&format!("{}\n", dataset.summary()));

    let mut rankings = Vec::new();
    for (label, query) in [
        ("Triangle", QueryGraph::triangle()),
        ("Chain", QueryGraph::chain(3)),
    ] {
        let result = algorithm
            .run_with_ctx(
                &dataset.graph,
                &config,
                &query,
                &sets,
                &mut QueryCtx::one_shot(),
            )
            .expect("table III query is valid");
        let mut rows = Vec::new();
        for (rank, answer) in result.answers.iter().enumerate() {
            rows.push(vec![
                (rank + 1).to_string(),
                dataset.graph.display_name(answer.nodes[0]),
                dataset.graph.display_name(answer.nodes[1]),
                dataset.graph.display_name(answer.nodes[2]),
                format!("{:.4}", answer.score),
            ]);
        }
        out.push_str(&format!(
            "\n{label} query graph\n{}",
            report::format_table(&["rank", "DB", "AI", "SYS", "MIN score"], &rows)
        ));
        let triples: Vec<Vec<_>> = result.answers.into_iter().map(|a| a.nodes).collect();
        rankings.push(triples);
    }
    let (triangle, chain) = (&rankings[0], &rankings[1]);
    let shared = triangle.iter().filter(|t| chain.contains(t)).count();
    let claim = Claim::new(
        "triangle_and_chain_rank_differently",
        "Table III",
        triangle != chain,
        format!(
            "triangle and chain top-{} rankings differ: {}; {shared} of {} triples shared",
            triangle.len(),
            triangle != chain,
            triangle.len()
        ),
    );
    Outcome {
        report: out,
        claims: vec![claim],
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny;

    #[test]
    fn tiny_report_has_both_query_graphs_and_five_ranks() {
        let report = &tiny("table3").report;
        assert!(report.contains("Triangle query graph"));
        assert!(report.contains("Chain query graph"));
        assert!(report.contains("rank"));
        // synthetic author labels from each area appear
        assert!(report.contains("DB-"));
        assert!(report.contains("AI-"));
        assert!(report.contains("SYS-"));
    }
}
