//! Figure 8 — efficiency of the n-way join algorithms on DBLP.
//!
//! The same four sweeps as Figure 7, on the (much larger) DBLP analogue.
//! As in the paper, AP "performs badly in most experiments" at this scale:
//! its forward inner join is only run at tiny scale for `n ≤ 3`, and the
//! runs that are cut have no row.

use dht_core::multiway::NWayAlgorithm;
use dht_datasets::Scale;

use crate::{report, workloads};

use super::{nway_sweeps, Outcome};

/// Runs the four sweeps of Figure 8.
pub fn run(scale: Scale) -> Outcome {
    let dataset = workloads::dblp(scale);
    let tiny = scale == Scale::Tiny;
    let baselines = |panel: &str, n: usize| {
        if tiny && panel == "(a)" && n <= 3 {
            vec![NWayAlgorithm::AllPairs]
        } else {
            Vec::new()
        }
    };
    let (tables, claims) = nway_sweeps(
        &dataset,
        |n| workloads::dblp_query_sets(&dataset, n),
        if tiny { 4 } else { 6 },
        baselines,
        &[0, 20, 50, 100, 200],
    );
    let mut report = report::heading("Figure 8 — n-way join on DBLP (chain query graphs)");
    report.push_str(&format!(
        "{}\nnode sets = top-{} authors per research area; k = m = 50; MIN aggregate\n{tables}",
        dataset.summary(),
        dataset.node_sets[0].len()
    ));
    Outcome { report, claims }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny;

    #[test]
    fn tiny_report_contains_all_four_panels() {
        let report = &tiny("fig8").report;
        assert!(report.contains("(a) work vs n"));
        assert!(report.contains("(b) work vs |EQ|"));
        assert!(report.contains("(c) work vs k"));
        assert!(report.contains("(d) work vs m"));
    }
}
