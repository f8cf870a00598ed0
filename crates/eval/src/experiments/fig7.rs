//! Figure 7 — efficiency of the n-way join algorithms on Yeast.
//!
//! Four sweeps: (a) work vs `n` for NL / AP / PJ / PJ-i on chain query
//! graphs, (b) vs `|E_Q|` with three node sets, (c) vs `k`, (d) vs `m`.
//! NL is only executed at `n = 2` (the paper: it "cannot complete in a
//! reasonable time at n >= 3"), and AP — whose inner join is the paper's
//! F-BJ — only where the full forward computation stays within the harness
//! budget; a run that is cut has no row.

use dht_core::multiway::NWayAlgorithm;
use dht_datasets::Scale;

use crate::{report, workloads};

use super::{nway_sweeps, Outcome};

fn set_cap(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 20,
        _ => 60,
    }
}

/// Runs the four sweeps of Figure 7.
pub fn run(scale: Scale) -> Outcome {
    let dataset = workloads::yeast(scale);
    let cap = set_cap(scale);
    let tiny = scale == Scale::Tiny;
    let baselines = |panel: &str, x: usize| {
        let mut algorithms = Vec::new();
        if panel == "(a)" && x <= 2 {
            algorithms.push(NWayAlgorithm::NestedLoop);
        }
        let ap_up_to = if panel == "(a)" { 4 } else { 3 };
        if tiny || x <= ap_up_to {
            algorithms.push(NWayAlgorithm::AllPairs);
        }
        algorithms
    };
    let (tables, claims) = nway_sweeps(
        &dataset,
        |n| workloads::yeast_query_sets(&dataset, n, cap),
        if tiny { 4 } else { 7 },
        baselines,
        &[10, 20, 50, 100, 200, 500],
    );
    let mut report = report::heading("Figure 7 — n-way join on Yeast (chain query graphs)");
    report.push_str(&format!(
        "{}\nnode sets capped at {cap} members; k = m = 50; MIN aggregate\n{tables}",
        dataset.summary()
    ));
    Outcome { report, claims }
}

#[cfg(test)]
mod tests {
    use super::super::tests::tiny;

    #[test]
    fn tiny_report_contains_all_four_panels() {
        let report = &tiny("fig7").report;
        assert!(report.contains("(a) work vs n"));
        assert!(report.contains("(b) work vs |EQ|"));
        assert!(report.contains("(c) work vs k"));
        assert!(report.contains("(d) work vs m"));
        assert!(report.contains("PJ-i"));
        assert!(report.contains("restarts"));
    }
}
