//! The paper's evaluation (Section VII), one module per table / figure.
//!
//! Every experiment returns an [`Outcome`]: the formatted report, with the
//! rows and series of the paper's artefact, and the [`Claim`]s the artefact
//! makes, both computed in one pass from the join algorithms' work counters
//! ([`TwoWayStats`], [`dht_core::NWayStats`]) and the AUCs.  Nothing reads a
//! clock: where the paper plots running time, the efficiency panels report
//! walk steps, pairs scored and walk invocations, so every number and every
//! verdict is a deterministic function of the scale.
//!
//! | paper artefact | module | claims |
//! |---|---|---|
//! | Table III (top-5 3-way joins on DBLP) | [`table3`] | `triangle_and_chain_rank_differently` |
//! | Table IV (link / 3-clique prediction AUC) | [`table4`] | `joins_beat_chance` |
//! | Figure 6 (ROC curves, AUC vs λ) | [`fig6`] | `joins_beat_chance` |
//! | Figure 7 (n-way joins on Yeast) | [`fig7`] | the n-way claims |
//! | Figure 8 (n-way joins on DBLP) | [`fig8`] | the n-way claims |
//! | Figure 9 (2-way joins on Yeast) | [`fig9`] | the two-way claims |
//! | Figure 10 (2-way joins on DBLP) | [`fig10`] | the two-way claims, `y_prunes_no_later_than_x` |
//!
//! The two-way claims are `bbj_one_walk_per_target`,
//! `y_scores_no_more_than_x` and `idj_y_walks_less_than_bbj`; the n-way
//! claims `pji_walks_no_more_than_pj`, `pji_walks_less_than_ap` and
//! `pj_walks_no_more_than_ap`.  A claim that two experiments check is
//! reported by both under one id.

pub mod fig10;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table3;
pub mod table4;

use std::collections::BTreeSet;

use dht_core::multiway::{NWayAlgorithm, NWayConfig};
use dht_core::twoway::{TwoWayAlgorithm, TwoWayConfig};
use dht_core::{QueryGraph, TwoWayStats};
use dht_datasets::{Dataset, Scale};
use dht_graph::NodeSet;

use crate::{report, workloads};

/// One of the paper's claims, checked against the counters of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable identifier, e.g. `bbj_one_walk_per_target`.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub paper_ref: &'static str,
    /// Whether the run bears the claim out.
    pub holds: bool,
    /// The numbers compared, so the verdict can be checked by reading it.
    pub evidence: String,
}

impl Claim {
    fn new(id: &'static str, paper_ref: &'static str, holds: bool, evidence: String) -> Self {
        Claim {
            id,
            paper_ref,
            holds,
            evidence,
        }
    }

    /// One line: verdict, id, paper reference and evidence.
    pub fn render(&self) -> String {
        let verdict = if self.holds { "holds" } else { "FAILS" };
        format!(
            "[{verdict}] {} ({}): {}\n",
            self.id, self.paper_ref, self.evidence
        )
    }
}

/// What one experiment returns: its report and the claims it checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The formatted tables.
    pub report: String,
    /// The claims, in a fixed order.
    pub claims: Vec<Claim>,
}

impl Outcome {
    /// The report followed by one line per claim.
    pub fn render(&self) -> String {
        let mut out = self.report.clone();
        out.push_str("\nclaims\n");
        for claim in &self.claims {
            out.push_str(&claim.render());
        }
        out
    }
}

/// An experiment: its report and claims at a scale.
pub type Experiment = fn(Scale) -> Outcome;

/// Every experiment under the name `dht repro` accepts, in the paper's order.
pub const EXPERIMENTS: [(&str, Experiment); 7] = [
    ("table3", table3::run),
    ("table4", table4::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
];

/// Looks an experiment up by name (case-insensitively).
pub fn find(name: &str) -> Option<Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(name))
        .map(|&(_, run)| run)
}

/// One join run of an efficiency panel and the work it did.
pub(crate) struct Run {
    /// Panel label, e.g. `(b)`.
    panel: &'static str,
    /// The configuration the panel sweeps, e.g. `1e-3 (d=4)`.
    config: String,
    /// Algorithm name, as the paper writes it.
    algorithm: &'static str,
    /// Two-way work counters (summed over an n-way join's inner joins).
    stats: TwoWayStats,
    /// `getNextNodePair` calls of an n-way join (`None` for two-way runs).
    restarts: Option<u64>,
}

/// The two-way joins of one figure: `P ⋈ Q` over one dataset under the
/// configurations its panels sweep, with the work each run did.
pub(crate) struct TwoWayRuns<'a> {
    dataset: &'a Dataset,
    p: NodeSet,
    q: NodeSet,
    runs: Vec<Run>,
}

impl<'a> TwoWayRuns<'a> {
    /// Joins the dataset's link-prediction sets, capped at `cap` members.
    pub(crate) fn new(dataset: &'a Dataset, cap: usize) -> Self {
        let (p, q) = workloads::link_prediction_sets(dataset, cap);
        TwoWayRuns {
            dataset,
            p,
            q,
            runs: Vec::new(),
        }
    }

    /// Runs `algorithm` and records its counters under `panel` / `config`.
    pub(crate) fn run(
        &mut self,
        panel: &'static str,
        config: String,
        algorithm: TwoWayAlgorithm,
        join: &TwoWayConfig,
        k: usize,
    ) {
        let out = algorithm.top_k(&self.dataset.graph, join, &self.p, &self.q, k);
        self.runs.push(Run {
            panel,
            config,
            algorithm: algorithm.name(),
            stats: out.stats,
            restarts: None,
        });
    }

    /// The joined sets `P` and `Q`.
    pub(crate) fn sets(&self) -> (&NodeSet, &NodeSet) {
        (&self.p, &self.q)
    }

    /// The dataset and the two sets, for the report's header.
    pub(crate) fn describe(&self) -> String {
        let (p, q) = (&self.p, &self.q);
        format!(
            "{}\nP = {} ({} nodes), Q = {} ({} nodes), k = 50\n",
            self.dataset.summary(),
            p.name(),
            p.len(),
            q.name(),
            q.len()
        )
    }

    /// The table of one panel.
    pub(crate) fn table(&self, panel: &str, title: &str, key: &str) -> String {
        panel_table(title, key, &self.runs, panel)
    }

    /// The claims every two-way efficiency figure checks (Figures 9 and 10):
    ///
    /// * `bbj_one_walk_per_target` — B-BJ walks once per target, `|Q|`
    ///   times, where F-BJ walks once per pair, `|P|·|Q|` times (§VI-A);
    /// * `y_scores_no_more_than_x` — the `Y` bound leaves B-IDJ-Y no more
    ///   pairs to score than the `X` bound leaves B-IDJ-X;
    /// * `idj_y_walks_less_than_bbj` — B-IDJ-Y does less walk work than
    ///   B-BJ, the figures' headline.
    pub(crate) fn claims(&self) -> Vec<Claim> {
        let runs = &self.runs;
        let (q_len, pairs) = (self.q.len(), self.p.len() * self.q.len());
        // The distinct walk counts of an algorithm's runs, and how many ran.
        let walks = |algorithm: &str| {
            let counts: Vec<u64> = runs
                .iter()
                .filter(|run| run.algorithm == algorithm)
                .map(|run| run.stats.walk_invocations)
                .collect();
            (
                counts.iter().copied().collect::<BTreeSet<u64>>(),
                counts.len(),
            )
        };
        let ((bbj, bbj_runs), (fbj, fbj_runs)) = (walks("B-BJ"), walks("F-BJ"));
        let one_walk = Claim::new(
            "bbj_one_walk_per_target",
            "§VI-A",
            bbj == BTreeSet::from([q_len as u64]) && fbj == BTreeSet::from([pairs as u64]),
            format!(
                "B-BJ walks {bbj:?} vs |Q| = {q_len} (runs: {bbj_runs}); \
                 F-BJ walks {fbj:?} vs |P|·|Q| = {pairs} (runs: {fbj_runs})"
            ),
        );
        vec![
            one_walk,
            pairwise(
                "y_scores_no_more_than_x",
                "§VI-C",
                runs,
                ("B-IDJ-Y", "B-IDJ-X", "pairs scored, Y ≤ X"),
                |stats| stats.pairs_scored,
                |y, x| y <= x,
            ),
            pairwise(
                "idj_y_walks_less_than_bbj",
                "§VII, Figs. 9-10",
                runs,
                ("B-IDJ-Y", "B-BJ", "walk steps, Y < B-BJ"),
                |stats| stats.walk_steps,
                |y, bbj| y < bbj,
            ),
        ]
    }
}

/// Renders the runs of one panel, one row per (configuration, algorithm).
pub(crate) fn panel_table(title: &str, key: &str, runs: &[Run], panel: &str) -> String {
    let runs: Vec<&Run> = runs.iter().filter(|run| run.panel == panel).collect();
    let mut headers = vec![key, "algorithm", "walk steps", "pairs scored", "walks"];
    if runs.iter().any(|run| run.restarts.is_some()) {
        headers.push("restarts");
    }
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let mut row = vec![
                run.config.clone(),
                run.algorithm.to_string(),
                run.stats.walk_steps.to_string(),
                run.stats.pairs_scored.to_string(),
                run.stats.walk_invocations.to_string(),
            ];
            row.extend(run.restarts.map(|calls| calls.to_string()));
            row
        })
        .collect();
    format!(
        "\n{panel} {title}\n{}",
        report::format_table(&headers, &rows)
    )
}

/// The four sweeps of Figures 7 and 8 over one dataset, at `k = m = 50`
/// unless swept: (a) chain query graphs over `sets(n)` for `n` up to
/// `max_n`, (b) `|E_Q|` over three sets, (c) `k` and (d) `m` on a 3-way
/// chain.  PJ and PJ-i run everywhere; `baselines(panel, x)` names the NL /
/// AP runs the harness budget allows at sweep value `x` of panels (a) and
/// (b).  Returns the four tables and the n-way claims.
pub(crate) fn nway_sweeps(
    dataset: &Dataset,
    sets: impl Fn(usize) -> Vec<NodeSet>,
    max_n: usize,
    baselines: impl Fn(&str, usize) -> Vec<NWayAlgorithm>,
    ms: &[usize],
) -> (String, Vec<Claim>) {
    const M: usize = 50;
    let partial = |m| {
        [
            NWayAlgorithm::PartialJoin { m },
            NWayAlgorithm::IncrementalPartialJoin { m },
        ]
    };
    let default = NWayConfig::paper_default();
    let (three, chain) = (sets(3), QueryGraph::chain(3));
    let mut runs = Vec::new();
    let mut run = |panel,
                   config: usize,
                   algorithm: NWayAlgorithm,
                   join: &NWayConfig,
                   query: &QueryGraph,
                   sets: &[NodeSet]| {
        let out = algorithm
            .run(&dataset.graph, join, query, sets)
            .expect("experiment query graphs and node sets are valid");
        runs.push(Run {
            panel,
            config: config.to_string(),
            algorithm: algorithm.name(),
            stats: out.stats.two_way,
            restarts: Some(out.stats.next_pair_calls),
        });
    };
    for n in 2..=max_n {
        let (sets, query) = (sets(n), QueryGraph::chain(n));
        for algorithm in baselines("(a)", n).into_iter().chain(partial(M)) {
            run("(a)", n, algorithm, &default, &query, &sets);
        }
    }
    for edges in 2..=6 {
        let query = three_set_query_with_edges(edges);
        for algorithm in baselines("(b)", edges).into_iter().chain(partial(M)) {
            run("(b)", edges, algorithm, &default, &query, &three);
        }
    }
    for k in [10usize, 50, 100, 200] {
        let config = NWayConfig::paper_default().with_k(k);
        for algorithm in partial(M) {
            run("(c)", k, algorithm, &config, &chain, &three);
        }
    }
    for &m in ms {
        for algorithm in partial(m) {
            run("(d)", m, algorithm, &default, &chain, &three);
        }
    }
    let tables = [
        panel_table("work vs n", "n", &runs, "(a)"),
        panel_table("work vs |EQ| (3 node sets)", "|EQ|", &runs, "(b)"),
        panel_table(
            &format!("work vs k (3-way chain, m = {M})"),
            "k",
            &runs,
            "(c)",
        ),
        panel_table(
            &format!("work vs m (3-way chain, k = {M})"),
            "m",
            &runs,
            "(d)",
        ),
    ];
    (tables.concat(), nway_claims(&runs))
}

/// Compares algorithm `a` with `b` under `metric` in every panel row where
/// both ran; the claim holds when `ok(a, b)` holds on all of them (and there
/// is one).  `what` names the comparison in the evidence.
fn pairwise(
    id: &'static str,
    paper_ref: &'static str,
    runs: &[Run],
    (a, b, what): (&str, &str, &str),
    metric: fn(&TwoWayStats) -> u64,
    ok: fn(u64, u64) -> bool,
) -> Claim {
    let rows: Vec<(String, u64, u64)> = runs
        .iter()
        .filter(|run| run.algorithm == a)
        .filter_map(|x| {
            let y = runs
                .iter()
                .find(|y| y.algorithm == b && y.panel == x.panel && y.config == x.config)?;
            let label = format!("{} {}", x.panel, x.config);
            Some((label, metric(&x.stats), metric(&y.stats)))
        })
        .collect();
    let held = rows.iter().filter(|&&(_, x, y)| ok(x, y)).count();
    let listed: Vec<String> = rows
        .iter()
        .map(|(label, x, y)| format!("{label} {x} vs {y}"))
        .collect();
    let evidence = format!(
        "{a} vs {b} {what} on {held} of {} rows: {}",
        rows.len(),
        listed.join("; ")
    );
    Claim::new(
        id,
        paper_ref,
        !rows.is_empty() && held == rows.len(),
        evidence,
    )
}

/// The claims every n-way efficiency figure checks (Figures 7 and 8), in
/// walk steps on every row where both algorithms ran:
///
/// * `pji_walks_no_more_than_pj` — PJ-i's incremental deepening never walks
///   more than PJ's restarts of the two-way join (§VI-D);
/// * `pji_walks_less_than_ap` — PJ-i walks less than AP;
/// * `pj_walks_no_more_than_ap` — PJ walks no more than AP.
fn nway_claims(runs: &[Run]) -> Vec<Claim> {
    let steps = |stats: &TwoWayStats| stats.walk_steps;
    vec![
        pairwise(
            "pji_walks_no_more_than_pj",
            "§VI-D",
            runs,
            ("PJ-i", "PJ", "walk steps, PJ-i ≤ PJ"),
            steps,
            |pji, pj| pji <= pj,
        ),
        pairwise(
            "pji_walks_less_than_ap",
            "§VII, Figs. 7-8",
            runs,
            ("PJ-i", "AP", "walk steps, PJ-i < AP"),
            steps,
            |pji, ap| pji < ap,
        ),
        pairwise(
            "pj_walks_no_more_than_ap",
            "§IV, Figs. 7-8",
            runs,
            ("PJ", "AP", "walk steps, PJ ≤ AP"),
            steps,
            |pj, ap| pj <= ap,
        ),
    ]
}

/// `joins_beat_chance` over labelled AUCs (Table IV, Figure 6): every AUC
/// is above 0.5, the score of a random ranking.
pub(crate) fn beats_chance(aucs: &[(String, f64)]) -> Claim {
    let listed: Vec<String> = aucs
        .iter()
        .map(|(label, auc)| format!("{label} {}", report::rate(*auc)))
        .collect();
    Claim::new(
        "joins_beat_chance",
        "§VII-B, Table IV / Fig. 6",
        !aucs.is_empty() && aucs.iter().all(|&(_, auc)| auc > 0.5),
        format!("every AUC vs 0.5: {}", listed.join(", ")),
    )
}

/// Builds the query graph with three node sets and the requested number of
/// edges, used by the |E_Q| sweeps of Figures 7(b) and 8(b): 2 edges form a
/// chain, 3 a directed cycle, and 4–6 progressively add the reverse edges
/// until the full bidirectional triangle is reached.
fn three_set_query_with_edges(edges: usize) -> QueryGraph {
    let mut q = QueryGraph::new(3);
    let ordered = [(0usize, 1usize), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)];
    for &(a, b) in ordered.iter().take(edges.clamp(2, 6)) {
        q.add_edge(a, b).expect("hard-coded edges are valid");
    }
    q
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// Each experiment's tiny-scale outcome, computed once per test binary
    /// and shared by every test that reads it.
    pub(crate) fn tiny(name: &str) -> &'static Outcome {
        static RUNS: [OnceLock<Outcome>; 7] = [const { OnceLock::new() }; 7];
        let index = EXPERIMENTS
            .iter()
            .position(|(known, _)| *known == name)
            .expect("known experiment");
        RUNS[index].get_or_init(|| EXPERIMENTS[index].1(Scale::Tiny))
    }

    /// The claims that do not hold at tiny scale.  Each one is a finding
    /// about the implementation or the scale, not about the test: a claim
    /// that starts holding, or one that stops, fails the test below.
    const FALSE_AT_TINY: [&str; 2] = ["idj_y_walks_less_than_bbj", "pj_walks_no_more_than_ap"];

    #[test]
    fn tiny_verdicts_match_the_committed_findings() {
        let failing: BTreeSet<&str> = EXPERIMENTS
            .iter()
            .flat_map(|(name, _)| &tiny(name).claims)
            .filter(|claim| !claim.holds)
            .map(|claim| claim.id)
            .collect();
        assert_eq!(failing, FALSE_AT_TINY.into_iter().collect());
    }

    #[test]
    fn every_claim_prints_the_numbers_it_compares() {
        // (experiment, claim id, numbers its tiny-scale evidence compares)
        let expected: [(&str, &str, &[&str]); 16] = [
            (
                "table3",
                "triangle_and_chain_rank_differently",
                &["differ: true", "3 of 5"],
            ),
            (
                "table4",
                "joins_beat_chance",
                &["yeast link 0.9411", "youtube link 0.7590"],
            ),
            (
                "fig6",
                "joins_beat_chance",
                &["youtube 0.7590", "yeast DHT_e 0.9403"],
            ),
            (
                "fig7",
                "pji_walks_no_more_than_pj",
                &["(d) 10 524 vs 11736", "(c) 200 600 vs 16216"],
            ),
            ("fig7", "pji_walks_less_than_ap", &["(b) 6 1816 vs 19200"]),
            (
                "fig7",
                "pj_walks_no_more_than_ap",
                &["(b) 3 43220 vs 9600", "(b) 6 117584 vs 19200"],
            ),
            ("fig8", "pji_walks_no_more_than_pj", &["(d) 0 466 vs 9406"]),
            ("fig8", "pji_walks_less_than_ap", &["(a) 3 434 vs 3600"]),
            ("fig8", "pj_walks_no_more_than_ap", &["(a) 2 217 vs 1800"]),
            (
                "fig9",
                "bbj_one_walk_per_target",
                &["{25} vs |Q| = 25", "{625} vs |P|·|Q| = 625"],
            ),
            (
                "fig9",
                "y_scores_no_more_than_x",
                &["(b) 1e-3 (d=4) 1875 vs 1875", "(d) 100 2500 vs 2500"],
            ),
            (
                "fig9",
                "idj_y_walks_less_than_bbj",
                &["(a) default 327 vs 200", "(d) 10 195 vs 200"],
            ),
            (
                "fig10",
                "bbj_one_walk_per_target",
                &["{15} vs |Q| = 15", "{225} vs |P|·|Q| = 225"],
            ),
            (
                "fig10",
                "y_scores_no_more_than_x",
                &["(a) 0.8 (d=76) 1740 vs 1740"],
            ),
            (
                "fig10",
                "idj_y_walks_less_than_bbj",
                &["(a) 0.8 (d=76) 2841 vs 1140"],
            ),
            (
                "fig10",
                "y_prunes_no_later_than_x",
                &["iteration 4 0.000 vs 0.000"],
            ),
        ];
        let checked: usize = EXPERIMENTS
            .iter()
            .map(|(name, _)| tiny(name).claims.len())
            .sum();
        assert_eq!(checked, expected.len(), "a claim without expected evidence");
        for (name, id, numbers) in expected {
            let claim = tiny(name)
                .claims
                .iter()
                .find(|claim| claim.id == id)
                .unwrap_or_else(|| panic!("{name} reports no {id}"));
            for number in numbers {
                assert!(
                    claim.evidence.contains(number),
                    "{name} {id}: '{number}' missing from '{}'",
                    claim.evidence
                );
            }
        }
    }

    #[test]
    fn edge_sweep_query_graphs_have_the_requested_sizes() {
        for edges in 2..=6 {
            let q = three_set_query_with_edges(edges);
            assert_eq!(q.edge_count(), edges);
            assert!(q.is_connected());
        }
        // out-of-range requests are clamped to the connected range
        assert_eq!(three_set_query_with_edges(0).edge_count(), 2);
        assert_eq!(three_set_query_with_edges(10).edge_count(), 6);
    }
}
