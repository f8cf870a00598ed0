//! `dht repro` as a process: the tiny-scale run prints every panel of every
//! experiment and every claim with its verdict, and a wrong scale or
//! experiment name is a usage error (exit status 2).

use std::process::{Command, Output};

fn dht(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dht"))
        .args(args)
        .output()
        .expect("the dht binary starts")
}

#[test]
fn tiny_repro_prints_every_panel_and_every_claim() {
    let out = dht(&["repro", "--scale", "tiny"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    for panel in [
        "Table III",
        "Triangle query graph",
        "Chain query graph",
        "Table IV",
        "Figure 6",
        "(a) ROC curve samples",
        "(b) AUC vs λ on Yeast",
        "Figure 7",
        "Figure 8",
        "(a) work vs n",
        "(b) work vs |EQ|",
        "(c) work vs k",
        "(d) work vs m",
        "Figure 9",
        "(a) work per algorithm",
        "(b) work vs ε",
        "(c) work vs λ",
        "(d) work vs k",
        "Figure 10",
        "(a) work vs λ",
        "(b) nodes pruned from Q",
        "walk steps",
        "pairs scored",
        "walks",
    ] {
        assert!(text.contains(panel), "missing panel '{panel}'");
    }
    for (verdict, id) in [
        ("holds", "triangle_and_chain_rank_differently"),
        ("holds", "joins_beat_chance"),
        ("holds", "pji_walks_no_more_than_pj"),
        ("holds", "pji_walks_less_than_ap"),
        ("FAILS", "pj_walks_no_more_than_ap"),
        ("holds", "bbj_one_walk_per_target"),
        ("holds", "y_scores_no_more_than_x"),
        ("FAILS", "idj_y_walks_less_than_bbj"),
        ("holds", "y_prunes_no_later_than_x"),
    ] {
        let line = format!("[{verdict}] {id} (");
        assert!(text.contains(&line), "missing claim line '{line}'");
    }
    assert!(text.ends_with(
        "claims: 16 checked, 3 fail: fig7 pj_walks_no_more_than_ap, \
         fig9 idj_y_walks_less_than_bbj, fig10 idj_y_walks_less_than_bbj\n"
    ));
}

#[test]
fn unknown_scale_or_experiment_exits_with_usage_status() {
    for args in [
        &["repro", "--scale", "huge"][..],
        &["repro", "fig11"],
        &["repro", "table3", "--scale", "tiny", "fig99"],
        &["repro", "--scael", "tiny"],
    ] {
        let out = dht(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown"), "{args:?}: {stderr}");
        // rejected before any experiment runs
        assert!(out.stdout.is_empty());
    }
}
