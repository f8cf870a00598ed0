//! `benchmark compare`: two result sets of the same benchmark, one row per
//! (workload, end-to-end metric), judged by the metric's direction and
//! bound from `BENCHMARK.json`.
//!
//! A result set is a JSON-lines file written by `benchmark all --out`:
//! `{"workload": .., "seed": .., "trace": 0, "result": <result line>}`.

use std::process::ExitCode;

use crate::inputs::WORKLOADS;
use crate::json::{self, Value};
use crate::stats::quartiles;

/// Fewest pairs a claimed gain may rest on …
const CLAIM_MIN_PAIRS: usize = 10;
/// … and the share of them the change must win.
const CLAIM_WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// Run-to-run spread wider than the bound: no statement either way.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn declared_metrics(doc: &Value) -> Result<Vec<Declared>, String> {
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_array()
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end metric".to_string())
}

/// Inter-quartile distance as a share of the median (0 under two values).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, median, q3) = quartiles(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// How the change's values compare with the parent's.
#[derive(Debug)]
pub struct Row {
    pub parent_median: f64,
    pub change_median: f64,
    /// Change relative to the parent, signed so that positive is worse.
    pub worsening: f64,
    pub spread: f64,
    pub verdict: Verdict,
    /// `(wins, pairs)` of the change over the parent, runs paired in order.
    pub pairs: (usize, usize),
    /// The pairing rule for a claimed gain holds.
    pub claim: bool,
}

pub fn judge(metric: &Declared, parent: &[f64], change: &[f64]) -> Row {
    let (p_q1, parent_median, p_q3) = quartiles(parent);
    let (_, change_median, _) = quartiles(change);
    let relative = if parent_median == 0.0 {
        0.0
    } else {
        (change_median - parent_median) / parent_median.abs()
    };
    let worsening = if metric.higher_is_better {
        -relative
    } else {
        relative
    };
    let spread = spread(parent).max(spread(change));
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| {
            if metric.higher_is_better {
                c > p
            } else {
                c < p
            }
        })
        .count();
    let claim = pairs >= CLAIM_MIN_PAIRS
        && wins as f64 >= CLAIM_WIN_SHARE * pairs as f64
        && (change_median - parent_median).abs() > p_q3 - p_q1;
    Row {
        parent_median,
        change_median,
        worsening,
        spread,
        verdict,
        pairs: (wins, pairs),
        claim,
    }
}

/// Values of every end-to-end metric per workload, in run order.
type ResultSet = Vec<(String, String, Vec<f64>)>;

fn read_set(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set: ResultSet = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if record.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: record without a workload"))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| format!("{path}: record without metrics"))?;
        for (name, metric) in metrics.fields() {
            let Some(value) = metric.get("value").and_then(Value::as_f64) else {
                continue;
            };
            match set.iter_mut().find(|(w, n, _)| w == workload && n == name) {
                Some((_, _, values)) => values.push(value),
                None => set.push((workload.to_string(), name.clone(), vec![value])),
            }
        }
    }
    Ok(set)
}

/// `benchmark compare [--aa] <parent.jsonl> <change.jsonl>`.  With `--aa`
/// both sets come from one commit and any `worse` or `unresolved` row is
/// an error: the benchmark does not agree with itself.
pub fn main(args: &[String]) -> ExitCode {
    let aa = args.iter().any(|a| a == "--aa");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [parent_path, change_path] = paths[..] else {
        eprintln!("usage: benchmark compare [--aa] <parent.jsonl> <change.jsonl>");
        return ExitCode::from(2);
    };
    let loaded = (|| {
        let manifest = crate::bench_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        let declared = declared_metrics(&json::parse(&text)?)?;
        Ok::<_, String>((declared, read_set(parent_path)?, read_set(change_path)?))
    })();
    let (declared, parent, change) = match loaded {
        Ok(loaded) => loaded,
        Err(error) => {
            eprintln!("benchmark compare: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<13} {:<17} {:>12} {:>12} {:>8} {:>7} {:>6}  {:<10} {:>6} claim",
        "workload", "metric", "parent", "change", "worse%", "spread%", "bound%", "verdict", "wins"
    );
    let mut disagreements = 0;
    for workload in &WORKLOADS {
        for metric in &declared {
            let values = |set: &ResultSet| {
                set.iter()
                    .find(|(w, n, _)| w == workload.name && *n == metric.name)
                    .map(|(_, _, v)| v.clone())
                    .unwrap_or_default()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let row = judge(metric, &p, &c);
            if matches!(row.verdict, Verdict::Worse | Verdict::Unresolved) {
                disagreements += 1;
            }
            println!(
                "{:<13} {:<17} {:>12.4} {:>12.4} {:>+8.2} {:>7.2} {:>6.1}  {:<10} {:>3}/{:<2} {}",
                workload.name,
                metric.name,
                row.parent_median,
                row.change_median,
                row.worsening * 100.0,
                row.spread * 100.0,
                metric.bound * 100.0,
                row.verdict.name(),
                row.pairs.0,
                row.pairs.1,
                if row.claim { "gain holds" } else { "-" },
            );
        }
    }
    if aa && disagreements > 0 {
        eprintln!("benchmark compare --aa: {disagreements} rows are worse or unresolved");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Declared {
        Declared {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            judge(&metric(false, 0.10), &parent, &slower).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(true, 0.10), &parent, &slower).verdict,
            Verdict::Better
        );
        assert_eq!(
            judge(&metric(false, 0.25), &parent, &slower).verdict,
            Verdict::Unchanged
        );
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            judge(&metric(false, 0.10), &parent, &noisy).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_claim_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parents_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v - 20.0).collect();
        let row = judge(&metric(false, 0.10), &parent, &faster);
        assert_eq!(row.pairs, (10, 10));
        assert!(row.claim);
        // Nine pairs are not enough, however clear.
        assert!(!judge(&metric(false, 0.10), &parent[..9], &faster[..9]).claim);
        // Ten wins by less than the parent's own inter-quartile distance.
        let barely: Vec<f64> = parent.iter().map(|v| v - 1.0).collect();
        assert!(!judge(&metric(false, 0.10), &parent, &barely).claim);
        // Two losses in ten.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert!(!judge(&metric(false, 0.10), &parent, &mixed).claim);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
