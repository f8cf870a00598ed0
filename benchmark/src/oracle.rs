//! The definitional check: sampled two-way answers against discounted
//! hitting time computed straight from its definition, one forward
//! absorbing walk per `(p, q)` pair — the function
//! `dht_walks::exact::all_pairs_dht` fills its table with.  The full
//! `n × n` table would take a quarter of an hour on the 3k-node graph, so
//! only the pairs the sampled lines join are evaluated, and only as many
//! lines as fit a fixed time budget (each costs ~4 000 walks).  Runs after
//! peak RSS and CPU are read, so none of it enters a metric.

use std::time::{Duration, Instant};

use dht_core::QuerySpec;
use dht_engine::EngineConfig;
use dht_walks::forward::forward_dht;

use crate::inputs::{self, InputFiles};
use crate::stats::Rng;
use crate::system::Loaded;

/// Two-way lines sampled per run …
const SAMPLED_LINES: usize = 20;
/// … and how long the check may take; lines not reached are not checked.
const BUDGET: Duration = Duration::from_millis(2500);
/// Allowed difference between a reported score and its definition.
const TOLERANCE: f64 = 1e-9;

/// Parses `TWOWAY n l:r:bits …` into `(left, right, score)` rows.
fn parse_two_way(reply: &str) -> Option<Vec<(u32, u32, f64)>> {
    let mut fields = reply.split_whitespace();
    if fields.next()? != "TWOWAY" {
        return None;
    }
    let count: usize = fields.next()?.parse().ok()?;
    let rows: Vec<(u32, u32, f64)> = fields
        .map(|field| {
            let mut parts = field.split(':');
            let left = parts.next()?.parse().ok()?;
            let right = parts.next()?.parse().ok()?;
            let bits = u64::from_str_radix(parts.next()?, 16).ok()?;
            Some((left, right, f64::from_bits(bits)))
        })
        .collect::<Option<_>>()?;
    (rows.len() == count).then_some(rows)
}

/// Checks up to [`SAMPLED_LINES`] two-way lines of the first pass, in
/// sampled order, until [`BUDGET`] is spent (at least one).  An
/// answer passes when it has `min(k, |P×Q|)` rows, every reported score is
/// its pair's definitional score, and rank by rank the scores are those of
/// the definitional ranking under (score desc, pair asc) — all within
/// [`TOLERANCE`], which also makes ties among equal scores harmless.
pub fn check(
    files: &InputFiles,
    loaded: &Loaded,
    first_pass: &[Result<String, String>],
    seed: u64,
    notes: &mut Vec<String>,
) -> Result<bool, String> {
    let graph = inputs::load_graph(files)?;
    let config = EngineConfig::paper_default();
    let mut candidates: Vec<usize> = (0..first_pass.len())
        .filter(|&i| matches!(loaded.spec(i), QuerySpec::TwoWay(_)) && first_pass[i].is_ok())
        .collect();
    let mut rng = Rng::new(seed ^ 0x0eac_1e00);
    let started = Instant::now();
    let mut checked = 0;
    let mut wrong = 0;
    while checked < SAMPLED_LINES && !candidates.is_empty() {
        if checked > 0 && started.elapsed() > BUDGET {
            break;
        }
        let index = candidates.swap_remove(rng.below(candidates.len()));
        let QuerySpec::TwoWay(spec) = loaded.spec(index) else {
            continue;
        };
        let Some(rows) = first_pass[index]
            .as_ref()
            .ok()
            .and_then(|r| parse_two_way(r))
        else {
            wrong += 1;
            continue;
        };
        let mut truth: Vec<(f64, u32, u32)> = Vec::with_capacity(spec.p.len() * spec.q.len());
        for p in spec.p.iter() {
            for q in spec.q.iter().filter(|q| *q != p) {
                truth.push((
                    forward_dht(&graph, &config.params, p, q, config.d),
                    p.0,
                    q.0,
                ));
            }
        }
        truth.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let agrees = rows.len() == spec.k.min(truth.len())
            && rows.iter().zip(&truth).all(|(row, best)| {
                let defined = truth
                    .iter()
                    .find(|t| (t.1, t.2) == (row.0, row.1))
                    .map_or(f64::NAN, |t| t.0);
                (row.2 - best.0).abs() <= TOLERANCE && (row.2 - defined).abs() <= TOLERANCE
            });
        if !agrees {
            wrong += 1;
        }
        checked += 1;
    }
    notes.push(format!(
        "oracle: {checked} two-way lines against per-pair definitional DHT within {TOLERANCE:e}: {}",
        if wrong == 0 { "agree".to_string() } else { format!("{wrong} DISAGREE") }
    ));
    Ok(wrong == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_way_replies_parse_bit_exactly() {
        let rows = parse_two_way("TWOWAY 2 4:17:3fe5a00000000000 9:17:3fe0000000000000").unwrap();
        assert_eq!(rows, vec![(4, 17, 0.67578125), (9, 17, 0.5)]);
        assert!(parse_two_way("TWOWAY 3 4:17:3fe5a00000000000").is_none());
        assert!(parse_two_way("NWAY 0").is_none());
    }
}
