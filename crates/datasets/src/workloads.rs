//! Seeded query workloads over a dataset's node sets: the zipf-skewed
//! two-way query mix that `dht gen --queries-out` writes for
//! `dht loadgen` / `dht querystream` replay.

use dht_graph::NodeSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded Zipf-distributed rank sampler: rank `i` (0-based) is drawn with
/// probability proportional to `1 / (i + 1)^s`.
///
/// Real query traffic is skewed — a few node-set pairs (the "hot" joins)
/// dominate — and that skew is exactly what warm-cache serving layers
/// exploit.  Uniform query mixes understate cache hit rates; a zipfian mix
/// with `s ≈ 1` is the standard stand-in for realistic skew.
///
/// Sampling inverts the precomputed cumulative weight table with a binary
/// search, so a draw is `O(log n)` and the whole sampler is deterministic
/// for a given seed stream.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over ranks `0..n` with exponent `s` (`s = 0` is
    /// uniform; larger `s` is more skewed; `s ≈ 1` is classic Zipf).
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf sampler needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "zipf exponent must be finite and >= 0"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        ZipfSampler { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler is over zero ranks (never true — `new` rejects
    /// `n == 0` — but provided for the conventional `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one rank in `0..len()`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty sampler");
        let x = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Generates a zipfian-skewed two-way query mix over the given node sets,
/// in the querystream line language (`LEFT RIGHT k`).
///
/// Both endpoints of each query are drawn from a [`ZipfSampler`] over the
/// set list (rank 0 = `sets[0]` is hottest), re-drawing the right set until
/// it differs from the left, so hot pairs repeat the way production join
/// traffic does and warm-cache layers see realistic reuse.  Deterministic
/// for a given `seed`.  Returns an empty mix when fewer than two sets are
/// supplied.
pub fn zipfian_query_mix(
    sets: &[NodeSet],
    count: usize,
    s: f64,
    k: usize,
    seed: u64,
) -> Vec<String> {
    if sets.len() < 2 {
        return Vec::new();
    }
    let sampler = ZipfSampler::new(sets.len(), s);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::with_capacity(count);
    for _ in 0..count {
        let left = sampler.sample(&mut rng);
        let mut right = sampler.sample(&mut rng);
        while right == left {
            right = sampler.sample(&mut rng);
        }
        lines.push(format!("{} {} {k}", sets[left].name(), sets[right].name()));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dblp::{self, DblpConfig};
    use crate::Scale;

    #[test]
    fn zipf_sampler_is_skewed_and_deterministic() {
        let sampler = ZipfSampler::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..4000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[9] * 3,
            "rank 0 should dominate rank 9: {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "every rank reachable: {counts:?}"
        );

        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut a), sampler.sample(&mut b));
        }
    }

    #[test]
    fn uniform_exponent_is_roughly_flat() {
        let sampler = ZipfSampler::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn zipfian_query_mix_emits_parsable_skewed_lines() {
        let d = dblp::generate(&DblpConfig::for_scale(Scale::Tiny));
        let sets = &d.node_sets[..4];
        let lines = zipfian_query_mix(sets, 200, 1.0, 10, 99);
        assert_eq!(lines.len(), 200);
        // `LEFT RIGHT k` over two distinct known sets (the CLI's `gen` test
        // runs the real query-line parser over the same output).
        for line in &lines {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let [left, right, k] = tokens[..] else {
                panic!("not a three-token query line: {line}");
            };
            assert!(sets.iter().any(|s| s.name() == left), "{line}");
            assert!(sets.iter().any(|s| s.name() == right), "{line}");
            assert_ne!(left, right, "{line}");
            assert_eq!(k, "10", "{line}");
        }
        let hot = lines
            .iter()
            .filter(|l| l.starts_with(sets[0].name()))
            .count();
        let cold = lines
            .iter()
            .filter(|l| l.starts_with(sets[3].name()))
            .count();
        assert!(
            hot > cold,
            "hot set should lead more queries: {hot} vs {cold}"
        );
        assert!(zipfian_query_mix(&sets[..1], 10, 1.0, 10, 1).is_empty());
    }
}
