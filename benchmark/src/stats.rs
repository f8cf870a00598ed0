//! Order statistics, the FNV-1a digest and the benchmark's seeded RNG.

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a accumulator.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Digest of one canonical reply line (scores are already f64 bit patterns
/// in the wire encoding, so equal strings mean bit-equal answers).  Never
/// 0, which marks a failed request in a `Sample`.
pub fn line_digest(line: &str) -> u64 {
    fnv1a(FNV_OFFSET, line.as_bytes()).max(1)
}

/// SplitMix64: the benchmark's only source of randomness, so inputs are a
/// pure function of `--seed` and independent of the program's own RNG shim.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `count` distinct values of `0..n`, in draw order.
    pub fn distinct(&mut self, count: usize, n: usize) -> Vec<u32> {
        assert!(count <= n, "cannot draw {count} distinct values below {n}");
        let mut seen = std::collections::HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let v = self.below(n) as u32;
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Index drawn by the cumulative `weights` (any positive scale).
    pub fn weighted(&mut self, cumulative: &[f64]) -> usize {
        let total = *cumulative.last().expect("non-empty weights");
        let x = self.unit() * total;
        cumulative
            .partition_point(|&c| c <= x)
            .min(cumulative.len() - 1)
    }
}

/// Running sums of `weights`, for [`Rng::weighted`].
pub fn cumulative(weights: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut sum = 0.0;
    weights
        .into_iter()
        .map(|w| {
            sum += w;
            sum
        })
        .collect()
}

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `values` ascending (NaN-free by construction: they are durations).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 50.0)
}

/// Which way a figure is better.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Mean of the better half of `values` (of the better three of five, the
/// better five of ten).  For figures taken run by run over one window: what
/// else the host is doing can only make a run worse, so the better half
/// are the runs it disturbed least, and as long as it disturbed fewer than
/// half of them it does not move the figure.
pub fn better_half_mean(values: &[f64], better: Better) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    if better == Better::Higher {
        sorted.reverse();
    }
    let half = &sorted[..sorted.len().div_ceil(2)];
    if half.is_empty() {
        0.0
    } else {
        half.iter().sum::<f64>() / half.len() as f64
    }
}

/// Fewest samples a 95th percentile is reported from: ten lie beyond it.
pub const P95_MIN_SAMPLES: usize = 200;

/// The 95th percentile of an ascending slice, refused below
/// [`P95_MIN_SAMPLES`] — a run that short cannot support the figure.
pub fn p95(sorted: &[f64]) -> Result<f64, String> {
    if sorted.len() < P95_MIN_SAMPLES {
        return Err(format!(
            "run too short: p95 needs at least {P95_MIN_SAMPLES} samples, got {}",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, 95.0))
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) — the rule the acceptance check applies.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_refused_under_two_hundred_samples() {
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(p95(&short).unwrap_err().contains("too short"));
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        let value = p95(&enough).unwrap();
        assert!((value - 189.05).abs() < 1e-9, "{value}");
        assert_eq!(enough.iter().filter(|&&v| v > value).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_interpolates_and_median_is_the_midpoint() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn better_half_mean_leaves_the_disturbed_runs_out() {
        // Ten runs of a window, four of them slowed by the host.
        let rates = [23.0, 22.0, 9.0, 23.0, 12.0, 22.0, 23.0, 5.0, 11.0, 22.0];
        assert!((better_half_mean(&rates, Better::Higher) - 22.6).abs() < 1e-12);
        let p50s = [4.0, 4.2, 9.0, 4.1, 8.0, 4.0, 4.2, 15.0, 7.0, 4.1];
        assert!((better_half_mean(&p50s, Better::Lower) - 4.08).abs() < 1e-12);
        assert_eq!(better_half_mean(&[4.0, 6.0, 9.0], Better::Lower), 5.0);
        assert_eq!(better_half_mean(&[], Better::Lower), 0.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(2014), draw(2014));
        assert_ne!(draw(2014), draw(2023));
        let mut rng = Rng::new(7);
        let picks = rng.distinct(50, 60);
        let unique: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(unique.len(), 50);
        assert!(picks.iter().all(|&v| v < 60));
    }
}
