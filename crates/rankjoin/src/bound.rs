//! The HRJN corner bound.
//!
//! For a rank join over `s` descending-sorted input streams with a monotone
//! aggregate `f`, any answer not yet produced must use, for at least one
//! stream `i`, an entry at or below the last score pulled from `i`.  The
//! tightest upper bound on unseen answers is therefore the maximum over the
//! *corners*
//!
//! ```text
//! corner_i = f(first_1, …, last_i, …, first_s)
//! ```
//!
//! where `first_j` is the first (largest) score of stream `j` and `last_i`
//! the most recently pulled score of stream `i`.  The rank join can stop as
//! soon as it has `k` answers whose scores all reach this threshold.

/// Tracks first/last scores per stream and evaluates the corner-bound
/// threshold `τ`.
#[derive(Debug, Clone)]
pub struct CornerBound {
    /// First and last score per stream; meaningful once `seen` is set.
    first: Vec<f64>,
    last: Vec<f64>,
    seen: Vec<bool>,
    /// Streams neither observed nor exhausted yet.
    unseen: usize,
}

impl CornerBound {
    /// Creates a tracker for `streams` input streams.
    pub fn new(streams: usize) -> Self {
        CornerBound {
            first: vec![0.0; streams],
            last: vec![0.0; streams],
            seen: vec![false; streams],
            unseen: streams,
        }
    }

    /// Number of tracked streams.
    pub fn streams(&self) -> usize {
        self.first.len()
    }

    /// Records that `score` was pulled from stream `stream`.
    ///
    /// Scores must be pulled in non-increasing order per stream for the bound
    /// to be valid; this is asserted in debug builds.
    pub fn observe(&mut self, stream: usize, score: f64) {
        debug_assert!(
            !self.seen[stream] || score <= self.last[stream] + 1e-12,
            "stream {stream} produced scores out of order"
        );
        self.see(stream, score);
        self.last[stream] = score;
    }

    /// Sets `stream`'s first score if it has none yet.
    fn see(&mut self, stream: usize, score: f64) {
        if !self.seen[stream] {
            self.seen[stream] = true;
            self.unseen -= 1;
            self.first[stream] = score;
        }
    }

    /// The first (largest) score observed on `stream`, if any.
    pub fn first_score(&self, stream: usize) -> Option<f64> {
        self.seen[stream].then(|| self.first[stream])
    }

    /// The most recent score observed on `stream`, if any.
    pub fn last_score(&self, stream: usize) -> Option<f64> {
        self.seen[stream].then(|| self.last[stream])
    }

    /// Marks a stream as exhausted at the lowest possible score, tightening
    /// the bound: corners using this stream's "last" value become the
    /// aggregate with `floor` substituted.
    pub fn exhaust(&mut self, stream: usize, floor: f64) {
        self.see(stream, floor);
        self.last[stream] = floor;
    }

    /// Evaluates the corner-bound threshold `τ` for a monotone aggregate.
    ///
    /// `aggregate` receives one score per stream.  If any stream has not been
    /// observed at all yet, the threshold is `+∞` (nothing can be bounded).
    ///
    /// Each corner is evaluated in place — stream `i`'s first score is
    /// swapped for its last one, the aggregate reads the slice, the first
    /// score is put back — so a call allocates nothing; hence `&mut self`.
    pub fn threshold(&mut self, aggregate: impl Fn(&[f64]) -> f64) -> f64 {
        if self.first.is_empty() {
            return f64::NEG_INFINITY;
        }
        if self.unseen > 0 {
            return f64::INFINITY;
        }
        let mut tau = f64::NEG_INFINITY;
        for i in 0..self.first.len() {
            let first_i = std::mem::replace(&mut self.first[i], self.last[i]);
            let corner = aggregate(&self.first);
            self.first[i] = first_i;
            if corner > tau {
                tau = corner;
            }
        }
        tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(values: &[f64]) -> f64 {
        values.iter().sum()
    }

    fn min(values: &[f64]) -> f64 {
        values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn threshold_is_infinite_until_every_stream_is_seen() {
        let mut cb = CornerBound::new(2);
        assert!(cb.threshold(sum).is_infinite());
        cb.observe(0, 5.0);
        assert!(cb.threshold(sum).is_infinite());
        cb.observe(1, 3.0);
        assert!(cb.threshold(sum).is_finite());
    }

    #[test]
    fn corner_bound_matches_hand_computation_for_sum() {
        let mut cb = CornerBound::new(2);
        cb.observe(0, 10.0);
        cb.observe(1, 8.0);
        cb.observe(0, 6.0);
        // corners: f(last_0, first_1) = 6 + 8 = 14; f(first_0, last_1) = 10 + 8 = 18
        assert!((cb.threshold(sum) - 18.0).abs() < 1e-12);
        cb.observe(1, 2.0);
        // corners: 6 + 8 = 14; 10 + 2 = 12
        assert!((cb.threshold(sum) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn corner_bound_matches_hand_computation_for_min() {
        let mut cb = CornerBound::new(3);
        cb.observe(0, 0.9);
        cb.observe(1, 0.8);
        cb.observe(2, 0.7);
        cb.observe(0, 0.4);
        // corners: min(0.4,0.8,0.7)=0.4; min(0.9,0.8,0.7)=0.7 (twice)
        assert!((cb.threshold(min) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn threshold_never_increases_as_more_is_pulled() {
        let mut cb = CornerBound::new(2);
        cb.observe(0, 5.0);
        cb.observe(1, 5.0);
        let mut prev = cb.threshold(sum);
        for score in [4.0, 3.0, 2.0, 1.0] {
            cb.observe(0, score);
            let t = cb.threshold(sum);
            assert!(t <= prev + 1e-12);
            prev = t;
            cb.observe(1, score);
            let t = cb.threshold(sum);
            assert!(t <= prev + 1e-12);
            prev = t;
        }
    }

    #[test]
    fn exhaust_lowers_the_bound_to_the_floor() {
        let mut cb = CornerBound::new(2);
        cb.observe(0, 3.0);
        cb.observe(1, 2.0);
        cb.exhaust(1, -1.0);
        // corners: f(3, 2)... no: last_0 = 3 & first_1 = 2 => 5 ; first_0 = 3 & last_1 = -1 => 2
        assert!((cb.threshold(sum) - 5.0).abs() < 1e-12);
        cb.observe(0, 0.0);
        // corners: 0 + 2 = 2 ; 3 - 1 = 2
        assert!((cb.threshold(sum) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exhaust_unseen_stream_uses_floor_as_first() {
        let mut cb = CornerBound::new(2);
        cb.observe(0, 3.0);
        cb.exhaust(1, -5.0);
        let t = cb.threshold(sum);
        assert!((t - (3.0 - 5.0)).abs() < 1e-12);
    }

    #[test]
    fn bound_is_sound_for_a_simulated_rank_join() {
        // Two streams of descending scores; answers are all cross pairs with
        // SUM aggregate.  After pulling a prefix of each stream, no unseen
        // pair may beat the corner bound.
        let s0 = [9.0, 7.0, 4.0, 1.0];
        let s1 = [8.0, 5.0, 5.0, 0.5];
        for pull0 in 1..=s0.len() {
            for pull1 in 1..=s1.len() {
                let mut cb = CornerBound::new(2);
                for &v in &s0[..pull0] {
                    cb.observe(0, v);
                }
                for &v in &s1[..pull1] {
                    cb.observe(1, v);
                }
                let tau = cb.threshold(sum);
                // every pair with at least one unseen component
                for (i, &a) in s0.iter().enumerate() {
                    for (j, &b) in s1.iter().enumerate() {
                        let unseen = i >= pull0 || j >= pull1;
                        if unseen {
                            assert!(
                                a + b <= tau + 1e-12,
                                "unseen pair ({i},{j}) with score {} beats tau={tau}",
                                a + b
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_streams_threshold_is_negative_infinity() {
        let mut cb = CornerBound::new(0);
        assert_eq!(cb.threshold(sum), f64::NEG_INFINITY);
    }
}
