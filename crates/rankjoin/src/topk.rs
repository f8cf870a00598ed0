//! Bounded top-k output buffer.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry; the heap is a *min*-heap under the retention order
/// (score descending, then item ascending) so that the worst retained
/// entry is always at the top and can be evicted in `O(log k)`.
#[derive(Debug, Clone)]
struct Entry<T> {
    score: f64,
    item: T,
}

impl<T: Ord> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.score.total_cmp(&other.score) == Ordering::Equal && self.item == other.item
    }
}
impl<T: Ord> Eq for Entry<T> {}

impl<T: Ord> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on score, forward on item => the heap's maximum is the
        // entry ranking LAST under (score desc, item asc) — the one to
        // evict when something better arrives.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.item.cmp(&other.item))
    }
}

/// A buffer that retains the `k` best items under the **total order**
/// (score descending, item ascending).
///
/// This is the output buffer `O` of Algorithm 1 (and the buffer `B` of
/// Algorithm 2): a priority queue of size `k` storing candidate answers
/// with the `k` highest aggregate scores.  Score ties at the `k`-th place
/// are broken by the item's own `Ord` (for pair answers: ascending node
/// ids), which makes the retained set a pure function of the candidate
/// multiset — independent of insertion order.  That property is what lets
/// a sharded fleet merge per-shard top-k lists into exactly the answer a
/// single union run produces.
///
/// Almost every candidate of a join loses on score alone (`k ≪ |P|·|Q|`),
/// so the buffer keeps its `k`-th score in a field of its own
/// ([`TopKBuffer::threshold`]) and [`TopKBuffer::insert`] turns such a
/// candidate away with one float comparison, before an entry is built or
/// the heap is touched.
#[derive(Debug, Clone)]
pub struct TopKBuffer<T> {
    k: usize,
    heap: BinaryHeap<Entry<T>>,
    /// Score of the worst retained entry once `k` are held, `-∞` before
    /// (`+∞` when `k = 0`): what [`TopKBuffer::threshold`] returns.
    threshold: f64,
}

/// Most heap slots [`TopKBuffer::new`] reserves up front.  `k` can come
/// off the wire, so a buffer for a larger `k` grows on demand instead of
/// reserving `k` slots it will almost never fill.
const RESERVE_CAP: usize = 4096;

impl<T: Ord> TopKBuffer<T> {
    /// Creates a buffer retaining at most `k` items.
    pub fn new(k: usize) -> Self {
        TopKBuffer {
            k,
            heap: BinaryHeap::with_capacity(k.min(RESERVE_CAP) + 1),
            threshold: Self::empty_threshold(k),
        }
    }

    /// Empties the buffer, keeping `k` and the allocation: what a loop that
    /// fills one buffer per round calls between rounds.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.threshold = Self::empty_threshold(self.k);
    }

    /// [`TopKBuffer::threshold`] of a buffer holding nothing.
    fn empty_threshold(k: usize) -> f64 {
        if k == 0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Capacity `k` of the buffer.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Number of items currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the buffer already holds `k` items.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Lowest retained score, if any item is retained.
    ///
    /// When the buffer is full this is `T_k`, the `k`-th highest score seen
    /// so far — the pruning threshold of the iterative-deepening joins.
    pub fn min_score(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.score)
    }

    /// The `k`-th highest score seen so far, or `None` while fewer than `k`
    /// items have been retained (no meaningful threshold yet).
    pub fn kth_score(&self) -> Option<f64> {
        if self.is_full() {
            self.min_score()
        } else {
            None
        }
    }

    /// The score a candidate must reach to be retained: a `score` with
    /// `score < threshold()` is rejected by [`TopKBuffer::insert`] whatever
    /// its item.  `-∞` while fewer than `k` items are held, the `k`-th
    /// score afterwards; it never falls.  Callers that would have to build
    /// an expensive item read it first and skip the build.
    ///
    /// The comparison is a strict IEEE `<`, so a tie with the `k`-th score
    /// (`-0.0` against `+0.0` included) and a NaN are *not* below the
    /// threshold: they take the full two-key comparison, and the retained
    /// set stays a pure function of the candidate multiset.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Inserts an item.  Returns `true` if the item was retained (it may
    /// still be evicted by later insertions ranking above it).
    #[inline]
    pub fn insert(&mut self, score: f64, item: T) -> bool {
        if score < self.threshold || self.k == 0 {
            return false;
        }
        let entry = Entry { score, item };
        if self.heap.len() < self.k {
            self.heap.push(entry);
            if self.heap.len() == self.k {
                self.threshold = self.heap.peek().expect("k > 0 entries held").score;
            }
            return true;
        }
        // Buffer full: replace the worst retained entry iff the new one
        // ranks strictly above it under (score desc, item asc).
        let worst = self.heap.peek().expect("non-empty full heap");
        let better = entry
            .score
            .total_cmp(&worst.score)
            .then_with(|| worst.item.cmp(&entry.item))
            == Ordering::Greater;
        if better {
            self.heap.pop();
            self.heap.push(entry);
            self.threshold = self.heap.peek().expect("k > 0 entries held").score;
            true
        } else {
            false
        }
    }

    /// Consumes the buffer and returns its `(score, item)` pairs sorted by
    /// the retention order: descending score, ties in ascending item order.
    ///
    /// The order is total, so the in-place unstable sort returns what a
    /// stable one would (entries it may swap are equal in both keys).
    pub fn into_sorted_desc(self) -> Vec<(f64, T)> {
        let mut items: Vec<Entry<T>> = self.heap.into_vec();
        items.sort_unstable_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.item.cmp(&b.item))
        });
        items.into_iter().map(|e| (e.score, e.item)).collect()
    }

    /// Iterates over retained `(score, item)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &T)> {
        self.heap.iter().map(|e| (e.score, &e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_the_k_highest_scores() {
        let mut buf = TopKBuffer::new(3);
        for (s, v) in [(1.0, "a"), (5.0, "b"), (3.0, "c"), (4.0, "d"), (0.5, "e")] {
            buf.insert(s, v);
        }
        let out = buf.into_sorted_desc();
        let items: Vec<&str> = out.iter().map(|&(_, v)| v).collect();
        assert_eq!(items, vec!["b", "d", "c"]);
    }

    #[test]
    fn an_unbounded_k_reserves_little_and_keeps_the_best_items() {
        let mut buf = TopKBuffer::new(usize::MAX);
        assert!(buf.heap.capacity() <= RESERVE_CAP + 1);
        for v in 0..10_000u32 {
            buf.insert(f64::from(v % 100), v);
        }
        assert_eq!(buf.len(), 10_000);
        assert!(!buf.is_full());
        assert_eq!(buf.threshold(), f64::NEG_INFINITY);
        let out = buf.into_sorted_desc();
        assert_eq!(out[0], (99.0, 99));
        assert_eq!(out[1], (99.0, 199));
        assert_eq!(out[9_999], (0.0, 9_900));
    }

    #[test]
    fn kth_score_only_defined_when_full() {
        let mut buf = TopKBuffer::new(2);
        assert_eq!(buf.kth_score(), None);
        buf.insert(4.0, 0);
        assert_eq!(buf.kth_score(), None);
        buf.insert(7.0, 1);
        assert_eq!(buf.kth_score(), Some(4.0));
        buf.insert(5.0, 2);
        assert_eq!(buf.kth_score(), Some(5.0));
    }

    #[test]
    fn a_cleared_buffer_behaves_like_a_new_one() {
        let mut buf = TopKBuffer::new(2);
        for (s, v) in [(3.0, 0), (9.0, 1), (5.0, 2)] {
            buf.insert(s, v);
        }
        assert_eq!(buf.threshold(), 5.0);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 2);
        assert_eq!(buf.kth_score(), None);
        assert_eq!(buf.threshold(), f64::NEG_INFINITY);
        // A score the old threshold would have turned away is kept again.
        assert!(buf.insert(1.0, 7));
        assert!(buf.insert(2.0, 8));
        assert_eq!(buf.into_sorted_desc(), vec![(2.0, 8), (1.0, 7)]);

        let mut none: TopKBuffer<u32> = TopKBuffer::new(0);
        none.clear();
        assert!(!none.insert(1.0, 1), "k = 0 still retains nothing");
    }

    #[test]
    fn insert_reports_retention() {
        let mut buf = TopKBuffer::new(2);
        assert!(buf.insert(1.0, 1));
        assert!(buf.insert(2.0, 2));
        assert!(!buf.insert(0.5, 3), "lower than the current minimum");
        assert!(buf.insert(3.0, 4));
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn equal_scores_keep_the_smallest_items() {
        // The retained set is a pure function of the candidate multiset:
        // smaller items win score ties at the boundary, regardless of the
        // order they arrive in.
        for order in [[1, 2, 3], [3, 2, 1], [2, 3, 1]] {
            let mut buf = TopKBuffer::new(2);
            for item in order {
                buf.insert(1.0, item);
            }
            let items: Vec<i32> = buf.into_sorted_desc().into_iter().map(|(_, v)| v).collect();
            assert_eq!(items, vec![1, 2], "insertion order {order:?}");
        }
    }

    #[test]
    fn tie_selection_is_insertion_order_independent() {
        // A higher score arriving after a full buffer of ties evicts the
        // LARGEST tied item, matching what any re-ordering would retain.
        let mut buf = TopKBuffer::new(3);
        buf.insert(1.0, 30);
        buf.insert(1.0, 10);
        buf.insert(1.0, 20);
        buf.insert(2.0, 40);
        let items: Vec<i32> = buf.into_sorted_desc().into_iter().map(|(_, v)| v).collect();
        assert_eq!(items, vec![40, 10, 20]);
    }

    #[test]
    fn zero_capacity_accepts_nothing() {
        let mut buf: TopKBuffer<i32> = TopKBuffer::new(0);
        assert!(!buf.insert(10.0, 1));
        assert!(buf.is_empty());
        assert!(buf.kth_score().is_none());
    }

    #[test]
    fn matches_brute_force_on_random_input() {
        // Deterministic pseudo-random stream (LCG) — no external RNG needed.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let values: Vec<f64> = (0..500).map(|_| next()).collect();
        let mut buf = TopKBuffer::new(25);
        for (i, &v) in values.iter().enumerate() {
            buf.insert(v, i);
        }
        let got: Vec<f64> = buf.into_sorted_desc().into_iter().map(|(s, _)| s).collect();
        let mut expected = values.clone();
        expected.sort_by(|a, b| b.total_cmp(a));
        expected.truncate(25);
        assert_eq!(got.len(), 25);
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-15);
        }
    }

    #[test]
    fn sharded_merges_reproduce_the_union_selection() {
        // Partition a candidate stream with boundary ties arbitrarily,
        // run a per-shard buffer over each part, merge the shard outputs
        // through a fresh buffer: always identical to one union run.
        let candidates: Vec<(f64, u32)> = (0..40)
            .map(|i| (f64::from(i % 5) * 0.5, 97 * i % 41))
            .collect();
        let mut union_buf = TopKBuffer::new(7);
        for &(s, v) in &candidates {
            union_buf.insert(s, v);
        }
        let union_out = union_buf.into_sorted_desc();
        for shards in [2usize, 3] {
            let mut merged = TopKBuffer::new(7);
            for shard in 0..shards {
                let mut local = TopKBuffer::new(7);
                for (i, &(s, v)) in candidates.iter().enumerate() {
                    if i % shards == shard {
                        local.insert(s, v);
                    }
                }
                for (s, v) in local.into_sorted_desc() {
                    merged.insert(s, v);
                }
            }
            assert_eq!(merged.into_sorted_desc(), union_out, "{shards} shards");
        }
    }

    #[test]
    fn iter_exposes_all_retained_items() {
        let mut buf = TopKBuffer::new(3);
        buf.insert(1.0, 'x');
        buf.insert(2.0, 'y');
        let mut seen: Vec<char> = buf.iter().map(|(_, &c)| c).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec!['x', 'y']);
    }
}
