//! Allocation budget of the warm join paths, as a count — not a time.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]`.  The counter is per thread, so the harness's other
//! threads cannot disturb it, and every measured call runs serially
//! (`threads = 1`) on the calling thread against a warm private cache: what
//! is counted is the join layer's own bookkeeping, exactly reproducible.
//!
//! Two budgets:
//!
//! * a warm B-BJ call allocates a number **independent of `|P|`** — the scan
//!   over the sources touches the heap only for the `k` pairs it keeps;
//! * a warm PJ-i triangle over 8-node sets stays under a recorded ceiling
//!   of calls and of bytes, so per-pull and per-pair allocations cannot grow
//!   back unnoticed.  The same query made 821 allocations of 1 407 095
//!   bytes when `F` was a `HashMap`, the rank join rebuilt its buffers on
//!   every pull and each query edge copied the `Y_l⁺` table; it makes 344
//!   of 47 224 bytes now.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dht_nway::core::multiway::{NWayAlgorithm, NWayConfig};
use dht_nway::core::twoway::{TwoWayAlgorithm, TwoWayConfig};
use dht_nway::core::QueryCtx;
use dht_nway::graph::generators::barabasi_albert;
use dht_nway::prelude::*;

thread_local! {
    /// Calls and bytes requested on this thread.
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|total| {
        let (calls, requested) = total.get();
        total.set((calls + 1, requested + bytes as u64));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(calls, bytes)` of the allocations and reallocations `f` makes on this
/// thread.
fn allocations_of(f: impl FnOnce()) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    let after = ALLOCATIONS.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

fn set(name: &str, ids: std::ops::Range<u32>) -> NodeSet {
    NodeSet::new(name, ids.map(NodeId))
}

#[test]
fn a_warm_bbj_call_allocates_independently_of_the_size_of_p() {
    let graph = barabasi_albert(3_000, 3, 7);
    let config = TwoWayConfig::paper_default();
    let q = set("Q", 2_990..2_998);
    let mut ctx = QueryCtx::with_byte_budget(64 << 20);
    let mut counts = Vec::new();
    for size in [16u32, 256, 2_048] {
        let p = set("P", 0..size);
        let run = |ctx: &mut QueryCtx| {
            TwoWayAlgorithm::BackwardBasic.top_k_with_ctx(&graph, &config, &p, &q, 10, ctx)
        };
        // The first calls fill the cache and grow its LRU queue to the
        // capacity it then keeps.
        let settled = (0..3).map(|_| run(&mut ctx)).last().expect("three runs");
        let mut warm = None;
        counts.push(allocations_of(|| warm = Some(run(&mut ctx))).0);
        assert_eq!(warm.expect("ran").pairs, settled.pairs);
    }
    assert!(
        counts.iter().all(|&count| count == counts[0]),
        "allocations per warm B-BJ call over |P| = 16 / 256 / 2048: {counts:?}"
    );
    // Not merely equal: a handful (target list, chunk slots, the k-entry
    // heap, the sorted output), nothing per pair.
    assert!(counts[0] <= 16, "{counts:?}");
}

/// Ceilings of the PJ-i triangle below, `(calls, bytes)`: room for a few
/// more buffers per run, none for one per pull (140) on top of today's, nor
/// for one copy of a 3 000-node `Y_l⁺` table (8 levels × 24 KB).
const PJI_TRIANGLE_CEILING: (u64, u64) = (400, 64 << 10);

#[test]
fn a_warm_pji_triangle_stays_under_its_recorded_ceiling() {
    let graph = barabasi_albert(3_000, 3, 7);
    let sets = [set("A", 100..108), set("B", 200..208), set("C", 300..308)];
    let config = NWayConfig::paper_default().with_k(10);
    let query = QueryGraph::triangle();
    let mut ctx = QueryCtx::with_byte_budget(64 << 20);
    let run = |ctx: &mut QueryCtx| {
        NWayAlgorithm::IncrementalPartialJoin { m: 10 }
            .run_with_ctx(&graph, &config, &query, &sets, ctx)
            .expect("valid triangle query")
    };
    let settled = (0..3).map(|_| run(&mut ctx)).last().expect("three runs");
    let mut warm = None;
    let (calls, bytes) = allocations_of(|| warm = Some(run(&mut ctx)));
    let warm = warm.expect("ran");
    assert_eq!(warm.answers, settled.answers);
    assert!(warm.stats.pairs_pulled > 100, "{:?}", warm.stats);
    assert!(
        calls <= PJI_TRIANGLE_CEILING.0 && bytes <= PJI_TRIANGLE_CEILING.1,
        "a warm PJ-i triangle made {calls} allocations of {bytes} bytes in all \
         (ceilings {PJI_TRIANGLE_CEILING:?}; {} pairs pulled, {} candidates)",
        warm.stats.pairs_pulled,
        warm.stats.candidates_generated
    );
}
