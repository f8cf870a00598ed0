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
//!
//! Opening a context costs nothing either: a one-shot context (which a
//! caller with no session passes to every join), its fork and a session of
//! a default (shared-cache) engine each allocate nothing.
//!
//! And the operands of a request cost nothing per member: a [`NodeSet`] is
//! a shared handle, so cloning one allocates nothing, parsing a query line
//! that names a set allocates the same at `|P|` = 64 and 4 096, and a whole
//! warm in-process request — parse, `Session::run`, wire encoding —
//! allocates independently of `|P|`.  When each parsed line copied its
//! sets, a 4 096-member `P` cost every line 32 KiB (8 B per member).
//!
//! Loading a `.dht` container requests the graph and one 64 KiB chunk
//! buffer, nothing the size of the file: a 20 000-node container with
//! 6 559 208 bytes of CSR arrays loads with 11 allocations of 7 104 752
//! bytes.  Decoding it out of a whole-file image requested 13 598 464.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dht_nway::core::multiway::{NWayAlgorithm, NWayConfig};
use dht_nway::core::queryline::{parse_query_file, parse_query_line, ParseOptions};
use dht_nway::core::twoway::{TwoWayAlgorithm, TwoWayConfig};
use dht_nway::core::QueryCtx;
use dht_nway::graph::binfmt;
use dht_nway::graph::generators::barabasi_albert;
use dht_nway::prelude::*;
use dht_nway::server::wire::encode_output;

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

#[test]
fn opening_a_one_shot_context_or_a_session_allocates_nothing() {
    let mut ctx = None;
    assert_eq!(allocations_of(|| ctx = Some(QueryCtx::one_shot())), (0, 0));
    let ctx = ctx.expect("built");
    let mut fork = None;
    assert_eq!(allocations_of(|| fork = Some(ctx.fork())), (0, 0));
    assert!(fork.expect("forked").shared_cache().is_none());

    let engine = Engine::new(barabasi_albert(200, 3, 7));
    let mut session = None;
    assert_eq!(allocations_of(|| session = Some(engine.session())), (0, 0));
    let mut session = session.expect("opened");
    assert!(Arc::ptr_eq(
        session.ctx_mut().shared_cache().expect("a caching session"),
        engine
            .shared_cache()
            .expect("a default engine shares its cache")
    ));
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

/// The line every operand test parses: a B-BJ join of `P` against the
/// 8-node `C`.
const LINE: &str = "P C 10 b-bj";

/// A catalogue of `P` = 1 000 .. 1 000 + `size` and `C` = 9 990 .. 9 998.
/// Every id has four digits, so answers encode to lines of one length
/// whatever `|P|` is.
fn catalogue(size: u32) -> Vec<NodeSet> {
    const BASE: u32 = 1_000;
    vec![set("P", BASE..BASE + size), set("C", 9_990..9_998)]
}

#[test]
fn cloning_a_node_set_allocates_nothing() {
    let p = set("P", 0..4_096);
    let mut copy = None;
    assert_eq!(allocations_of(|| copy = Some(p.clone())), (0, 0));
    assert_eq!(copy.expect("cloned"), p);
}

#[test]
fn parsing_a_line_allocates_independently_of_the_size_of_its_sets() {
    let options = ParseOptions::default();
    let counts: Vec<(u64, u64)> = [64u32, 4_096]
        .into_iter()
        .map(|size| {
            let sets = catalogue(size);
            let mut parsed = None;
            let counted = allocations_of(|| {
                parsed = Some(parse_query_line(LINE, &sets, &options, 1));
            });
            let parsed = parsed.expect("ran").expect("valid line").expect("a query");
            let QuerySpec::TwoWay(spec) = &parsed.spec else {
                panic!("a two-way line");
            };
            assert_eq!(spec.p.members().as_ptr(), sets[0].members().as_ptr());
            counted
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "(calls, bytes) parsing `{LINE}` at |P| = 64 / 4096"
    );
}

#[test]
fn a_parsed_query_file_holds_no_copy_of_its_sets() {
    const LINES: u64 = 1_024;
    const SIZE: u32 = 4_096;
    let sets = catalogue(SIZE);
    let text = format!("{LINE}\n").repeat(LINES as usize);
    let mut parsed = None;
    let (_, bytes) = allocations_of(|| {
        parsed = Some(parse_query_file(&text, &sets, &ParseOptions::default()));
    });
    let parsed = parsed.expect("ran").expect("valid file");
    assert_eq!(parsed.len() as u64, LINES);
    // One copy of `P` — its members and its position index, 4 B each per
    // member — is `|P| × 8` bytes.
    let copy = u64::from(SIZE) * 8;
    assert!(
        bytes < LINES * copy,
        "parsing {LINES} lines allocated {bytes} bytes, {} per line \
         (one copy of P is {copy})",
        bytes / LINES
    );
}

#[test]
fn a_warm_request_allocates_independently_of_the_size_of_p() {
    let engine = Engine::with_config(
        barabasi_albert(10_000, 3, 7),
        EngineConfig::paper_default().with_threads(1),
    );
    let options = ParseOptions::default();
    let mut counts = Vec::new();
    for size in [64u32, 4_096] {
        let sets = catalogue(size);
        let mut session = engine.session();
        let request = |session: &mut Session<'_>| {
            let parsed = parse_query_line(LINE, &sets, &options, 1)
                .expect("valid line")
                .expect("a query");
            encode_output(&session.run(&parsed.spec).expect("valid spec"))
        };
        // The first requests fill the cache and settle its LRU queue.
        let settled = (0..3)
            .map(|_| request(&mut session))
            .last()
            .expect("three runs");
        let mut warm = None;
        counts.push(allocations_of(|| warm = Some(request(&mut session))));
        assert_eq!(warm.expect("ran"), settled);
        assert!(settled.starts_with("TWOWAY 10 "), "{settled}");
    }
    assert_eq!(
        counts[0], counts[1],
        "(calls, bytes) of a warm `{LINE}` request at |P| = 64 / 4096"
    );
}

#[test]
fn loading_a_container_requests_the_graph_and_one_chunk_not_a_file_image() {
    let graph = barabasi_albert(20_000, 4, 7);
    let path = std::env::temp_dir().join(format!("dht-alloc-budget-{}.dht", std::process::id()));
    binfmt::write_graph_file(&graph, &path).expect("written");
    let mut loaded = None;
    let (calls, bytes) = allocations_of(|| loaded = Some(binfmt::read_graph_file(&path)));
    std::fs::remove_file(&path).ok();
    let loaded = loaded.expect("ran").expect("loads");
    assert_eq!(loaded.forward_csr(), graph.forward_csr());
    assert_eq!(loaded.reverse_csr(), graph.reverse_csr());

    // Forward and reverse: offsets, neighbour ids, weights, probabilities.
    let (nodes, edges) = (graph.node_count() as u64, graph.edge_count() as u64);
    let arrays = 2 * ((nodes + 1) * 4 + edges * (4 + 8 + 8));
    let labels = nodes * std::mem::size_of::<Option<String>>() as u64;
    let budget = arrays + labels + (256 << 10);
    assert!(
        bytes <= budget && calls < 64,
        "loading a {arrays}-byte graph made {calls} allocations of {bytes} bytes \
         (budget {budget} bytes, under 64 calls)"
    );
}
