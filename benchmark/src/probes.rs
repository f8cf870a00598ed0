//! Per-layer probes: each times calls into one layer's public functions
//! on the workload's own graph, sets and query stream, on a private
//! engine, so the numbers sit beside the traced replay without touching
//! it.  Every probe is bounded by a sample count and a time cap.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dht_core::multiway::NWayAlgorithm;
use dht_core::queryline::{parse_query_line, ParseOptions};
use dht_core::twoway::TwoWayAlgorithm;
use dht_core::{AlgorithmChoice, NWaySpec, QueryCtx, QuerySpec, TwoWaySpec};
use dht_engine::{Engine, EngineConfig, EngineOutput};
use dht_graph::NodeId;
use dht_rankjoin::TopKBuffer;
use dht_server::wire::encode_output;
use dht_walks::{column_bytes, SharedColumnCache};

use crate::catalog::Metrics;
use crate::inputs::{self, InputFiles};
use crate::stats::{median, Rng};
use crate::system::Loaded;

/// Longest any single probe keeps sampling.
const PROBE_CAP: Duration = Duration::from_millis(400);

/// Bytes of CSR a walk step streams per edge it crosses: the 4-byte
/// neighbour id and the 8-byte transition probability.
const CSR_BYTES_PER_EDGE: f64 = 12.0;

/// Calls `f` up to `max` times (at least twice, so a median exists) or
/// until [`PROBE_CAP`] is spent; returns each call's seconds.
fn sample(max: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::with_capacity(max);
    for i in 0..max {
        let t = Instant::now();
        f(i);
        times.push(t.elapsed().as_secs_f64());
        if i >= 1 && started.elapsed() > PROBE_CAP {
            break;
        }
    }
    times
}

fn two_way_specs(loaded: &Loaded) -> Vec<&TwoWaySpec> {
    loaded
        .distinct_specs()
        .iter()
        .filter_map(|s| match s {
            QuerySpec::TwoWay(s) => Some(s),
            QuerySpec::NWay(_) => None,
        })
        .collect()
}

fn n_way_specs(loaded: &Loaded) -> Vec<&NWaySpec> {
    loaded
        .distinct_specs()
        .iter()
        .filter_map(|s| match s {
            QuerySpec::NWay(s) => Some(s),
            QuerySpec::TwoWay(_) => None,
        })
        .collect()
}

/// The first `count` distinct walk targets the stream names.
fn stream_targets(loaded: &Loaded, count: usize) -> Vec<NodeId> {
    let mut seen = std::collections::HashSet::new();
    let mut targets = Vec::new();
    for spec in two_way_specs(loaded) {
        for node in spec.q.iter() {
            if seen.insert(node) {
                targets.push(node);
                if targets.len() == count {
                    return targets;
                }
            }
        }
    }
    targets
}

/// `graph.*` and `engine.new_s`: three loads of the container, each
/// followed by a fresh `Engine::with_config`; the last engine is kept for
/// the other probes.
fn graph_and_engine(files: &InputFiles, m: &mut Metrics) -> Result<Engine, String> {
    let mut load = Vec::new();
    let mut new = Vec::new();
    let mut engine = None;
    for _ in 0..3 {
        drop(engine.take());
        let t = Instant::now();
        let graph = inputs::load_graph(files)?;
        load.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        engine = Some(Engine::with_config(graph, EngineConfig::paper_default()));
        new.push(t.elapsed().as_secs_f64());
    }
    let engine = engine.expect("three engines were built");
    let file_bytes = std::fs::metadata(&files.graph).map_or(0, |meta| meta.len());
    m.set("graph.load_s", median(&load));
    m.set("engine.new_s", median(&new));
    m.set(
        "graph.bytes_per_edge",
        file_bytes as f64 / engine.graph().edge_count().max(1) as f64,
    );
    Ok(engine)
}

/// `walks.*` and `par.scaling_2t`: cold column and Y-table builds through
/// `QueryCtx`, one-shot so nothing is served from a cache.
fn walks(engine: &Engine, loaded: &Loaded, m: &mut Metrics) {
    let graph = engine.graph();
    let cfg = *engine.config();
    let targets = stream_targets(loaded, 32);
    if targets.is_empty() {
        return;
    }
    let mut ctx = QueryCtx::one_shot();
    let column_s = median(&sample(targets.len(), |i| {
        std::hint::black_box(ctx.backward_column(
            graph,
            &cfg.params,
            targets[i],
            cfg.d,
            cfg.engine,
        ));
    }));
    m.set("walks.column_ms", column_s * 1e3);
    // Computed, not counted: a d-step backward walk crosses at most every
    // directed edge once per step.
    let edge_rate = (cfg.d * graph.edge_count()) as f64 / column_s.max(1e-12);
    m.set("walks.edge_rate", edge_rate);
    m.set("walks.computed_gbps", edge_rate * CSR_BYTES_PER_EDGE / 1e9);

    let specs = two_way_specs(loaded);
    let mut left_sets = Vec::new();
    for spec in &specs {
        if !left_sets
            .iter()
            .any(|p: &&dht_graph::NodeSet| p.name() == spec.p.name())
        {
            left_sets.push(&spec.p);
        }
        if left_sets.len() == 4 {
            break;
        }
    }
    let ytable = sample(left_sets.len().max(2), |i| {
        let p = left_sets[i % left_sets.len()];
        std::hint::black_box(ctx.y_bound_table(graph, &cfg.params, p, cfg.d, cfg.engine, 1));
    });
    m.set("walks.ytable_ms", median(&ytable) * 1e3);

    // dht-par: the same eight cold columns on one thread and on two.
    let batch: Vec<NodeId> = targets.iter().copied().cycle().take(8).collect();
    let mut build = |threads: usize| {
        median(&sample(3, |_| {
            ctx.for_each_backward_column(
                graph,
                &cfg.params,
                cfg.d,
                cfg.engine,
                threads,
                &batch,
                |_, column| {
                    std::hint::black_box(column.len());
                },
            );
        }))
    };
    let one = build(1);
    let two = build(2);
    m.set("par.scaling_2t", one / two.max(1e-12));
}

/// `cache.{hit_fetch,insert,contended_fetch}_us` on a private
/// `SharedColumnCache` sized and striped like the engine's.
fn cache(engine: &Engine, m: &mut Metrics) {
    let nodes = engine.graph().node_count();
    let budget = engine.config().cache_bytes;
    let cache = Arc::new(SharedColumnCache::for_columns(budget, nodes));
    let column: Arc<[f64]> = vec![0.5f64; nodes].into();
    // Half of what fits, so inserting never evicts what `get` will ask for.
    let resident = (budget / column_bytes(nodes) / 2).clamp(1, 64) as u32;
    const SIG: u64 = 0x0bad_cafe;
    let insert = sample(resident as usize, |i| {
        cache.insert(SIG, i as u32, column.clone());
    });
    m.set("cache.insert_us", median(&insert) * 1e6);

    const GETS: usize = 20_000;
    let fetch = |cache: &SharedColumnCache| {
        let t = Instant::now();
        for i in 0..GETS {
            std::hint::black_box(cache.get(SIG, i as u32 % resident));
        }
        t.elapsed().as_secs_f64() / GETS as f64
    };
    let quiet: Vec<f64> = (0..5).map(|_| fetch(&cache)).collect();
    m.set("cache.hit_fetch_us", median(&quiet) * 1e6);

    // The same fetch loop while a second thread keeps inserting (and so
    // evicting) under other keys in the same stripes.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let cache = cache.clone();
        let column = column.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut key = resident;
            while !stop.load(Ordering::Relaxed) {
                cache.insert(SIG ^ 1, key, column.clone());
                key = key.wrapping_add(1);
            }
        })
    };
    let contended: Vec<f64> = (0..5).map(|_| fetch(&cache)).collect();
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("cache writer panicked");
    m.set("cache.contended_fetch_us", median(&contended) * 1e6);
}

/// `core.*`, `rankjoin.*`, `engine.*` and `server.encode_us`: parse, the
/// join entry points on resident columns, `Session::{explain,run}`, and
/// the counters the join outputs carry.
fn joins(engine: &Engine, loaded: &Loaded, m: &mut Metrics) {
    let graph = engine.graph();
    let options = ParseOptions::default();
    let lines = &loaded.lines[..loaded.lines.len().min(512)];
    let parse = sample(3, |_| {
        for (i, line) in lines.iter().enumerate() {
            std::hint::black_box(parse_query_line(line, &loaded.sets, &options, i + 1).ok());
        }
    });
    m.set(
        "core.parse_us",
        median(&parse) / lines.len().max(1) as f64 * 1e6,
    );

    // Counters of the join outputs over a sample of the stream, on a warm
    // session (the counters track logical work, not cache temperature).
    let mut session = engine.session();
    let started = Instant::now();
    let (mut queries, mut answers) = (0u64, 0u64);
    let (mut steps, mut scored, mut candidates, mut pulled, mut nway_answers) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut encode = Vec::new();
    for spec in (0..loaded.lines.len().min(256)).map(|i| loaded.spec(i)) {
        let Ok(output) = session.run(spec) else {
            continue;
        };
        queries += 1;
        answers += output.answer_count() as u64;
        match &output {
            EngineOutput::TwoWay(out) => {
                steps += out.stats.walk_steps;
                scored += out.stats.pairs_scored;
                candidates += out.stats.pairs_scored;
            }
            EngineOutput::NWay(out) => {
                steps += out.stats.two_way.walk_steps;
                scored += out.stats.two_way.pairs_scored;
                candidates += out.stats.candidates_generated;
                pulled += out.stats.pairs_pulled;
                nway_answers += out.answers.len() as u64;
            }
        }
        let t = Instant::now();
        std::hint::black_box(encode_output(&output));
        encode.push(t.elapsed().as_secs_f64());
        if started.elapsed() > 2 * PROBE_CAP {
            break;
        }
    }
    let per = |total: u64, over: u64| total as f64 / over.max(1) as f64;
    m.set("walks.steps_per_query", per(steps, queries));
    m.set("core.pairs_scored_per_query", per(scored, queries));
    m.set("core.candidates_per_answer", per(candidates, answers));
    m.set(
        "rankjoin.pairs_pulled_per_answer",
        per(pulled, nway_answers),
    );
    m.set("server.encode_us", median(&encode) * 1e6);

    // Join entry points on resident columns: the first distinct specs of
    // the stream, each algorithm through one warm private context whose
    // cache is large enough that nothing it is asked for is ever evicted.
    let mut resident = QueryCtx::with_byte_budget(usize::MAX / 2);
    let two_way = two_way_specs(loaded);
    let probes: Vec<&TwoWaySpec> = two_way.iter().take(4).copied().collect();
    let cfg = engine.two_way_config();
    let mut two_way_ms = |algorithm: TwoWayAlgorithm| -> f64 {
        if probes.is_empty() {
            return 0.0;
        }
        let ctx = &mut resident;
        for spec in &probes {
            algorithm.top_k_with_ctx(graph, &cfg, &spec.p, &spec.q, spec.k, ctx);
        }
        median(&sample(64, |i| {
            let spec = probes[i % probes.len()];
            std::hint::black_box(
                algorithm.top_k_with_ctx(graph, &cfg, &spec.p, &spec.q, spec.k, ctx),
            );
        })) * 1e3
    };
    m.set(
        "core.twoway_ms.b-bj",
        two_way_ms(TwoWayAlgorithm::BackwardBasic),
    );
    m.set(
        "core.twoway_ms.b-idj-x",
        two_way_ms(TwoWayAlgorithm::BackwardIdjX),
    );
    m.set(
        "core.twoway_ms.b-idj-y",
        two_way_ms(TwoWayAlgorithm::BackwardIdjY),
    );

    // Each n-way algorithm on the first line of the stream pinned to it
    // (0 when the stream has none).
    let n_way = n_way_specs(loaded);
    let m_param = options.m;
    let mut n_way_ms = |algorithm: NWayAlgorithm| -> f64 {
        let pinned = AlgorithmChoice::Fixed(algorithm);
        let Some(spec) = n_way.iter().find(|s| s.algorithm == pinned) else {
            return 0.0;
        };
        let cfg = engine.n_way_config(spec.aggregate, spec.k);
        let ctx = &mut resident;
        let _ = algorithm.run_with_ctx(graph, &cfg, &spec.query, &spec.sets, ctx);
        median(&sample(16, |_| {
            std::hint::black_box(
                algorithm
                    .run_with_ctx(graph, &cfg, &spec.query, &spec.sets, ctx)
                    .ok(),
            );
        })) * 1e3
    };
    m.set("core.nway_ms.ap", n_way_ms(NWayAlgorithm::AllPairs));
    m.set(
        "core.nway_ms.pj",
        n_way_ms(NWayAlgorithm::PartialJoin { m: m_param }),
    );
    m.set(
        "core.nway_ms.pj-i",
        n_way_ms(NWayAlgorithm::IncrementalPartialJoin { m: m_param }),
    );

    // Engine: what `Session::run` adds over the direct core call, what a
    // plan costs, and how `auto` compares with the best pinned algorithm.
    if let Some(spec) = probes.first() {
        let pinned = |algorithm| QuerySpec::TwoWay((*spec).clone().with_fixed(algorithm));
        let auto = QuerySpec::TwoWay((*spec).clone().with_algorithm(AlgorithmChoice::Auto));
        let mut run_ms = |query: &QuerySpec| {
            let _ = session.run(query);
            median(&sample(64, |_| {
                std::hint::black_box(session.run(query).ok());
            })) * 1e3
        };
        let via_session = run_ms(&pinned(TwoWayAlgorithm::BackwardBasic));
        let best = [TwoWayAlgorithm::BackwardIdjX, TwoWayAlgorithm::BackwardIdjY]
            .into_iter()
            .map(|algorithm| run_ms(&pinned(algorithm)))
            .fold(via_session, f64::min);
        m.set("engine.auto_vs_best", run_ms(&auto) / best.max(1e-9));
        let ctx = session.ctx_mut();
        let direct = median(&sample(64, |_| {
            std::hint::black_box(
                TwoWayAlgorithm::BackwardBasic
                    .top_k_with_ctx(graph, &cfg, &spec.p, &spec.q, spec.k, ctx),
            );
        })) * 1e3;
        m.set("engine.run_overhead_us", (via_session - direct) * 1e3);
        let plan = sample(256, |_| {
            std::hint::black_box(session.explain(&auto).ok());
        });
        m.set("engine.plan_us", median(&plan) * 1e6);
    }
}

/// `rankjoin.topk_push_ns`: pushes into a `k = 10` buffer, the shape every
/// two-way join of the streams uses.
fn rankjoin(m: &mut Metrics) {
    const PUSHES: usize = 100_000;
    let mut rng = Rng::new(10);
    let scores: Vec<f64> = (0..PUSHES).map(|_| rng.unit()).collect();
    let per_push = median(&sample(5, |_| {
        let mut buffer = TopKBuffer::new(10);
        for (i, &score) in scores.iter().enumerate() {
            buffer.insert(score, (i as u32, 0u32));
        }
        std::hint::black_box(buffer.len());
    })) / PUSHES as f64;
    m.set("rankjoin.topk_push_ns", per_push * 1e9);
}

/// Median `Session::run` latency of the stream on a warm session, ms: the
/// in-process baseline `server.hop_ms` is measured against.
fn in_process_p50_ms(engine: &Engine, loaded: &Loaded) -> f64 {
    let mut session = engine.session();
    let started = Instant::now();
    let mut times = Vec::new();
    for spec in (0..loaded.lines.len().min(256)).map(|i| loaded.spec(i)) {
        let t = Instant::now();
        std::hint::black_box(session.run(spec).ok());
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if started.elapsed() > 2 * PROBE_CAP {
            break;
        }
    }
    median(&times)
}

/// Runs every probe against the workload's files; returns the in-process
/// median latency of the stream (ms).
pub fn run_all(files: &InputFiles, loaded: &Loaded, m: &mut Metrics) -> Result<f64, String> {
    let engine = graph_and_engine(files, m)?;
    walks(&engine, loaded, m);
    cache(&engine, m);
    joins(&engine, loaded, m);
    rankjoin(m);
    Ok(in_process_p50_ms(&engine, loaded))
}
