//! The `--trace 1` run: per-layer probes, a traced replay of the stream,
//! the span file, and the per-layer metrics drawn from them.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dht_obs::Phase;
use dht_walks::column_bytes;

use crate::catalog::Metrics;
use crate::drive::{stall_share, Driver, PhaseResult, Sample, Until};
use crate::inputs::{InputFiles, Shape};
use crate::run::{
    fold_first_pass, latencies_ms, session_driver, verify_answers, wire_driver, Outcome, RunArgs,
    SETTLE_IN_PROCESS_S, SETTLE_MAX_S, SETTLE_WIRE_S,
};
use crate::spans::{summarize, SpanLog, LAYERS};
use crate::stats::{self, median};
use crate::system::{set_up, Loaded, Phases, Requester, SetUp, System, WireClient};
use crate::{host, out_dir, probes};

/// Fewest requests of a traced replay.
const TRACED_MIN: usize = 200;

/// Sum of the samples of `family` in a METRICS exposition whose label set
/// contains every string of `labels`.
fn exposition_sum(text: &str, family: &str, labels: &[&str]) -> f64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
                && labels.iter().all(|label| line.contains(label))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Appends one request's span tree to `log`.  Durations below
/// `client.request` come from the program's own phase totals; a cache hit
/// (which the program only counts) is given the probed cost of a fetch.
fn request_spans(log: &mut SpanLog, sample: &Sample, phases: &Phases, shape: Shape, hit_us: f64) {
    let wire = !matches!(shape, Shape::InProcess { .. });
    let routed = shape == Shape::Routed;
    let start = sample.done_us - sample.latency_us();
    let (mut t, root) = log.begin(start, sample.done_us);
    let mut parent = root;
    if routed {
        parent = t.child(parent, "router", "hop", sample.latency_us());
    }
    let us = |phase: Phase| phases.ms(phase) * 1e3;
    if wire {
        parent = t.child(parent, "server", "request", phases.total_ms * 1e3);
        t.child(parent, "server", "parse", us(Phase::Parse));
        t.child(parent, "server", "queue", us(Phase::QueueWait));
    }
    // In process the benchmark times `Session::run` itself; on the wire
    // the run is what the server reports as plan + join.
    let run_us = if wire {
        us(Phase::Plan) + us(Phase::Join)
    } else {
        sample.latency_us()
    };
    let run = t.child(parent, "engine", "run", run_us);
    if phases.count(Phase::Plan) > 0 {
        t.child(run, "engine", "plan", us(Phase::Plan));
    }
    let join = t.child(run, "core", "join", us(Phase::Join));
    if phases.count(Phase::ColumnBuild) > 0 {
        t.child(join, "walks", "column_build", us(Phase::ColumnBuild));
    }
    if phases.count(Phase::YBuild) > 0 {
        t.child(join, "walks", "y_build", us(Phase::YBuild));
    }
    if phases.count(Phase::ColumnHit) > 0 {
        let hits = phases.count(Phase::ColumnHit) as f64;
        t.child(join, "cache", "column_hit", hits * hit_us);
    }
    if phases.count(Phase::YHit) > 0 {
        let hits = phases.count(Phase::YHit) as f64;
        t.child(join, "cache", "y_hit", hits * hit_us);
    }
    if phases.count(Phase::TopK) > 0 {
        t.child(join, "rankjoin", "topk", us(Phase::TopK));
    }
    if wire {
        t.child(parent, "server", "serialize", us(Phase::Serialize));
    }
}

/// Runs `driver` for `seconds` and on until `at_least` requests are in.
fn replay<R: Requester>(driver: &mut Driver<R>, seconds: f64, at_least: usize) -> PhaseResult {
    let result = driver.run(Until::Elapsed(Duration::from_secs_f64(seconds)));
    if result.answered < at_least {
        let missing = at_least - result.answered;
        return result.followed_by(driver.run(Until::Requests(missing)));
    }
    result
}

fn rate(result: &PhaseResult) -> f64 {
    result.answered as f64 / result.elapsed.as_secs_f64().max(1e-9)
}

fn phase_median(samples: &[Sample], f: impl Fn(&Sample, &Phases) -> f64) -> f64 {
    let values: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.phases.as_deref().map(|p| f(s, p)))
        .collect();
    median(&values)
}

/// Cache counters of an engine or of a wire system's servers (summed).
#[derive(Default, Clone, Copy)]
struct CacheCounters {
    hits: f64,
    misses: f64,
    y_hits: f64,
    y_misses: f64,
    evictions: f64,
}

impl CacheCounters {
    fn of_engine(engine: &dht_engine::Engine) -> CacheCounters {
        let cache = engine.shared_cache_stats().unwrap_or_default();
        let (y_hits, y_misses) = engine.shared_y_table_stats().unwrap_or_default();
        CacheCounters {
            hits: cache.hits as f64,
            misses: cache.misses as f64,
            y_hits: y_hits as f64,
            y_misses: y_misses as f64,
            evictions: cache.evictions as f64,
        }
    }

    /// `STATS` for hits and misses, `METRICS` for evictions, which `STATS`
    /// does not carry.
    fn of_servers(system: &System) -> Result<CacheCounters, String> {
        let mut c = CacheCounters::default();
        for server in system.servers() {
            let stats = server.stats();
            c.hits += stats.column_hits as f64;
            c.misses += stats.column_misses as f64;
            c.y_hits += stats.y_hits as f64;
            c.y_misses += stats.y_misses as f64;
            let text = WireClient::connect(server.local_addr())
                .map_err(|e| format!("scrape connect: {e}"))?
                .scrape()?;
            c.evictions += exposition_sum(&text, "dht_shared_cache", &["event=\"eviction\""]);
        }
        Ok(c)
    }

    /// The `cache.*` and `walks.columns_built_per_query` metrics of the
    /// `queries` answered between `before` and `self`.
    fn record(&self, before: &CacheCounters, queries: usize, m: &mut Metrics) {
        let queries = queries.max(1) as f64;
        let (hits, misses) = (self.hits - before.hits, self.misses - before.misses);
        let (y_hits, y_misses) = (self.y_hits - before.y_hits, self.y_misses - before.y_misses);
        m.set("cache.hit_rate", hits / (hits + misses).max(1.0));
        m.set(
            "cache.ytable_hit_rate",
            y_hits / (y_hits + y_misses).max(1.0),
        );
        m.set(
            "cache.evictions_per_query",
            (self.evictions - before.evictions) / queries,
        );
        m.set("walks.columns_built_per_query", misses / queries);
    }
}

/// What the replay of one workload hands back.
struct Replayed {
    untraced: PhaseResult,
    traced: PhaseResult,
    /// Failed requests of phases that are in neither of the two above.
    other_failed: usize,
}

/// Everything a replay reads and writes besides the system itself.
struct ReplayCtx<'a> {
    shape: Shape,
    loaded: &'a Loaded,
    first_pass: usize,
    /// Wall time of the untraced and of the traced pass, seconds.
    share: f64,
    /// Probed cost of one cache fetch, µs (for the computed hit spans).
    hit_us: f64,
    m: &'a mut Metrics,
    log: &'a mut SpanLog,
    notes: &'a mut Vec<String>,
}

/// In process: settle, replay untraced, replay with `Session` tracing on.
fn replay_in_process(
    engine: &dht_engine::Engine,
    sessions: usize,
    ctx: &mut ReplayCtx<'_>,
) -> Replayed {
    let mut driver = session_driver(engine, ctx.loaded, sessions, ctx.first_pass);
    let rates = driver.settle(SETTLE_IN_PROCESS_S, SETTLE_MAX_S);
    let cpu_before = host::process_cpu_ms();
    let untraced = replay(&mut driver, ctx.share, TRACED_MIN / 2);
    ctx.m.set(
        "host.cpu_ms_per_query",
        (host::process_cpu_ms() - cpu_before) / untraced.answered.max(1) as f64,
    );
    let before = CacheCounters::of_engine(engine);
    driver.set_traced(true);
    let cpu_before = host::process_cpu_ms();
    let traced = replay(&mut driver, ctx.share, TRACED_MIN);
    let cpu_ms = host::process_cpu_ms() - cpu_before;
    CacheCounters::of_engine(engine).record(&before, traced.answered, ctx.m);
    ctx.m.set(
        "cache.bytes_used_mb",
        engine.shared_cache().map_or(0, |c| c.bytes_used()) as f64 / (1 << 20) as f64,
    );
    ctx.m
        .set("client.cpu_share", traced.client_cpu_ms / cpu_ms.max(1e-9));
    ctx.m.set("server.stall_share", stall_share(&rates));
    for sample in &traced.samples {
        if let Some(phases) = &sample.phases {
            request_spans(ctx.log, sample, phases, ctx.shape, ctx.hit_us);
        }
    }
    Replayed {
        untraced,
        traced,
        other_failed: 0,
    }
}

/// `router.*` from the router's own counters and its `METRICS` before and
/// after the routed pass.
fn router_metrics(system: &System, before: &str, after: &str, m: &mut Metrics) {
    let delta = |suffix: &str| {
        let name = format!("dht_router_backend_latency_seconds{suffix}");
        exposition_sum(after, &name, &[]) - exposition_sum(before, &name, &[])
    };
    m.set(
        "router.backend_leg_ms",
        delta("_sum") / delta("_count").max(1.0) * 1e3,
    );
    let stats = system.router().expect("routed system has a router").stats();
    m.set(
        "router.fanout_share",
        stats.fanned_out as f64 / stats.served.max(1) as f64,
    );
    m.set("router.shard_errors", stats.shard_errors as f64);
    let reconnects: u64 = stats.backend_health.iter().map(|h| h.reconnects).sum();
    m.set("router.reconnects", reconnects as f64);
}

/// On the wire: settle, replay untraced through the front door, then get
/// the server-side phases from `TRACE` replies — through the same
/// connections for `serve_warm`; for `routed_fleet` straight from backend 0,
/// because `TRACE` cannot cross the router (it relays one line per request
/// and a traced reply has two).  A routed request's span tree is its own
/// `router.hop` over the server-side tree the same line produced direct.
fn replay_on_wire(
    system: &System,
    clients: Vec<WireClient>,
    inproc_p50_ms: f64,
    nodes: usize,
    ctx: &mut ReplayCtx<'_>,
) -> Result<Replayed, String> {
    let routed = ctx.shape == Shape::Routed;
    let mut driver = wire_driver(clients, ctx.loaded, ctx.first_pass);
    let mut rates = driver.settle(SETTLE_WIRE_S, SETTLE_MAX_S);
    let before = CacheCounters::of_servers(system)?;
    let router_before = if routed {
        driver.callers_mut()[0].client.scrape()?
    } else {
        String::new()
    };
    let cpu_before = host::process_cpu_ms();
    let at_least = if routed { TRACED_MIN } else { TRACED_MIN / 2 };
    let front = replay(&mut driver, ctx.share, at_least);
    let cpu_ms = host::process_cpu_ms() - cpu_before;
    rates.extend(front.window_rates());
    ctx.m
        .set("client.cpu_share", front.client_cpu_ms / cpu_ms.max(1e-9));
    ctx.m.set(
        "host.cpu_ms_per_query",
        cpu_ms / front.answered.max(1) as f64,
    );
    let front_p50 = stats::percentile(&latencies_ms(&front.samples), 50.0);
    // Requests the servers answer between the two counter reads.
    let mut served = front.answered;

    let replayed = if routed {
        let direct = WireClient::connect(system.servers()[0].local_addr())
            .map_err(|e| format!("direct connect: {e}"))?;
        let mut direct = wire_driver(vec![direct], ctx.loaded, ctx.first_pass);
        let stream = Until::Requests(ctx.loaded.lines.len());
        let warm_up = direct.run(stream);
        let untraced = direct.run(stream);
        direct.set_traced(true);
        let traced = direct.run(stream);
        served += 3 * ctx.loaded.lines.len();
        let by_line: HashMap<usize, &Sample> =
            traced.samples.iter().map(|s| (s.index(), s)).collect();
        for sample in &front.samples {
            if let Some(phases) = by_line
                .get(&sample.index())
                .and_then(|s| s.phases.as_deref())
            {
                request_spans(ctx.log, sample, phases, ctx.shape, ctx.hit_us);
            }
        }
        let direct_p50 = stats::percentile(&latencies_ms(&untraced.samples), 50.0);
        ctx.m.set("router.hop_ms", front_p50 - direct_p50);
        ctx.m.set("server.hop_ms", direct_p50 - inproc_p50_ms);
        let router_after = driver.callers_mut()[0].client.scrape()?;
        router_metrics(system, &router_before, &router_after, ctx.m);
        Replayed {
            other_failed: front.failed() + warm_up.failed(),
            untraced,
            traced,
        }
    } else {
        driver.set_traced(true);
        let traced = replay(&mut driver, ctx.share, TRACED_MIN);
        driver.set_traced(false);
        served += traced.answered;
        rates.extend(traced.window_rates());
        for sample in &traced.samples {
            if let Some(phases) = &sample.phases {
                request_spans(ctx.log, sample, phases, ctx.shape, ctx.hit_us);
            }
        }
        ctx.m.set("server.hop_ms", front_p50 - inproc_p50_ms);
        Replayed {
            other_failed: 0,
            untraced: front,
            traced,
        }
    };
    ctx.m.set("server.stall_share", stall_share(&rates));
    ctx.notes.push(format!("loaded windows/s {rates:?}"));

    let scrape: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let scraped = driver.callers_mut()[0].client.scrape();
            scraped.map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()?;
    ctx.m.set("obs.scrape_ms", median(&scrape));

    let after = CacheCounters::of_servers(system)?;
    after.record(&before, served, ctx.m);
    // Computed: every miss inserted a column, every eviction dropped one;
    // the servers do not export bytes in use.
    ctx.m.set(
        "cache.bytes_used_mb",
        (after.misses - after.evictions).max(0.0) * column_bytes(nodes) as f64 / (1 << 20) as f64,
    );
    let rejected: u64 = system.servers().iter().map(|s| s.stats().rejected).sum();
    ctx.m.set("server.busy_rejections", rejected as f64);
    let traced = &replayed.traced.samples;
    for (name, phase) in [
        ("server.parse_ms", Phase::Parse),
        ("server.queue_ms", Phase::QueueWait),
        ("server.join_ms", Phase::Join),
        ("server.serialize_ms", Phase::Serialize),
    ] {
        ctx.m.set(name, phase_median(traced, |_, p| p.ms(phase)));
    }
    ctx.m.set(
        "server.unattributed_ms",
        phase_median(traced, |s, p| s.latency_us() / 1e3 - p.total_ms),
    );
    Ok(replayed)
}

/// The `--trace 1` run: per-layer metrics from probes and a traced replay,
/// and the span file.
pub fn traced_run(
    args: &RunArgs,
    files: &InputFiles,
    gen_s: f64,
    load_start: f64,
) -> Result<Outcome, String> {
    let workload = args.workload;
    let mut m = Metrics::default();
    m.set("graph.gen_s", gen_s);
    m.set("host.nproc", host::nproc() as f64);
    m.set("host.load_start", load_start);

    let SetUp {
        system,
        clients,
        loaded,
        times,
        first_pass,
    } = set_up(workload, files)?;
    let (answers_digest, first_digests, first_failed) = fold_first_pass(&first_pass);
    let servers = system.servers().len().max(1) as f64;
    m.set("server.start_s", times.server_start_s / servers);
    m.set("router.start_s", times.router_start_s);

    // Probes first: the span builder needs the cost of a cache fetch.
    let inproc_p50_ms = probes::run_all(files, &loaded, &mut m)?;
    let mut log = SpanLog::default();
    let mut notes = Vec::new();
    let mut ctx = ReplayCtx {
        shape: workload.shape,
        loaded: &loaded,
        first_pass: workload.first_pass,
        share: args.seconds as f64 * 0.3,
        hit_us: m.get("cache.hit_fetch_us"),
        m: &mut m,
        log: &mut log,
        notes: &mut notes,
    };
    let Replayed {
        untraced,
        traced,
        other_failed,
    } = match workload.shape {
        Shape::InProcess { sessions } => {
            let engine = system.engine().expect("in-process system has an engine");
            replay_in_process(engine, sessions, &mut ctx)
        }
        Shape::Served | Shape::Routed => {
            replay_on_wire(&system, clients, inproc_p50_ms, workload.nodes, &mut ctx)?
        }
    };

    // Traced against untraced throughput over the same stream: what
    // measuring costs.
    m.set(
        "obs.trace_overhead_share",
        1.0 - rate(&traced) / rate(&untraced).max(1e-9),
    );
    let failed = first_failed + other_failed + untraced.failed() + traced.failed();
    let attempted = untraced.answered + traced.answered;
    let mut all: Vec<Sample> = untraced.samples;
    all.extend(traced.samples.iter().cloned());
    let wrong = verify_answers(args, files, &loaded, &first_digests, &all, &mut notes)?;
    system.shut_down();

    let summary = summarize(&log.spans);
    m.set("spans.traces", summary.traces as f64);
    m.set("spans.coverage", summary.coverage());
    for (layer, name) in LAYERS.iter().zip([
        "spans.self_share.walks",
        "spans.self_share.cache",
        "spans.self_share.core",
        "spans.self_share.rankjoin",
        "spans.self_share.engine",
        "spans.self_share.server",
        "spans.self_share.router",
    ]) {
        m.set(name, summary.share(layer));
    }
    m.set(
        "spans.self_share.unattributed",
        summary.share("unattributed"),
    );
    m.set("client.samples", traced.answered as f64);
    let span_file = out_dir().join(format!("{}.spans.jsonl", workload.name));
    log.write_jsonl(&span_file)
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        log.spans.len(),
        span_file.display()
    ));
    m.set("host.load_end", host::load_average());

    Ok(Outcome {
        metrics: m,
        attempted: first_pass.len() + attempted,
        failed: failed + wrong,
        correct: failed + wrong == 0,
        noisy: load_start > host::nproc() as f64 / 2.0,
        answers_digest,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_samples_are_summed_by_family_and_label() {
        let text = "# HELP dht_shared_cache x\n\
                    dht_shared_cache{graph=\"default\",event=\"hit\"} 40\n\
                    dht_shared_cache{graph=\"default\",event=\"eviction\"} 3\n\
                    dht_shared_cache{graph=\"other\",event=\"eviction\"} 4\n\
                    dht_shared_cache_total 99\n\
                    dht_router_backend_latency_seconds_sum{backend=\"shard-0\"} 0.5\n";
        assert_eq!(
            exposition_sum(text, "dht_shared_cache", &["event=\"eviction\""]),
            7.0
        );
        assert_eq!(
            exposition_sum(text, "dht_router_backend_latency_seconds_sum", &[]),
            0.5
        );
        assert_eq!(exposition_sum(text, "dht_missing", &[]), 0.0);
    }
}
