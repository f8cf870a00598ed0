//! Regenerates every table and figure of the paper's evaluation in one run,
//! runs the `server_overload` hostile-client scenario, and writes a
//! machine-readable `BENCH_results.json` of what ran.
//!
//! Usage:
//! ```text
//! cargo run -p dht-bench --release --bin repro_all -- --scale tiny
//! DHT_SCALE=bench cargo run -p dht-bench --release --bin repro_all
//! ```
//! The scale can be `tiny` (seconds), `bench` (minutes, the default) or
//! `full` (paper-scale graphs; the forward baselines then take as long as
//! they did for the authors).  `--scale` wins over `DHT_SCALE`.
//!
//! The JSON report contains a `host` block (so timings from heterogeneous
//! runners stay interpretable), the wall-clock seconds of each experiment,
//! the `server_overload` hostile-mix isolation block, and a walk-engine
//! ablation (dense-serial seed path vs sparse-serial vs sparse
//! multi-threaded) on the Figure 9 two-way Yeast workload.
//!
//! The run gates itself: the process exits non-zero when `server_overload`
//! loses bit-exactness or isolation (see [`exit_status`]), so CI needs no
//! separate checker.  Performance is gated elsewhere — `benchmark compare`
//! with per-metric bounds (see `benchmark/README.md`).

use std::fmt::Write as _;
use std::process::ExitCode;

use dht_bench::experiments::server_overload::{self, ServerOverloadResult};
use dht_bench::{timing, workloads};
use dht_core::twoway::{TwoWayAlgorithm, TwoWayConfig};
use dht_datasets::Scale;
use dht_walks::WalkEngine;

/// Worker-thread count of the multi-threaded ablation rows.
const ABLATION_THREADS: usize = 4;

fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--scale" {
            let Some(name) = iter.next() else {
                eprintln!("--scale expects a value (tiny, bench or full)");
                std::process::exit(2);
            };
            match dht_bench::parse_scale(name) {
                Some(scale) => return scale,
                None => {
                    eprintln!("unknown scale '{name}' (expected tiny, bench or full)");
                    std::process::exit(2);
                }
            }
        }
    }
    dht_bench::scale_from_env()
}

/// The process exit status: `0` only when every well-behaved
/// `server_overload` answer was bit-identical to the in-process one **and**
/// no well-behaved connection saw `ERR QUOTA` / `ERR DEADLINE`.
fn exit_status(bitwise: bool, isolated: bool) -> u8 {
    u8::from(!(bitwise && isolated))
}

fn main() -> ExitCode {
    let scale = scale_from_args();
    eprintln!("running all experiments at scale '{}'", scale.name());

    type Experiment = (&'static str, fn(Scale) -> String);
    let experiments: [Experiment; 7] = [
        ("table3", dht_bench::experiments::table3::run),
        ("table4", dht_bench::experiments::table4::run),
        ("fig6", dht_bench::experiments::fig6::run),
        ("fig7", dht_bench::experiments::fig7::run),
        ("fig8", dht_bench::experiments::fig8::run),
        ("fig9", dht_bench::experiments::fig9::run),
        ("fig10", dht_bench::experiments::fig10::run),
    ];

    let mut timings: Vec<(String, f64)> = Vec::new();
    for (name, run) in experiments {
        let (report, elapsed) = timing::time(|| run(scale));
        println!("{report}");
        timings.push((name.to_string(), elapsed.as_secs_f64()));
    }

    // The overload scenario also feeds its own JSON block, so it is
    // measured once and reported from the result.
    let (overload, elapsed) = timing::time(|| server_overload::measure(scale));
    eprintln!(
        "server_overload: {} conns x {} reqs vs {} hostile on {} workers, {:.4} s \
         (well-behaved p99 {:.4} ms, {} hostile quota refusals, isolated {}, throttled {})",
        overload.connections,
        overload.requests_per_connection,
        overload.hostile_connections,
        overload.workers,
        overload.seconds,
        overload.p99_ms,
        overload.hostile_quota,
        overload.isolated(),
        overload.throttled()
    );
    timings.push(("server_overload".to_string(), elapsed.as_secs_f64()));

    let ablation = engine_ablation(scale);
    let json = render_json(scale, &timings, &overload, &ablation);
    let path = "BENCH_results.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }

    let status = exit_status(overload.bitwise, overload.isolated());
    if status != 0 {
        eprintln!(
            "FAILED: server_overload bitwise {} / isolated {}",
            overload.bitwise,
            overload.isolated()
        );
    }
    ExitCode::from(status)
}

/// One measured configuration of the walk-engine ablation.
struct AblationRow {
    algorithm: &'static str,
    mode: &'static str,
    seconds: f64,
}

/// Times the three engine modes on the Figure 9 two-way Yeast workload
/// (`P ⋈ Q`, k = 50, paper defaults) for the three representative join
/// algorithms.  The dense-serial rows reproduce the seed's execution path.
fn engine_ablation(scale: Scale) -> Vec<AblationRow> {
    let dataset = workloads::yeast(scale);
    let cap = match scale {
        Scale::Tiny => 25,
        _ => 60,
    };
    let (p, q) = workloads::link_prediction_sets(&dataset, cap);
    let modes: [(&'static str, WalkEngine, usize); 3] = [
        ("dense-serial", WalkEngine::Dense, 1),
        ("sparse-serial", WalkEngine::Sparse, 1),
        ("sparse-4threads", WalkEngine::Sparse, ABLATION_THREADS),
    ];
    let mut rows = Vec::new();
    eprintln!("walk-engine ablation (fig9 two-way Yeast workload):");
    for algorithm in [
        TwoWayAlgorithm::ForwardBasic,
        TwoWayAlgorithm::BackwardBasic,
        TwoWayAlgorithm::BackwardIdjY,
    ] {
        for (mode, engine, threads) in modes {
            let config = TwoWayConfig::paper_default()
                .with_engine(engine)
                .with_threads(threads);
            let (_, elapsed) =
                timing::time_avg(3, || algorithm.top_k(&dataset.graph, &config, &p, &q, 50));
            let seconds = elapsed.as_secs_f64();
            eprintln!("  {:>8} {:<16} {seconds:.4} s", algorithm.name(), mode);
            rows.push(AblationRow {
                algorithm: algorithm.name(),
                mode,
                seconds,
            });
        }
    }
    rows
}

/// Hand-rolled JSON rendering (the workspace is dependency-free); all
/// strings written here are plain ASCII identifiers, so no escaping is
/// needed.
fn render_json(
    scale: Scale,
    timings: &[(String, f64)],
    overload: &ServerOverloadResult,
    ablation: &[AblationRow],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.name());
    // Host metadata: perf numbers from heterogeneous runners are only
    // comparable when the core budget is recorded next to them.
    out.push_str("  \"host\": {\n");
    let logical_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(out, "    \"logical_cores\": {logical_cores},");
    let _ = writeln!(out, "    \"ablation_threads\": {ABLATION_THREADS}");
    out.push_str("  },\n");
    out.push_str("  \"experiments\": [\n");
    for (i, (name, seconds)) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"seconds\": {seconds:.6}}}{comma}"
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"server_overload\": {\n");
    out.push_str("    \"workload\": \"yeast_loopback_tcp_hostile_mix\",\n");
    let _ = writeln!(out, "    \"connections\": {},", overload.connections);
    let _ = writeln!(
        out,
        "    \"requests_per_connection\": {},",
        overload.requests_per_connection
    );
    let _ = writeln!(
        out,
        "    \"hostile_connections\": {},",
        overload.hostile_connections
    );
    let _ = writeln!(out, "    \"workers\": {},", overload.workers);
    let _ = writeln!(out, "    \"seconds\": {:.6},", overload.seconds);
    let _ = writeln!(out, "    \"throughput_rps\": {:.3},", overload.throughput());
    let _ = writeln!(out, "    \"p50_ms\": {:.4},", overload.p50_ms);
    let _ = writeln!(out, "    \"p99_ms\": {:.4},", overload.p99_ms);
    let _ = writeln!(out, "    \"hostile_sent\": {},", overload.hostile_sent);
    let _ = writeln!(
        out,
        "    \"hostile_quota_rejections\": {},",
        overload.hostile_quota
    );
    let _ = writeln!(
        out,
        "    \"hostile_busy_rejections\": {},",
        overload.hostile_busy
    );
    let _ = writeln!(
        out,
        "    \"hostile_disconnects\": {},",
        overload.hostile_disconnects
    );
    // Throttling evidence is reported but not gated (load-dependent);
    // the two flags below decide the exit status: bit-exact answers AND
    // zero well-behaved quota/deadline errors under attack.
    let _ = writeln!(out, "    \"throttled\": {},", overload.throttled());
    let _ = writeln!(out, "    \"bitwise\": {},", overload.bitwise);
    let _ = writeln!(out, "    \"isolated\": {}", overload.isolated());
    out.push_str("  },\n");
    out.push_str("  \"engine_ablation\": {\n");
    out.push_str("    \"workload\": \"fig9_twoway_yeast_k50\",\n");
    out.push_str("    \"rows\": [\n");
    for (i, row) in ablation.iter().enumerate() {
        let comma = if i + 1 < ablation.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"algorithm\": \"{}\", \"mode\": \"{}\", \"seconds\": {:.6}}}{comma}",
            row.algorithm, row.mode, row.seconds
        );
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::exit_status;

    #[test]
    fn exit_status_is_zero_only_when_bitwise_and_isolated() {
        assert_eq!(exit_status(true, true), 0);
        assert_ne!(exit_status(false, true), 0);
        assert_ne!(exit_status(true, false), 0);
        assert_ne!(exit_status(false, false), 0);
    }
}
