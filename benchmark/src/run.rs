//! One benchmark run: generate the inputs, set the system up, measure one
//! workload for the window with tracing off (here) or replay it traced
//! (`traced.rs`), check every answer, print the report and the result line.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use dht_engine::{Engine, EngineConfig};
use dht_server::wire::encode_output;

use crate::catalog::{Metrics, END_TO_END, PER_LAYER};
use crate::drive::{
    stall_share, thirds_disagree, Driver, PhaseResult, Run, Sample, Until, SESSION_LOG_CAP,
    WIRE_LOG_CAP,
};
use crate::inputs::{self, InputFiles, Shape, Workload};
use crate::stats::{self, better_half_mean, fnv1a, line_digest, median, Better, FNV_OFFSET};
use crate::system::{
    set_up, Loaded, Requester, SessionRequester, SetUp, WireClient, WireRequester,
};
use crate::{host, oracle, out_dir, traced, Flags};

/// Set-ups per `--trace 0` run, `setup_s` being their median: at least
/// five, and more (up to 21) while all of them together have taken under a
/// second and a half — a 50-ms set-up is mostly thread starts and socket
/// connects, and five of those do not make a steady median.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 21;
const SETUPS_BUDGET_S: f64 = 1.5;
/// Whole seconds every loop warms up before anything is measured …
pub const SETTLE_IN_PROCESS_S: usize = 3;
/// … five for the wire workloads, whose server can change state under load.
pub const SETTLE_WIRE_S: usize = 5;
/// Longest a loop is given to settle before the run is flagged noisy.
pub const SETTLE_MAX_S: usize = 15;
/// Equal runs of answers the window is cut into; every time-based metric
/// is the mean of the better half of the runs' figures.
const RUNS: usize = 10;
/// Measured answers re-derived on a cache-off session after the window.
const REFERENCE_SAMPLES: usize = 48;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub strict: bool,
}

/// What a run found, beyond its metrics.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub noisy: bool,
    pub answers_digest: u64,
    pub notes: Vec<String>,
}

/// Generates the inputs in a child process, so the generator's memory
/// never shows in this process's peak RSS.  Returns `graph.gen_s`.
fn generate_in_child(args: &RunArgs, dir: &std::path::Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("gen")
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .arg("--dir")
        .arg(dir)
        .output()
        .map_err(|e| format!("spawning the input generator: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "input generator failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("input generator printed no time: {e}"))
}

/// The `gen` subcommand the parent spawns.
pub fn gen_main(flags: &Flags<'_>) -> ExitCode {
    let parsed = (|| {
        let workload = inputs::workload(flags.value("--workload")?)?;
        let seed: u64 = flags.value("--seed")?.parse().ok()?;
        Some((workload, seed, PathBuf::from(flags.value("--dir")?)))
    })();
    let Some((workload, seed, dir)) = parsed else {
        eprintln!("usage: benchmark gen --workload <name> --seed <n> --dir <path>");
        return ExitCode::from(2);
    };
    match inputs::generate(workload, seed, &dir) {
        Ok(gen_s) => {
            println!("{gen_s}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("{error}");
            ExitCode::FAILURE
        }
    }
}

/// Folds first-pass replies into the answers digest; failures fold their
/// error text, so a failed pass can never match a committed digest.
pub fn fold_first_pass(replies: &[Result<String, String>]) -> (u64, Vec<Option<u64>>, usize) {
    let mut digest = FNV_OFFSET;
    let mut per_line = Vec::with_capacity(replies.len());
    let mut failed = 0;
    for reply in replies {
        let line = match reply {
            Ok(line) => {
                per_line.push(Some(line_digest(line)));
                line
            }
            Err(error) => {
                per_line.push(None);
                failed += 1;
                error
            }
        };
        digest = fnv1a(digest, line.as_bytes());
        digest = fnv1a(digest, b"\n");
    }
    (digest, per_line, failed)
}

/// `benchmark/expected_digests.txt`: `workload seed inputs answers` rows.
fn expected_digests(workload: &str, seed: u64) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(crate::bench_dir().join("expected_digests.txt")).ok()?;
    text.lines().find_map(|line| {
        let mut fields = line.split('#').next()?.split_whitespace();
        if fields.next()? != workload || fields.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        let inputs = u64::from_str_radix(fields.next()?, 16).ok()?;
        let answers = u64::from_str_radix(fields.next()?, 16).ok()?;
        Some((inputs, answers))
    })
}

/// Checks measured answers after the window: repeated lines must repeat
/// their answer, and the first pass plus a seeded sample of measured lines
/// must equal a cold in-process session on the same files — a private
/// cache emptied before every line, so no answer can lean on what an
/// earlier line left behind.  (With the cache switched off altogether a
/// single triangle partial join rebuilds every column on each of its ~140
/// inner re-runs and takes seconds.)  Returns how many answers were wrong.
pub fn verify_answers(
    args: &RunArgs,
    files: &InputFiles,
    loaded: &Loaded,
    first_pass: &[Option<u64>],
    samples: &[Sample],
    notes: &mut Vec<String>,
) -> Result<usize, String> {
    let mut wrong = 0;
    let mut seen: HashMap<usize, u64> = first_pass
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|d| (i, d)))
        .collect();
    for sample in samples {
        let Some(digest) = sample.digest() else {
            continue;
        };
        if *seen.entry(sample.index()).or_insert(digest) != digest {
            wrong += 1;
        }
    }
    if wrong > 0 {
        notes.push(format!("{wrong} repeated lines changed their answer"));
    }

    let graph = inputs::load_graph(files)?;
    let engine = Engine::with_config(
        graph,
        EngineConfig::paper_default().with_shared_cache(false),
    );
    let mut reference = engine.session();
    let mut check = |index: usize, expected: u64| -> bool {
        reference.clear_cache();
        reference
            .run(loaded.spec(index))
            .is_ok_and(|out| line_digest(&encode_output(&out)) == expected)
    };
    let mut mismatched = 0;
    for (index, digest) in first_pass.iter().enumerate() {
        if let Some(digest) = digest {
            if !check(index, *digest) {
                mismatched += 1;
            }
        }
    }
    let mut measured: Vec<usize> = seen
        .keys()
        .copied()
        .filter(|i| *i >= first_pass.len())
        .collect();
    measured.sort_unstable();
    let mut rng = stats::Rng::new(args.seed);
    let started = Instant::now();
    let mut checked = 0;
    while checked < REFERENCE_SAMPLES && !measured.is_empty() {
        let index = measured.swap_remove(rng.below(measured.len()));
        if !check(index, seen[&index]) {
            mismatched += 1;
        }
        checked += 1;
        if started.elapsed() > Duration::from_secs(2) {
            break;
        }
    }
    if mismatched > 0 {
        notes.push(format!(
            "{mismatched} answers differ from the cold reference session"
        ));
    }
    notes.push(format!(
        "reference: first pass ({} lines) and {checked} measured lines re-derived cold, one line at a time",
        first_pass.len()
    ));
    Ok(wrong + mismatched)
}

pub fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.digest().is_some())
        .map(|s| s.latency_us() / 1e3)
        .collect();
    stats::sort(&mut ms);
    ms
}

/// Latency per class of line (algorithm, with the shape of an n-way line
/// or the left operand's family of a two-way one), with
/// the share of the answers each class took: where the percentiles sit
/// relative to the class boundaries can be read off it.
fn class_report(loaded: &Loaded, samples: &[Sample]) -> Vec<String> {
    let mut classes: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for sample in samples.iter().filter(|s| s.digest().is_some()) {
        let tokens: Vec<&str> = loaded.lines[sample.index()].split_whitespace().collect();
        let class = match tokens[..] {
            ["nway", shape, first, .., algorithm, _aggregate] => {
                format!("{algorithm} {shape} {}", &first[..1])
            }
            // Two-way: the algorithm and the family of its left operand.
            [left, .., algorithm] => format!("{algorithm} {}", &left[..1]),
            _ => continue,
        };
        classes
            .entry(class)
            .or_default()
            .push(sample.latency_us() / 1e3);
    }
    let total: usize = classes.values().map(Vec::len).sum();
    classes
        .into_iter()
        .map(|(class, mut ms)| {
            stats::sort(&mut ms);
            format!(
                "class {class:<16} share {:>5.1}%  p50 {:>9.3} ms  p95 {:>9.3} ms",
                100.0 * ms.len() as f64 / total.max(1) as f64,
                stats::percentile(&ms, 50.0),
                stats::percentile(&ms, 95.0),
            )
        })
        .collect()
}

/// Settles the loop, then measures it for the window with tracing off.
struct Window {
    settle_rates: Vec<f64>,
    result: PhaseResult,
    peak_rss_mb: f64,
}

fn measure<R: Requester>(driver: &mut Driver<R>, settle_min: usize, seconds: u64) -> Window {
    let settle_rates = driver.settle(settle_min, SETTLE_MAX_S);
    let window = Duration::from_secs(seconds);
    let mut result = driver.run(Until::Elapsed(window));
    // A system slower than 20 answers a second cannot fill a p95 in the
    // window (routed_fleet sits just above that, and falls below when one
    // of its backends starts to stall mid-run): measure one window more
    // rather than fail the run.  Still short after that, the run fails.
    if result.answered - result.failed() < stats::P95_MIN_SAMPLES {
        result = result.followed_by(driver.run(Until::Elapsed(window)));
    }
    Window {
        settle_rates,
        peak_rss_mb: host::peak_rss_mb(),
        result,
    }
}

pub fn wire_driver<'l>(
    clients: Vec<WireClient>,
    loaded: &'l Loaded,
    first_pass: usize,
) -> Driver<WireRequester<'l>> {
    let callers = clients
        .into_iter()
        .map(|c| WireRequester::new(c, &loaded.lines))
        .collect();
    Driver::new(callers, loaded.lines.len(), first_pass, WIRE_LOG_CAP)
}

pub fn session_driver<'e>(
    engine: &'e Engine,
    loaded: &'e Loaded,
    sessions: usize,
    first_pass: usize,
) -> Driver<SessionRequester<'e>> {
    let callers = (0..sessions)
        .map(|_| SessionRequester::new(engine, loaded))
        .collect();
    Driver::new(callers, loaded.lines.len(), first_pass, SESSION_LOG_CAP)
}

/// The `--trace 0` run: end-to-end metrics from the untraced window.
fn measured_run(args: &RunArgs, files: &InputFiles, load_start: f64) -> Result<Outcome, String> {
    let workload = args.workload;
    // The system that is measured is the process's first: its peak RSS is
    // that of one set-up and one run.  The other set-ups that `setup_s` is
    // the median of follow once memory and CPU have been read.
    let SetUp {
        system,
        clients,
        loaded,
        times,
        first_pass,
    } = set_up(workload, files)?;
    let mut setup_s = vec![times.total_s];
    let (answers_digest, first_digests, first_failed) = fold_first_pass(&first_pass);

    let window = match workload.shape {
        Shape::InProcess { sessions } => {
            let engine = system.engine().expect("in-process system has an engine");
            let mut driver = session_driver(engine, &loaded, sessions, workload.first_pass);
            measure(&mut driver, SETTLE_IN_PROCESS_S, args.seconds)
        }
        Shape::Served | Shape::Routed => {
            let mut driver = wire_driver(clients, &loaded, workload.first_pass);
            measure(&mut driver, SETTLE_WIRE_S, args.seconds)
        }
    };
    let load_end = host::load_average();

    let mut notes = Vec::new();
    let mut failed = first_failed + window.result.failed();
    if let Some(error) = &window.result.first_error {
        notes.push(format!("first failed request: {error}"));
    }
    failed += verify_answers(
        args,
        files,
        &loaded,
        &first_digests,
        &window.result.samples,
        &mut notes,
    )?;
    let mut correct = failed == 0;
    if matches!(workload.shape, Shape::Served | Shape::Routed) {
        let checked = oracle::check(files, &loaded, &first_pass, args.seed, &mut notes)?;
        correct &= checked;
    }
    system.shut_down();
    while setup_s.len() < SETUPS_MIN
        || (setup_s.len() < SETUPS_MAX && setup_s.iter().sum::<f64>() < SETUPS_BUDGET_S)
    {
        let again = set_up(workload, files)?;
        setup_s.push(again.times.total_s);
        drop(again.clients);
        again.system.shut_down();
    }

    let rates = window.result.window_rates();
    let settled = crate::drive::windows_agree(&window.settle_rates);
    let noisy = load_start > host::nproc() as f64 / 2.0 || thirds_disagree(&rates) || !settled;
    notes.push(format!(
        "settle: {} s, windows/s {:?}; measured windows/s {:?}; stall_share {:.2}; load {load_start:.2} -> {load_end:.2}",
        window.settle_rates.len(),
        window.settle_rates,
        rates,
        stall_share(&rates),
    ));

    notes.extend(class_report(&loaded, &window.result.samples));
    let ms = latencies_ms(&window.result.samples);
    let good = window.result.answered - window.result.failed();
    // The window is cut into ten equal runs of consecutive answers, every
    // time-based figure is taken run by run, and the metric is the mean of
    // the better five.  Somebody else's load on the host comes in bursts
    // of a few seconds and can only slow a run down: it moves the runs it
    // falls on, which are then not among the better five, where a mean
    // over the window, or a 95th percentile of it, would carry every burst.
    let runs = window.result.runs(RUNS);
    let each = |figure: &dyn Fn(&Run) -> f64| -> Vec<f64> { runs.iter().map(figure).collect() };
    let run_rates = each(&|run| run.rate);
    let p50s = each(&|run| stats::percentile(&run.latencies_ms, 50.0));
    let p95s = each(&|run| stats::percentile(&run.latencies_ms, 95.0));
    let p95_window = stats::p95(&ms)?;
    let mut m = Metrics::default();
    m.set(
        "throughput_qps",
        better_half_mean(&run_rates, Better::Higher),
    );
    m.set("p50_ms", better_half_mean(&p50s, Better::Lower));
    m.set("p95_ms", better_half_mean(&p95s, Better::Lower));
    m.set("peak_rss_mb", window.peak_rss_mb);
    m.set("setup_s", median(&setup_s));
    notes.push(format!(
        "runs: answers/s {run_rates:.1?}; p50 ms {p50s:.4?}; p95 ms {p95s:.4?}"
    ));
    notes.push(format!(
        "{} samples (one in {} of {good} answers) in {} s; over the whole window: p50 {:.6} ms, p95 {:.6} ms, {:.3} answers/s; set-ups {setup_s:.3?} s",
        ms.len(),
        window.result.stride,
        window.result.elapsed.as_secs(),
        stats::percentile(&ms, 50.0),
        p95_window,
        good as f64 / window.result.elapsed.as_secs_f64(),
    ));
    Ok(Outcome {
        metrics: m,
        attempted: first_pass.len() + window.result.answered,
        failed,
        correct,
        noisy,
        answers_digest,
        notes,
    })
}
/// Runs one workload once and prints its report and result line.
pub fn main(args: &RunArgs) -> ExitCode {
    let load_start = host::load_average();
    let dir = out_dir().join(format!(
        "inputs-{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let result = (|| {
        let gen_s = generate_in_child(args, &dir)?;
        let files = InputFiles::in_dir(&dir);
        let inputs_digest = files.digest().map_err(|e| format!("reading inputs: {e}"))?;
        let outcome = if args.trace {
            traced::traced_run(args, &files, gen_s, load_start)?
        } else {
            measured_run(args, &files, load_start)?
        };
        Ok::<_, String>((inputs_digest, gen_s, outcome))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let (inputs_digest, gen_s, mut outcome) = match result {
        Ok(done) => done,
        Err(error) => {
            eprintln!("benchmark: {}: {error}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };

    let digest_match = expected_digests(args.workload.name, args.seed)
        .map(|(inputs, answers)| inputs == inputs_digest && answers == outcome.answers_digest);
    if digest_match == Some(false) {
        outcome.correct = false;
        outcome
            .notes
            .push("digests differ from benchmark/expected_digests.txt".to_string());
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {} (graph.gen_s {gen_s:.3})\n  why: {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8, args.workload.why
    );
    println!(
        "inputs_digest {inputs_digest:016x} answers_digest {:016x} expected_digests {}",
        outcome.answers_digest,
        match digest_match {
            Some(true) => "match",
            Some(false) => "MISMATCH",
            None => "not recorded for this seed",
        }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("noisy: {}", outcome.noisy);
    for (name, unit) in table {
        println!("  {name:<34} {:>16.6} {unit}", outcome.metrics.get(name));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.render(table)
    );
    if args.strict && outcome.noisy {
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_digests_cover_both_seeds_and_make_the_router_invisible() {
        for seed in [2014, 2023] {
            for workload in &inputs::WORKLOADS {
                assert!(
                    expected_digests(workload.name, seed).is_some(),
                    "{} seed {seed} has no committed digests",
                    workload.name
                );
            }
            assert_eq!(
                expected_digests("serve_warm", seed),
                expected_digests("routed_fleet", seed),
                "seed {seed}: same files, so the same answers through the router"
            );
        }
        assert_eq!(expected_digests("serve_warm", 1), None);
    }

    #[test]
    fn first_pass_digest_folds_replies_in_order_and_failures_too() {
        let ok = |s: &str| Ok::<String, String>(s.to_string());
        let (forward, per_line, failed) = fold_first_pass(&[ok("TWOWAY 0"), ok("NWAY 0")]);
        let (backward, ..) = fold_first_pass(&[ok("NWAY 0"), ok("TWOWAY 0")]);
        assert_ne!(forward, backward);
        assert_eq!((per_line.len(), failed), (2, 0));
        let (with_error, per_line, failed) =
            fold_first_pass(&[ok("TWOWAY 0"), Err("ERR BUSY".to_string())]);
        assert_ne!(with_error, forward);
        assert_eq!((per_line[1], failed), (None, 1));
    }
}
