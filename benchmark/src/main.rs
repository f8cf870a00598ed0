//! The repo's benchmark: five closed-loop workloads over the DHT join
//! stack, measured from outside the program.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--strict]
//! benchmark all [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file.jsonl>] [--strict]
//! benchmark compare [--aa] <parent.jsonl> <change.jsonl>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one run,
//! the result line last on standard output.  `all` runs every workload in
//! its own child process (untraced, then traced) and can save the result
//! lines as a set; `compare` judges two sets.  See `README.md`.

mod catalog;
mod compare;
mod drive;
mod host;
mod inputs;
mod json;
mod oracle;
mod probes;
mod run;
mod spans;
mod stats;
mod system;
mod traced;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use inputs::WORKLOADS;

/// Seed used when none is given; 2023 is the hold-out seed.
const DEFAULT_SEED: u64 = 2014;
/// Measured window when none is given (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 10;

/// The benchmark's own directory (`benchmark/`): where `cargo run` says
/// the manifest is, else where it was when the binary was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Where generated inputs and span files go (ignored by git).
pub fn out_dir() -> PathBuf {
    bench_dir().join("target").join("benchmark")
}

/// Command-line flags: `--name value` pairs and bare `--switches`.
pub struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: cannot read '{text}'")),
            None if self.0.iter().any(|a| a == flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--strict]\n       \
         benchmark all [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file.jsonl>] [--strict]\n       \
         benchmark compare [--aa] <parent.jsonl> <change.jsonl>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn run_one(flags: &Flags<'_>) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or("--workload is required")?;
    let workload = inputs::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds: u64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace: u8 = flags.parsed("--trace", 0)?;
    Ok(run::main(&run::RunArgs {
        workload,
        seed: flags.parsed("--seed", DEFAULT_SEED)?,
        seconds,
        trace: trace != 0,
        strict: flags.has("--strict"),
    }))
}

/// Runs every workload, each run in a child process of its own, so no
/// workload's memory high-water mark or warmed state reaches another.
fn run_all(flags: &Flags<'_>) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: u64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    let runs: usize = flags.parsed("--runs", 1)?;
    let mut out = match flags.value("--out") {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?,
        ),
        None => None,
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut clean = true;
    for run in 0..runs {
        let mut answers: Vec<(&str, String)> = Vec::new();
        for workload in &WORKLOADS {
            // Every run measures; the first also replays traced.
            for trace in 0..=u8::from(run == 0) {
                let mut command = Command::new(&exe);
                command
                    .args(["--workload", workload.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()]);
                if flags.has("--strict") {
                    command.arg("--strict");
                }
                let output = command
                    .output()
                    .map_err(|e| format!("spawning a run: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                std::io::stderr().write_all(&output.stderr).ok();
                if !output.status.success() {
                    eprintln!(
                        "benchmark all: {} (trace {trace}) exited with {}",
                        workload.name, output.status
                    );
                    clean = false;
                    continue;
                }
                let result = stdout.lines().last().unwrap_or("");
                clean &= result.contains("\"correct\": true");
                if let Some(file) = out.as_mut() {
                    writeln!(
                        file,
                        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"result\": {result}}}",
                        json::quote(workload.name)
                    )
                    .map_err(|e| format!("writing the result set: {e}"))?;
                }
                if trace == 0 {
                    let digest = stdout
                        .split_whitespace()
                        .skip_while(|word| *word != "answers_digest")
                        .nth(1)
                        .unwrap_or("")
                        .to_string();
                    answers.push((workload.name, digest));
                }
            }
        }
        // Same files, same seed: the router must be invisible in answers.
        let digest_of = |name: &str| answers.iter().find(|(n, _)| *n == name).map(|(_, d)| d);
        if let (Some(served), Some(routed)) = (digest_of("serve_warm"), digest_of("routed_fleet")) {
            let equal = served == routed;
            println!(
                "serve_warm answers_digest {served} {} routed_fleet answers_digest {routed}",
                if equal { "==" } else { "!=" }
            );
            clean &= equal;
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("gen") => return run::gen_main(&Flags(&args[1..])),
        Some("all") => run_all(&Flags(&args[1..])),
        Some(flag) if flag.starts_with("--") && flag != "--help" => run_one(&Flags(&args)),
        _ => return usage(),
    };
    outcome.unwrap_or_else(|error| {
        eprintln!("benchmark: {error}");
        usage()
    })
}
