//! `dht repro` — regenerate the paper's tables and figures and check the
//! claims they make (see `dht_eval::experiments`).

use dht_eval::experiments::{self, Experiment, EXPERIMENTS};

use super::parse_scale;
use crate::{ArgMap, CliError, Result};

const HELP: &str = "\
dht repro — regenerate the paper's tables and figures and check its claims

USAGE:
    dht repro [--scale <tiny|bench|full>] [EXPERIMENT…]

EXPERIMENTS:
    table3 table4 fig6 fig7 fig8 fig9 fig10       [default: all, in this order]

OPTIONS:
    --scale <tiny|bench|full>   dataset size preset                [default: tiny]

Where the paper plots running time, the panels report walk steps, pairs
scored and walk invocations, so every number and verdict is the same on
every machine.  Each experiment ends with its claims, one line each:
[holds] or [FAILS], the claim id, where the paper makes it and the numbers
compared.  A failing claim is a finding, not an error: the exit status is 0
whenever every experiment ran.
";

/// Runs the command.
pub fn run(args: &ArgMap) -> Result<String> {
    if args.wants_help() {
        return Ok(HELP.to_string());
    }
    args.reject_unknown(&["scale"])?;
    let scale = parse_scale(args.get("scale").unwrap_or("tiny"))?;
    let selected: Vec<(&str, Experiment)> = if args.positional().is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        args.positional()
            .iter()
            .map(|name| {
                let run = experiments::find(name).ok_or_else(|| {
                    CliError::Usage(format!("unknown experiment '{name}'\n\n{HELP}"))
                })?;
                Ok((name.as_str(), run))
            })
            .collect::<Result<_>>()?
    };

    let mut out = format!("paper reproduction at scale '{}'\n", scale.name());
    let mut failing = Vec::new();
    let mut checked = 0;
    for (name, experiment) in selected {
        eprintln!("running {name} at scale '{}'", scale.name());
        let outcome = experiment(scale);
        out.push_str(&outcome.render());
        checked += outcome.claims.len();
        failing.extend(
            outcome
                .claims
                .iter()
                .filter(|claim| !claim.holds)
                .map(|claim| format!("{name} {}", claim.id)),
        );
    }
    out.push_str(&format!(
        "\nclaims: {checked} checked, {} fail{}{}\n",
        failing.len(),
        if failing.is_empty() { "" } else { ": " },
        failing.join(", ")
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn a_named_experiment_runs_alone_and_names_ignore_case() {
        let out = run(&argmap(&["TABLE3", "--scale", "tiny"])).unwrap();
        assert!(out.contains("Table III"));
        assert!(!out.contains("Table IV"));
        assert!(out.contains("[holds] triangle_and_chain_rank_differently"));
        assert!(out.ends_with("claims: 1 checked, 0 fail\n"));
    }
}
