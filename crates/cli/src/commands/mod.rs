//! Sub-command implementations and the option-parsing helpers they share.

pub mod gen;
pub mod generate;
pub mod linkpred;
pub mod loadgen;
pub mod nway;
pub mod pack;
pub mod querystream;
pub mod repro;
pub mod route;
pub mod serve;
pub mod shardsets;
pub mod stats;
pub mod twoway;

use dht_core::spec::AlgorithmChoice;
use dht_core::twoway::TwoWayAlgorithm;
use dht_core::Aggregate;
use dht_datasets::Scale;
use dht_graph::Graph;
use dht_measures::{
    DhtMeasure, KatzIndex, KatzMode, PathSim, PersonalizedPageRank, ProximityMeasure,
    TruncatedHittingTime,
};
use dht_walks::{DhtParams, WalkEngine};

use crate::{CliError, Result};

/// Loads a graph from `--graph <path>`, accepting either on-disk format:
/// binary `.dht` containers are detected by their magic bytes and take the
/// bulk load path, everything else parses as a text edge list.  Every
/// sub-command with a `--graph` flag (stats, the joins, querystream, serve
/// and therefore loadgen) funnels through here, so the detection is
/// transparent across the CLI.
pub(crate) fn load_graph(args: &crate::ArgMap) -> Result<Graph> {
    let path = args.require("graph")?;
    dht_graph::io::read_graph_file_auto(path).map_err(CliError::from)
}

/// Parses a dataset size preset (`--scale` of `generate` and `repro`); an
/// unknown name is a usage error.
pub(crate) fn parse_scale(name: &str) -> Result<Scale> {
    match name.to_ascii_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "bench" => Ok(Scale::Bench),
        "full" => Ok(Scale::Full),
        _ => Err(CliError::Usage(format!(
            "unknown scale '{name}' (expected tiny, bench or full)"
        ))),
    }
}

/// Parses the shared DHT options `--variant`, `--lambda` and `--epsilon`
/// into parameters plus the Lemma-1 walk depth.
pub(crate) fn dht_options(args: &crate::ArgMap) -> Result<(DhtParams, usize)> {
    let variant = args.get("variant").unwrap_or("lambda");
    let lambda: f64 = args.get_parsed_or("lambda", 0.2)?;
    let epsilon: f64 = args.get_parsed_or("epsilon", 1e-6)?;
    let params = match variant {
        "lambda" | "dht-lambda" => DhtParams::try_dht_lambda(lambda)
            .map_err(|e| CliError::Parse(format!("invalid --lambda: {e}")))?,
        "e" | "dht-e" => DhtParams::dht_e(),
        other => {
            return Err(CliError::Parse(format!(
                "unknown DHT variant '{other}' (expected 'lambda' or 'e')"
            )))
        }
    };
    let depth = params
        .depth_for_epsilon(epsilon)
        .map_err(|e| CliError::Parse(format!("invalid --epsilon: {e}")))?;
    Ok((params, depth))
}

/// Parses the shared execution options `--engine` (walk propagation engine)
/// and `--threads` (worker threads; 0 = all cores, default 1 = serial).
pub(crate) fn engine_options(args: &crate::ArgMap) -> Result<(WalkEngine, usize)> {
    let engine = match args.get("engine") {
        None => WalkEngine::default(),
        Some(raw) => WalkEngine::parse(raw).ok_or_else(|| {
            CliError::Parse(format!(
                "unknown walk engine '{raw}' (expected dense, sparse or auto)"
            ))
        })?,
    };
    let threads: usize = args.get_parsed_or("threads", 1)?;
    Ok((engine, threads))
}

/// Builds the measure `--measure` names from its options (`--damping`,
/// `--length`, `--beta` and the DHT options), with the name and parameter
/// summary the reports print: the one measure parser behind `two-way`,
/// `nway` and `linkpred`.
pub(crate) fn measure_options(
    args: &crate::ArgMap,
) -> Result<(&'static str, String, Box<dyn ProximityMeasure + Sync>)> {
    let measure = args.get("measure").unwrap_or("dht").to_ascii_lowercase();
    Ok(match measure.as_str() {
        "dht" => {
            let (params, depth) = dht_options(args)?;
            let detail = format!("λ={}, d={depth}", params.lambda);
            ("DHT", detail, Box::new(DhtMeasure::new(params, depth)?))
        }
        "ppr" => {
            let damping: f64 = args.get_parsed_or("damping", 0.85)?;
            let epsilon: f64 = args.get_parsed_or("epsilon", 1e-6)?;
            let m = PersonalizedPageRank::with_epsilon(damping, epsilon)?;
            ("PPR", format!("c={damping}"), Box::new(m))
        }
        "ht" | "hitting-time" => {
            let (_, depth) = dht_options(args)?;
            let m = TruncatedHittingTime::new(depth)?;
            ("truncated hitting time", format!("d={depth}"), Box::new(m))
        }
        "pathsim" => {
            let length: usize = args.get_parsed_or("length", 2)?;
            let m = PathSim::new(length)?;
            ("PathSim", format!("L={length}"), Box::new(m))
        }
        "katz" => {
            let beta: f64 = args.get_parsed_or("beta", 0.05)?;
            let (_, depth) = dht_options(args)?;
            let m = KatzIndex::new(beta, depth, KatzMode::Transition)?;
            ("Katz", format!("β={beta}, d={depth}"), Box::new(m))
        }
        other => {
            return Err(CliError::Parse(format!(
                "unknown measure '{other}' (expected dht, ppr, ht, pathsim or katz)"
            )))
        }
    })
}

/// Parses `--algorithm` into one of the five 2-way join algorithms
/// (delegates to the shared `dht_core::queryline` token parser).
pub(crate) fn parse_two_way_algorithm(name: &str) -> Result<TwoWayAlgorithm> {
    dht_core::queryline::parse_two_way_algorithm(name).map_err(CliError::Parse)
}

/// Parses an algorithm token into a two-way [`AlgorithmChoice`]: `auto`
/// selects planner-driven selection, anything else must name one of the
/// five fixed algorithms.
pub(crate) fn parse_two_way_choice(name: &str) -> Result<AlgorithmChoice<TwoWayAlgorithm>> {
    dht_core::queryline::parse_two_way_choice(name).map_err(CliError::Parse)
}

/// Parses `--aggregate` into a monotone aggregate.
pub(crate) fn parse_aggregate(name: &str) -> Result<Aggregate> {
    dht_core::queryline::parse_aggregate(name).map_err(CliError::Parse)
}

/// Renders a two-column-ish ranking table used by both join commands.
pub(crate) fn format_ranking<I: IntoIterator<Item = (String, f64)>>(rows: I) -> String {
    let mut out = String::from("rank  score        answer\n");
    for (i, (answer, score)) in rows.into_iter().enumerate() {
        out.push_str(&format!("{:>4}  {:<11.6}  {}\n", i + 1, score, answer));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArgMap;

    fn argmap(parts: &[&str]) -> ArgMap {
        ArgMap::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn dht_options_defaults_match_the_paper() {
        let (params, depth) = dht_options(&argmap(&[])).unwrap();
        assert!((params.lambda - 0.2).abs() < 1e-12);
        assert_eq!(depth, 8);
    }

    #[test]
    fn dht_options_parse_variant_and_lambda() {
        let (params, _) = dht_options(&argmap(&["--variant", "e"])).unwrap();
        assert!((params.lambda - (1.0 / std::f64::consts::E)).abs() < 1e-12);
        let (params, depth) =
            dht_options(&argmap(&["--lambda", "0.5", "--epsilon", "0.001"])).unwrap();
        assert!((params.lambda - 0.5).abs() < 1e-12);
        assert!(depth >= 1);
        assert!(dht_options(&argmap(&["--variant", "zeta"])).is_err());
        assert!(dht_options(&argmap(&["--lambda", "1.5"])).is_err());
        assert!(dht_options(&argmap(&["--epsilon", "-1"])).is_err());
    }

    #[test]
    fn engine_options_parse_and_reject() {
        let (engine, threads) = engine_options(&argmap(&[])).unwrap();
        assert_eq!(engine, WalkEngine::Auto);
        assert_eq!(threads, 1);
        let (engine, threads) =
            engine_options(&argmap(&["--engine", "dense", "--threads", "4"])).unwrap();
        assert_eq!(engine, WalkEngine::Dense);
        assert_eq!(threads, 4);
        let (engine, threads) =
            engine_options(&argmap(&["--engine", "sparse", "--threads", "0"])).unwrap();
        assert_eq!(engine, WalkEngine::Sparse);
        assert_eq!(threads, 0);
        assert!(engine_options(&argmap(&["--engine", "warp"])).is_err());
        assert!(engine_options(&argmap(&["--threads", "many"])).is_err());
    }

    #[test]
    fn algorithm_names_are_case_insensitive() {
        assert_eq!(
            parse_two_way_algorithm("B-IDJ-Y").unwrap(),
            TwoWayAlgorithm::BackwardIdjY
        );
        assert_eq!(
            parse_two_way_algorithm("fbj").unwrap(),
            TwoWayAlgorithm::ForwardBasic
        );
        assert!(parse_two_way_algorithm("quantum").is_err());
    }

    #[test]
    fn algorithm_choices_accept_auto_and_fixed_names() {
        assert_eq!(parse_two_way_choice("auto").unwrap(), AlgorithmChoice::Auto);
        assert_eq!(parse_two_way_choice("AUTO").unwrap(), AlgorithmChoice::Auto);
        assert_eq!(
            parse_two_way_choice("b-bj").unwrap(),
            AlgorithmChoice::Fixed(TwoWayAlgorithm::BackwardBasic)
        );
        assert!(parse_two_way_choice("quantum").is_err());
    }

    #[test]
    fn aggregates_parse() {
        assert_eq!(parse_aggregate("MIN").unwrap(), Aggregate::Min);
        assert_eq!(parse_aggregate("avg").unwrap(), Aggregate::Mean);
        assert!(parse_aggregate("median").is_err());
    }

    #[test]
    fn ranking_table_has_one_line_per_row() {
        let table = format_ranking(vec![
            ("(a, b)".to_string(), 0.5),
            ("(c, d)".to_string(), 0.25),
        ]);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("(c, d)"));
    }
}
