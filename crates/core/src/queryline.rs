//! The querystream line language: a tiny textual query format shared by
//! every front end that answers query streams — `dht querystream` (files),
//! `dht-server` (the TCP line protocol) and `dht loadgen` (replayed files).
//!
//! One query per line; `#` starts a comment, blank lines are skipped:
//!
//! ```text
//! [DEADLINE <ms>] [PRIO <class>] [@<graph>] [TRACE] LEFT RIGHT [k] [ALGO]    # two-way join
//! [DEADLINE <ms>] [PRIO <class>] [@<graph>] [TRACE] nway SHAPE S1 ... Sn [k] [ALGO] [AGG]
//! ```
//!
//! `LEFT`/`RIGHT`/`S1..Sn` name node sets; `SHAPE` is `chain`, `cycle`,
//! `triangle` or `star`; the two-way `ALGORITHM` is one of `f-bj`, `f-idj`,
//! `b-bj`, `b-idj-x`, `b-idj-y` or `auto`; the n-way `ALGO` is `nl`, `ap`,
//! `pj`, `pj-i` or `auto`; `AGG` is `min`, `max`, `sum` or `mean`.  The
//! optional trailing fields may appear in any order (each at most once).
//!
//! The optional **QoS prefixes** (any order, each at most once) carry
//! serving metadata: `DEADLINE <ms>` gives the request a millisecond
//! budget — a server answers it with a typed `ERR DEADLINE` instead of
//! executing it once the budget is spent in queue — `PRIO <class>`
//! assigns it to a scheduling class ([`Priority::Interactive`], the
//! default, or [`Priority::Batch`]) — and `@<graph>` names the graph a
//! multi-graph server should answer the line against (overriding the
//! session's `USE` selection for that one line).  A bare `TRACE` prefix
//! asks the answering front end to record per-phase span timings for
//! that one query and return them as a `# trace:` comment line ahead of
//! the answer rows.  `DEADLINE`, `PRIO` and `TRACE` are therefore
//! reserved words (a node set cannot be named any of them) and a set
//! name cannot start with `@`.  In-process front ends
//! (`dht querystream`) parse and validate the prefixes but answer every
//! query regardless — the prefixes only change *scheduling, routing and
//! reporting*, never answers.
//!
//! Living in `dht-core`, this module is the **single** parser for the
//! language: the CLI and the server cannot drift apart, because both call
//! [`parse_query_file`] / [`parse_query_line`].  Every parsed spec is
//! validated eagerly ([`QuerySpec::validate`]), so malformed queries fail
//! at parse time with their line number and offending token instead of
//! mid-stream.

use std::fmt;

use dht_graph::NodeSet;

use crate::multiway::NWayAlgorithm;
use crate::spec::{AlgorithmChoice, NWaySpec, QuerySpec, TwoWaySpec};
use crate::twoway::TwoWayAlgorithm;
use crate::{Aggregate, QueryGraph};

/// A parse failure, attributed to the 1-based line it occurred on.
///
/// The message always embeds the offending token (when one exists), so a
/// error in a thousand-line query file points at exactly what to fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number of the offending query.
    pub line_no: usize,
    /// What went wrong (already includes the offending token).
    pub message: String,
}

impl LineError {
    fn new(line_no: usize, message: impl Into<String>) -> Self {
        LineError {
            line_no,
            message: message.into(),
        }
    }

    /// Wraps a token-level error with the offending token's spelling.
    fn bad_token(line_no: usize, token: &str, message: impl fmt::Display) -> Self {
        LineError::new(line_no, format!("bad token '{token}': {message}"))
    }
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query line {}: {}", self.line_no, self.message)
    }
}

impl std::error::Error for LineError {}

/// Scheduling class a query line assigns itself with the `PRIO` prefix.
///
/// Priority is serving metadata: a two-level server queue admits and
/// schedules the classes separately (interactive ahead of batch), but the
/// *answer* of a query never depends on its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; scheduled ahead of batch (the default
    /// for lines without a `PRIO` prefix).
    #[default]
    Interactive,
    /// Throughput traffic; admitted into its own bounded queue and served
    /// only when no interactive request is waiting.
    Batch,
}

impl Priority {
    /// Parses `interactive` / `batch`, case-insensitively.
    pub fn parse(name: &str) -> Option<Priority> {
        match name.to_ascii_lowercase().as_str() {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// The class's canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// Defaults applied to query lines that omit optional fields.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// `k` for queries that omit it.
    pub default_k: usize,
    /// Two-way algorithm for queries that omit it.
    pub default_two_way: AlgorithmChoice<TwoWayAlgorithm>,
    /// PJ / PJ-i initial 2-way join size `m`.
    pub m: usize,
}

impl Default for ParseOptions {
    /// `k = 10`, two-way default B-IDJ-Y, `m = 50` — the `dht querystream`
    /// defaults, which the server inherits so both ends agree.
    fn default() -> Self {
        ParseOptions {
            default_k: 10,
            default_two_way: AlgorithmChoice::Fixed(TwoWayAlgorithm::BackwardIdjY),
            m: 50,
        }
    }
}

/// One parsed (and validated) query with the line it came from.
#[derive(Debug, Clone)]
pub struct ParsedQuery {
    /// The declarative query.
    pub spec: QuerySpec,
    /// 1-based line number in the source text.
    pub line_no: usize,
    /// Millisecond budget from a `DEADLINE <ms>` prefix (`None` when the
    /// line had none — the request never expires).
    pub deadline_ms: Option<u64>,
    /// Scheduling class from a `PRIO <class>` prefix
    /// ([`Priority::Interactive`] when the line had none).
    pub priority: Priority,
    /// Graph namespace from an `@<graph>` prefix (`None` when the line
    /// had none — a multi-graph server then uses the session's `USE`
    /// selection).  Routing metadata only: single-graph front ends parse
    /// and ignore it.
    pub graph: Option<String>,
    /// Whether the line carried a `TRACE` prefix asking for a per-phase
    /// span breakdown (`# trace:` comment line) ahead of the answer.
    /// Reporting metadata only: answers never depend on it.
    pub trace: bool,
}

/// The QoS / namespace metadata split off the front of one query line.
///
/// Returned by [`split_query_line`] so routing front ends (`dht-router`)
/// can understand scheduling metadata with exactly the server's grammar
/// while forwarding the query body untouched.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinePrefixes {
    /// Millisecond budget from a `DEADLINE <ms>` prefix.
    pub deadline_ms: Option<u64>,
    /// Scheduling class from a `PRIO <class>` prefix.
    pub priority: Priority,
    /// Graph namespace from an `@<graph>` prefix.
    pub graph: Option<String>,
    /// Whether the line carried a `TRACE` prefix.
    pub trace: bool,
}

impl LinePrefixes {
    /// Renders the prefixes back into their canonical leading tokens
    /// (`DEADLINE <ms> PRIO <class> @<graph> TRACE `), ending with a
    /// trailing space when non-empty, so
    /// `format!("{}{}", prefixes.render(), body)` round-trips a split
    /// line into one the parser reads identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!("DEADLINE {ms} "));
        }
        if self.priority != Priority::Interactive {
            out.push_str(&format!("PRIO {} ", self.priority.name()));
        }
        if let Some(graph) = &self.graph {
            out.push_str(&format!("@{graph} "));
        }
        if self.trace {
            out.push_str("TRACE ");
        }
        out
    }
}

/// Parses a two-way algorithm name (`f-bj`, `fidj`, `B-IDJ-Y`, …),
/// case-insensitively.
///
/// # Errors
/// Returns a message naming the token and the accepted spellings.
pub fn parse_two_way_algorithm(name: &str) -> Result<TwoWayAlgorithm, String> {
    match name.to_ascii_lowercase().as_str() {
        "f-bj" | "fbj" => Ok(TwoWayAlgorithm::ForwardBasic),
        "f-idj" | "fidj" => Ok(TwoWayAlgorithm::ForwardIdj),
        "b-bj" | "bbj" => Ok(TwoWayAlgorithm::BackwardBasic),
        "b-idj-x" | "bidjx" => Ok(TwoWayAlgorithm::BackwardIdjX),
        "b-idj-y" | "bidjy" => Ok(TwoWayAlgorithm::BackwardIdjY),
        _ => Err(format!(
            "unknown 2-way algorithm '{name}' (expected F-BJ, F-IDJ, B-BJ, B-IDJ-X or B-IDJ-Y)"
        )),
    }
}

/// Parses a two-way algorithm token into an [`AlgorithmChoice`]: `auto`
/// selects planner-driven selection, anything else must name one of the
/// five fixed algorithms.
///
/// # Errors
/// Returns a message naming the token and the accepted spellings.
pub fn parse_two_way_choice(name: &str) -> Result<AlgorithmChoice<TwoWayAlgorithm>, String> {
    if name.eq_ignore_ascii_case("auto") {
        return Ok(AlgorithmChoice::Auto);
    }
    parse_two_way_algorithm(name).map(AlgorithmChoice::Fixed)
}

/// Parses an n-way algorithm name (`nl`, `ap`, `pj`, `pj-i`),
/// case-insensitively; `m` seeds the partial-join variants.
///
/// # Errors
/// Returns a message naming the token and the accepted spellings.
pub fn parse_n_way_algorithm(name: &str, m: usize) -> Result<NWayAlgorithm, String> {
    match name.to_ascii_lowercase().as_str() {
        "nl" => Ok(NWayAlgorithm::NestedLoop),
        "ap" => Ok(NWayAlgorithm::AllPairs),
        "pj" => Ok(NWayAlgorithm::PartialJoin { m }),
        "pj-i" | "pji" => Ok(NWayAlgorithm::IncrementalPartialJoin { m }),
        _ => Err(format!(
            "unknown n-way algorithm '{name}' (expected NL, AP, PJ or PJ-i)"
        )),
    }
}

/// Parses an aggregate name (`min`, `max`, `sum`, `mean`/`avg`),
/// case-insensitively.
///
/// # Errors
/// Returns a message naming the token and the accepted spellings.
pub fn parse_aggregate(name: &str) -> Result<Aggregate, String> {
    match name.to_ascii_lowercase().as_str() {
        "min" => Ok(Aggregate::Min),
        "max" => Ok(Aggregate::Max),
        "sum" => Ok(Aggregate::Sum),
        "mean" | "avg" => Ok(Aggregate::Mean),
        _ => Err(format!(
            "unknown aggregate '{name}' (expected min, max, sum or mean)"
        )),
    }
}

/// Builds a query graph of `shape` (`chain`, `cycle`, `triangle`, `star`)
/// over `n` node sets.
///
/// # Errors
/// Returns a message naming the shape when it is unknown or its arity does
/// not fit `n`.
pub fn build_query_shape(shape: &str, n: usize) -> Result<QueryGraph, String> {
    match shape.to_ascii_lowercase().as_str() {
        "chain" => Ok(QueryGraph::chain(n)),
        "cycle" => Ok(QueryGraph::cycle(n)),
        "star" => Ok(QueryGraph::star(n)),
        "triangle" => {
            if n != 3 {
                return Err(format!(
                    "a triangle query graph needs exactly 3 node sets, got {n}"
                ));
            }
            Ok(QueryGraph::triangle())
        }
        other => Err(format!(
            "unknown query shape '{other}' (expected chain, cycle, triangle or star)"
        )),
    }
}

/// How many set names an unknown-set error lists before it summarises the
/// rest: the reply to a bad line must not grow with the catalogue.
const LISTED_SET_NAMES: usize = 16;

/// Looks a set name up in `sets`, with a line-numbered error naming the
/// offending token and the available names (the first
/// [`LISTED_SET_NAMES`], then `… and N more`).
fn set_index(sets: &[NodeSet], name: &str, line_no: usize) -> Result<usize, LineError> {
    sets.iter().position(|s| s.name() == name).ok_or_else(|| {
        let mut available = sets
            .iter()
            .take(LISTED_SET_NAMES)
            .map(NodeSet::name)
            .collect::<Vec<_>>()
            .join(", ");
        if sets.len() > LISTED_SET_NAMES {
            available.push_str(&format!(", … and {} more", sets.len() - LISTED_SET_NAMES));
        }
        LineError::new(
            line_no,
            format!("unknown node set '{name}' (available sets: {available})"),
        )
    })
}

/// Parses one n-way query line (the fields after the leading `nway`):
/// `SHAPE S1 S2 ... Sn [k] [ALGO] [AGG]`, where `ALGO` may be `auto`.
fn parse_nway_fields(
    fields: &[&str],
    sets: &[NodeSet],
    options: &ParseOptions,
    line_no: usize,
) -> Result<QuerySpec, LineError> {
    let Some((&shape, rest)) = fields.split_first() else {
        return Err(LineError::new(
            line_no,
            "`nway` needs a query shape and node sets",
        ));
    };
    // Leading fields that name known sets are the query's node sets; the
    // remainder are the optional k / algorithm / aggregate, in any order.
    let n_sets = rest
        .iter()
        .take_while(|name| sets.iter().any(|s| s.name() == **name))
        .count();
    if n_sets < 2 {
        return Err(LineError::new(
            line_no,
            format!(
                "an n-way query needs at least two node sets, got '{}' \
                 (is a set name misspelled?)",
                fields.join(" ")
            ),
        ));
    }
    let chosen: Vec<NodeSet> = rest[..n_sets]
        .iter()
        .map(|name| set_index(sets, name, line_no).map(|i| sets[i].clone()))
        .collect::<Result<_, _>>()?;
    let query = build_query_shape(shape, chosen.len())
        .map_err(|message| LineError::bad_token(line_no, shape, message))?;
    let mut k = None;
    let mut algorithm: Option<AlgorithmChoice<NWayAlgorithm>> = None;
    let mut aggregate = None;
    let duplicate = |what: &str, field: &str| {
        LineError::new(line_no, format!("duplicate {what} field '{field}'"))
    };
    for &field in &rest[n_sets..] {
        if let Ok(parsed) = field.parse::<usize>() {
            if k.replace(parsed).is_some() {
                return Err(duplicate("k", field));
            }
        } else if field.eq_ignore_ascii_case("auto") {
            if algorithm.replace(AlgorithmChoice::Auto).is_some() {
                return Err(duplicate("algorithm", field));
            }
        } else if let Ok(parsed) = parse_aggregate(field) {
            if aggregate.replace(parsed).is_some() {
                return Err(duplicate("aggregate", field));
            }
        } else {
            let parsed = parse_n_way_algorithm(field, options.m)
                .map_err(|message| LineError::bad_token(line_no, field, message))?;
            if algorithm.replace(AlgorithmChoice::Fixed(parsed)).is_some() {
                return Err(duplicate("algorithm", field));
            }
        }
    }
    let spec = NWaySpec::new(query, chosen, k.unwrap_or(options.default_k))
        .with_aggregate(aggregate.unwrap_or(Aggregate::Min))
        .with_algorithm(algorithm.unwrap_or(AlgorithmChoice::Fixed(
            NWayAlgorithm::IncrementalPartialJoin { m: options.m },
        )));
    Ok(QuerySpec::NWay(spec))
}

/// Parses one two-way query line: `LEFT RIGHT [k] [ALGORITHM]`, where
/// `ALGORITHM` may be `auto`.
fn parse_two_way_fields(
    fields: &[&str],
    sets: &[NodeSet],
    options: &ParseOptions,
    line_no: usize,
) -> Result<QuerySpec, LineError> {
    if fields.len() < 2 || fields.len() > 4 {
        return Err(LineError::new(
            line_no,
            format!(
                "expected `LEFT RIGHT [k] [ALGORITHM]` or \
                 `nway SHAPE S1 S2 ... [k] [ALGO] [AGG]`, got '{}'",
                fields.join(" ")
            ),
        ));
    }
    let left = set_index(sets, fields[0], line_no)?;
    let right = set_index(sets, fields[1], line_no)?;
    let mut k = None;
    let mut algorithm = None;
    for &field in &fields[2..] {
        if let Ok(parsed) = field.parse::<usize>() {
            if k.replace(parsed).is_some() {
                return Err(LineError::new(
                    line_no,
                    format!("duplicate k field '{field}'"),
                ));
            }
        } else {
            let parsed = parse_two_way_choice(field)
                .map_err(|message| LineError::bad_token(line_no, field, message))?;
            if algorithm.replace(parsed).is_some() {
                return Err(LineError::new(
                    line_no,
                    format!("duplicate algorithm field '{field}'"),
                ));
            }
        }
    }
    let spec = TwoWaySpec::new(
        sets[left].clone(),
        sets[right].clone(),
        k.unwrap_or(options.default_k),
    )
    .with_algorithm(algorithm.unwrap_or(options.default_two_way));
    Ok(QuerySpec::TwoWay(spec))
}

/// Whether `name` is a legal graph name: non-empty, ASCII alphanumerics
/// plus `_`, `.` and `-` only.  Shared by the `@<graph>` prefix parser and
/// the server's `--graph NAME=PATH` registration so the two cannot drift.
pub fn is_valid_graph_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Consumes the optional `DEADLINE <ms>` / `PRIO <class>` / `@<graph>` /
/// `TRACE` QoS prefixes (any order, each at most once) from the front of
/// `fields`, returning the parsed metadata and the remaining query
/// fields.
fn parse_qos_prefixes<'f>(
    mut fields: &'f [&'f str],
    line_no: usize,
) -> Result<(LinePrefixes, &'f [&'f str]), LineError> {
    let mut deadline_ms: Option<u64> = None;
    let mut priority: Option<Priority> = None;
    let mut graph: Option<String> = None;
    let mut trace = false;
    loop {
        match fields.first() {
            Some(head) if head.starts_with('@') => {
                if graph.is_some() {
                    return Err(LineError::new(line_no, "duplicate @<graph> prefix"));
                }
                let name = &head[1..];
                if !is_valid_graph_name(name) {
                    return Err(LineError::bad_token(
                        line_no,
                        head,
                        "graph namespace must be `@<name>` with a name of \
                         ASCII letters, digits, '_', '.' or '-'",
                    ));
                }
                graph = Some(name.to_string());
                fields = &fields[1..];
            }
            Some(head) if head.eq_ignore_ascii_case("deadline") => {
                if deadline_ms.is_some() {
                    return Err(LineError::new(line_no, "duplicate DEADLINE prefix"));
                }
                let Some(value) = fields.get(1) else {
                    return Err(LineError::new(
                        line_no,
                        "DEADLINE needs a millisecond budget (`DEADLINE <ms>`)",
                    ));
                };
                let ms = value
                    .parse::<u64>()
                    .ok()
                    .filter(|ms| *ms > 0)
                    .ok_or_else(|| {
                        LineError::bad_token(
                            line_no,
                            value,
                            "DEADLINE budget must be a positive integer (milliseconds)",
                        )
                    })?;
                deadline_ms = Some(ms);
                fields = &fields[2..];
            }
            Some(head) if head.eq_ignore_ascii_case("prio") => {
                if priority.is_some() {
                    return Err(LineError::new(line_no, "duplicate PRIO prefix"));
                }
                let Some(value) = fields.get(1) else {
                    return Err(LineError::new(
                        line_no,
                        "PRIO needs a class (`PRIO interactive` or `PRIO batch`)",
                    ));
                };
                let class = Priority::parse(value).ok_or_else(|| {
                    LineError::bad_token(
                        line_no,
                        value,
                        "unknown priority class (expected interactive or batch)",
                    )
                })?;
                priority = Some(class);
                fields = &fields[2..];
            }
            Some(head) if head.eq_ignore_ascii_case("trace") => {
                if trace {
                    return Err(LineError::new(line_no, "duplicate TRACE prefix"));
                }
                trace = true;
                fields = &fields[1..];
            }
            _ => break,
        }
    }
    Ok((
        LinePrefixes {
            deadline_ms,
            priority: priority.unwrap_or_default(),
            graph,
            trace,
        },
        fields,
    ))
}

/// Splits one raw line into its QoS / namespace prefixes and the
/// remaining query fields **without** resolving set names against a
/// catalogue.  Routing front ends (`dht-router`) use this to read the
/// scheduling metadata with exactly the grammar the server applies while
/// leaving the query body untouched.  Returns `Ok(None)` for blank lines
/// and comments.
///
/// # Errors
/// Fails (with `line_no` and the offending token) only on malformed
/// *prefixes*; the body fields are not validated here.
pub fn split_query_line(
    raw: &str,
    line_no: usize,
) -> Result<Option<(LinePrefixes, Vec<String>)>, LineError> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    let (prefixes, rest) = parse_qos_prefixes(&fields, line_no)?;
    Ok(Some((
        prefixes,
        rest.iter().map(|field| field.to_string()).collect(),
    )))
}

/// Parses a single line of the query language, attributing failures to
/// `line_no`.  Returns `Ok(None)` for blank lines and comments.
///
/// The parsed spec is validated eagerly, so a line that parses is also a
/// query the engine will accept.
///
/// # Errors
/// Fails with the line number and the offending token on malformed input.
pub fn parse_query_line(
    raw: &str,
    sets: &[NodeSet],
    options: &ParseOptions,
    line_no: usize,
) -> Result<Option<ParsedQuery>, LineError> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    let (prefixes, fields) = parse_qos_prefixes(&fields, line_no)?;
    let spec = match fields.first() {
        None => {
            return Err(LineError::new(
                line_no,
                "a QoS prefix must be followed by a query line",
            ))
        }
        Some(head) if head.eq_ignore_ascii_case("nway") => {
            parse_nway_fields(&fields[1..], sets, options, line_no)?
        }
        Some(_) => parse_two_way_fields(fields, sets, options, line_no)?,
    };
    spec.validate()
        .map_err(|error| LineError::new(line_no, error.to_string()))?;
    Ok(Some(ParsedQuery {
        spec,
        line_no,
        deadline_ms: prefixes.deadline_ms,
        priority: prefixes.priority,
        graph: prefixes.graph,
        trace: prefixes.trace,
    }))
}

/// Parses a whole query file: one query per line, `#` comments and blank
/// lines ignored.  The returned vector may be empty (a file of comments);
/// callers decide whether that is an error.
///
/// # Errors
/// Fails on the first malformed line, with its line number and offending
/// token.
pub fn parse_query_file(
    text: &str,
    sets: &[NodeSet],
    options: &ParseOptions,
) -> Result<Vec<ParsedQuery>, LineError> {
    let mut queries = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        if let Some(parsed) = parse_query_line(raw, sets, options, index + 1)? {
            queries.push(parsed);
        }
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_graph::NodeId;

    fn sets() -> Vec<NodeSet> {
        vec![
            NodeSet::new("P", (0..5).map(NodeId)),
            NodeSet::new("Q", (5..10).map(NodeId)),
            NodeSet::new("R", (2..8).map(NodeId)),
        ]
    }

    fn parse(text: &str) -> Result<Vec<ParsedQuery>, LineError> {
        parse_query_file(text, &sets(), &ParseOptions::default())
    }

    #[test]
    fn two_way_lines_apply_defaults_and_overrides() {
        let queries = parse("P Q\nQ P 3\nP R 2 b-bj\nR Q auto\n").unwrap();
        assert_eq!(queries.len(), 4);
        let QuerySpec::TwoWay(first) = &queries[0].spec else {
            panic!("two-way line");
        };
        assert_eq!(first.k, 10, "default k");
        assert_eq!(
            first.algorithm,
            AlgorithmChoice::Fixed(TwoWayAlgorithm::BackwardIdjY),
            "default algorithm"
        );
        let QuerySpec::TwoWay(third) = &queries[2].spec else {
            panic!("two-way line");
        };
        assert_eq!(third.k, 2);
        assert_eq!(
            third.algorithm,
            AlgorithmChoice::Fixed(TwoWayAlgorithm::BackwardBasic)
        );
        let QuerySpec::TwoWay(fourth) = &queries[3].spec else {
            panic!("two-way line");
        };
        assert_eq!(fourth.algorithm, AlgorithmChoice::Auto);
        assert_eq!(queries[3].line_no, 4);
    }

    #[test]
    fn nway_lines_accept_trailing_fields_in_any_order() {
        let queries = parse(
            "nway chain P Q 2 ap min\n\
             nway chain P Q R sum 3\n\
             nway triangle P Q R auto\n",
        )
        .unwrap();
        assert_eq!(queries.len(), 3);
        let QuerySpec::NWay(second) = &queries[1].spec else {
            panic!("n-way line");
        };
        assert_eq!(second.k, 3);
        assert_eq!(second.aggregate, Aggregate::Sum);
        assert_eq!(
            second.algorithm,
            AlgorithmChoice::Fixed(NWayAlgorithm::IncrementalPartialJoin { m: 50 }),
            "default n-way algorithm"
        );
        let QuerySpec::NWay(third) = &queries[2].spec else {
            panic!("n-way line");
        };
        assert_eq!(third.algorithm, AlgorithmChoice::Auto);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped_but_keep_line_numbers() {
        let queries = parse("# header\n\nP Q 3   # trailing comment\n\nQ P\n").unwrap();
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].line_no, 3);
        assert_eq!(queries[1].line_no, 5);
        assert!(parse("# only comments\n\n").unwrap().is_empty());
    }

    #[test]
    fn errors_carry_line_numbers_and_offending_tokens() {
        // Unknown set, with the available names listed.
        let err = parse("P Q\nP Z\n").unwrap_err();
        assert_eq!(err.line_no, 2);
        assert!(err.to_string().contains("query line 2"), "{err}");
        assert!(err.to_string().contains("unknown node set 'Z'"), "{err}");
        assert!(err.to_string().contains("P, Q, R"), "{err}");

        // Malformed verb / arity.
        let err = parse("P\n").unwrap_err();
        assert!(err.to_string().contains("LEFT RIGHT"), "{err}");

        // Bad algorithm token is named with its spelling.
        let err = parse("P Q 3 b-idj-z\n").unwrap_err();
        assert!(err.to_string().contains("bad token 'b-idj-z'"), "{err}");

        // Duplicate optional fields are rejected, not silently overwritten.
        let err = parse("P Q 3 4\n").unwrap_err();
        assert!(err.to_string().contains("duplicate k"), "{err}");
        let err = parse("P Q b-bj b-bj\n").unwrap_err();
        assert!(err.to_string().contains("duplicate algorithm"), "{err}");
        let err = parse("nway chain P Q min max\n").unwrap_err();
        assert!(err.to_string().contains("duplicate aggregate"), "{err}");

        // n-way structure errors name the shape token.
        let err = parse("nway chain P 3\n").unwrap_err();
        assert!(err.to_string().contains("at least two node sets"), "{err}");
        let err = parse("nway blob P Q\n").unwrap_err();
        assert!(err.to_string().contains("bad token 'blob'"), "{err}");
        assert!(err.to_string().contains("unknown query shape"), "{err}");
        let err = parse("nway triangle P Q\n").unwrap_err();
        assert!(err.to_string().contains("exactly 3"), "{err}");
        let err = parse("nway\n").unwrap_err();
        assert!(err.to_string().contains("needs a query shape"), "{err}");

        // Validation runs at parse time: k = 0 fails with the line number.
        let err = parse("P Q 0\n").unwrap_err();
        assert_eq!(err.line_no, 1);
        assert!(err.to_string().contains("k = 0"), "{err}");
    }

    #[test]
    fn an_unknown_set_lists_at_most_sixteen_names_of_a_large_catalogue() {
        let catalogue: Vec<NodeSet> = (0..1_000u32)
            .map(|i| NodeSet::new(format!("S{i}"), [NodeId(i)]))
            .collect();
        let err = parse_query_file("S0 NOPE\n", &catalogue, &ParseOptions::default()).unwrap_err();
        let listed: Vec<String> = (0..16).map(|i| format!("S{i}")).collect();
        assert_eq!(
            err.to_string(),
            format!(
                "query line 1: unknown node set 'NOPE' (available sets: {}, … and 984 more)",
                listed.join(", ")
            )
        );
        // Exactly sixteen sets are all listed, with no summary.
        let err =
            parse_query_file("S0 NOPE\n", &catalogue[..16], &ParseOptions::default()).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "query line 1: unknown node set 'NOPE' (available sets: {})",
                listed.join(", ")
            )
        );
    }

    #[test]
    fn qos_prefixes_parse_in_any_order_and_default_off() {
        let queries = parse(
            "P Q 3\n\
             DEADLINE 250 P Q 3\n\
             PRIO batch Q P\n\
             DEADLINE 40 PRIO interactive nway chain P Q 2 ap min\n\
             prio batch deadline 99 P Q auto\n",
        )
        .unwrap();
        assert_eq!(queries.len(), 5);
        assert_eq!(queries[0].deadline_ms, None);
        assert_eq!(queries[0].priority, Priority::Interactive, "default class");
        assert_eq!(queries[1].deadline_ms, Some(250));
        assert_eq!(queries[1].priority, Priority::Interactive);
        assert_eq!(queries[2].deadline_ms, None);
        assert_eq!(queries[2].priority, Priority::Batch);
        assert_eq!(queries[3].deadline_ms, Some(40));
        assert_eq!(queries[3].priority, Priority::Interactive);
        assert!(matches!(queries[3].spec, QuerySpec::NWay(_)));
        // Prefixes compose in either order, case-insensitively, and leave
        // the query itself identical to its unprefixed spelling.
        assert_eq!(queries[4].deadline_ms, Some(99));
        assert_eq!(queries[4].priority, Priority::Batch);
        assert_eq!(
            format!("{:?}", queries[4].spec),
            format!("{:?}", parse("P Q auto\n").unwrap()[0].spec),
            "prefixes never change the parsed query"
        );
    }

    #[test]
    fn graph_prefix_parses_and_never_changes_the_query() {
        let queries = parse(
            "P Q 3\n\
             @yeast P Q 3\n\
             DEADLINE 250 @web-2014 PRIO batch P Q 3\n\
             @g.1 nway chain P Q 2 ap min\n",
        )
        .unwrap();
        assert_eq!(queries.len(), 4);
        assert_eq!(queries[0].graph, None, "default: no namespace");
        assert_eq!(queries[1].graph.as_deref(), Some("yeast"));
        assert_eq!(queries[2].graph.as_deref(), Some("web-2014"));
        assert_eq!(queries[2].deadline_ms, Some(250));
        assert_eq!(queries[2].priority, Priority::Batch);
        assert_eq!(queries[3].graph.as_deref(), Some("g.1"));
        assert!(matches!(queries[3].spec, QuerySpec::NWay(_)));
        assert_eq!(
            format!("{:?}", queries[1].spec),
            format!("{:?}", queries[0].spec),
            "@<graph> never changes the parsed query"
        );

        let err = parse("@ P Q\n").unwrap_err();
        assert!(err.to_string().contains("bad token '@'"), "{err}");
        let err = parse("@two graphs P Q\n").unwrap_err();
        assert!(err.to_string().contains("unknown node set"), "{err}");
        let err = parse("@a @b P Q\n").unwrap_err();
        assert!(err.to_string().contains("duplicate @<graph>"), "{err}");
        let err = parse("@bad!name P Q\n").unwrap_err();
        assert!(err.to_string().contains("bad token '@bad!name'"), "{err}");

        assert!(is_valid_graph_name("yeast_2.0-a"));
        assert!(!is_valid_graph_name(""));
        assert!(!is_valid_graph_name("a b"));
        assert!(!is_valid_graph_name("a=b"));
    }

    #[test]
    fn trace_prefix_parses_composes_and_never_changes_the_query() {
        let queries = parse(
            "P Q 3\n\
             TRACE P Q 3\n\
             trace DEADLINE 250 PRIO batch @g P Q 3\n\
             DEADLINE 40 TRACE nway chain P Q 2 ap min\n",
        )
        .unwrap();
        assert_eq!(queries.len(), 4);
        assert!(!queries[0].trace, "default: tracing off");
        assert!(queries[1].trace);
        assert!(queries[2].trace, "case-insensitive, any order");
        assert_eq!(queries[2].deadline_ms, Some(250));
        assert_eq!(queries[2].priority, Priority::Batch);
        assert_eq!(queries[2].graph.as_deref(), Some("g"));
        assert!(queries[3].trace);
        assert!(matches!(queries[3].spec, QuerySpec::NWay(_)));
        assert_eq!(
            format!("{:?}", queries[1].spec),
            format!("{:?}", queries[0].spec),
            "TRACE never changes the parsed query"
        );

        let err = parse("TRACE TRACE P Q\n").unwrap_err();
        assert!(err.to_string().contains("duplicate TRACE"), "{err}");
        let err = parse("TRACE\n").unwrap_err();
        assert!(
            err.to_string().contains("followed by a query line"),
            "{err}"
        );

        // split + render round-trip the prefix.
        let (prefixes, body) = split_query_line("TRACE DEADLINE 9 P Q", 1)
            .unwrap()
            .expect("non-empty line");
        assert!(prefixes.trace);
        assert_eq!(prefixes.deadline_ms, Some(9));
        assert_eq!(body, ["P", "Q"]);
        assert_eq!(prefixes.render(), "DEADLINE 9 TRACE ");
        let rebuilt = format!("{}{}", prefixes.render(), body.join(" "));
        let reparsed = parse_query_line(&rebuilt, &sets(), &ParseOptions::default(), 1)
            .unwrap()
            .expect("non-empty line");
        assert!(reparsed.trace);
        assert_eq!(reparsed.deadline_ms, Some(9));
    }

    #[test]
    fn split_query_line_matches_the_parser_and_round_trips() {
        // Splitting consumes exactly the prefixes the parser consumes and
        // leaves the body fields verbatim.
        let (prefixes, body) = split_query_line("  DEADLINE 99 @g PRIO batch P Q 3 auto # c", 1)
            .unwrap()
            .expect("non-empty line");
        assert_eq!(prefixes.deadline_ms, Some(99));
        assert_eq!(prefixes.priority, Priority::Batch);
        assert_eq!(prefixes.graph.as_deref(), Some("g"));
        assert_eq!(body, ["P", "Q", "3", "auto"]);
        // render() round-trips into a line the parser reads identically.
        let rebuilt = format!("{}{}", prefixes.render(), body.join(" "));
        let reparsed = parse_query_line(&rebuilt, &sets(), &ParseOptions::default(), 1)
            .unwrap()
            .expect("non-empty line");
        assert_eq!(reparsed.deadline_ms, Some(99));
        assert_eq!(reparsed.priority, Priority::Batch);
        assert_eq!(reparsed.graph.as_deref(), Some("g"));
        assert_eq!(
            format!("{:?}", reparsed.spec),
            format!("{:?}", parse("P Q 3 auto\n").unwrap()[0].spec)
        );
        // Blank lines and comments split to None; prefix errors surface.
        assert!(split_query_line("# only a comment", 7).unwrap().is_none());
        assert!(split_query_line("   ", 7).unwrap().is_none());
        let err = split_query_line("DEADLINE zero P Q", 7).unwrap_err();
        assert_eq!(err.line_no, 7);
        assert!(err.to_string().contains("bad token 'zero'"), "{err}");
        // The empty-prefix render is empty, so unprefixed lines pass through.
        assert_eq!(LinePrefixes::default().render(), "");
    }

    #[test]
    fn qos_prefix_errors_carry_lines_and_tokens() {
        let err = parse("DEADLINE P Q\n").unwrap_err();
        assert!(err.to_string().contains("bad token 'P'"), "{err}");
        let err = parse("DEADLINE\n").unwrap_err();
        assert!(err.to_string().contains("millisecond budget"), "{err}");
        let err = parse("DEADLINE 0 P Q\n").unwrap_err();
        assert!(err.to_string().contains("bad token '0'"), "{err}");
        assert!(err.to_string().contains("positive integer"), "{err}");
        let err = parse("DEADLINE -5 P Q\n").unwrap_err();
        assert!(err.to_string().contains("bad token '-5'"), "{err}");
        let err = parse("DEADLINE 5 DEADLINE 6 P Q\n").unwrap_err();
        assert!(err.to_string().contains("duplicate DEADLINE"), "{err}");
        let err = parse("PRIO urgent P Q\n").unwrap_err();
        assert!(err.to_string().contains("bad token 'urgent'"), "{err}");
        assert!(err.to_string().contains("interactive or batch"), "{err}");
        let err = parse("PRIO batch PRIO batch P Q\n").unwrap_err();
        assert!(err.to_string().contains("duplicate PRIO"), "{err}");
        let err = parse("PRIO\n").unwrap_err();
        assert!(err.to_string().contains("needs a class"), "{err}");
        let err = parse("DEADLINE 10 PRIO batch\n").unwrap_err();
        assert!(
            err.to_string().contains("followed by a query line"),
            "{err}"
        );
        assert_eq!(Priority::parse("BATCH"), Some(Priority::Batch));
        assert_eq!(Priority::parse("Interactive"), Some(Priority::Interactive));
        assert_eq!(Priority::parse("bulk"), None);
        assert_eq!(Priority::Batch.name(), "batch");
    }

    #[test]
    fn token_parsers_are_case_insensitive_and_strict() {
        assert_eq!(
            parse_two_way_algorithm("B-IDJ-Y").unwrap(),
            TwoWayAlgorithm::BackwardIdjY
        );
        assert_eq!(parse_two_way_choice("AUTO").unwrap(), AlgorithmChoice::Auto);
        assert!(parse_two_way_algorithm("quantum").is_err());
        assert_eq!(
            parse_n_way_algorithm("PJ-I", 7).unwrap(),
            NWayAlgorithm::IncrementalPartialJoin { m: 7 }
        );
        assert!(parse_n_way_algorithm("zz", 7).is_err());
        assert_eq!(parse_aggregate("AVG").unwrap(), Aggregate::Mean);
        assert!(parse_aggregate("median").is_err());
        assert_eq!(build_query_shape("chain", 4).unwrap().edge_count(), 3);
        assert!(build_query_shape("triangle", 4).is_err());
        assert!(build_query_shape("hypercube", 3).is_err());
    }

    #[test]
    fn single_line_parser_matches_the_file_parser() {
        let text = "P Q 3 auto\nnway star P Q R 2 max\n";
        let from_file = parse(text).unwrap();
        for (index, raw) in text.lines().enumerate() {
            let single = parse_query_line(raw, &sets(), &ParseOptions::default(), index + 1)
                .unwrap()
                .expect("non-empty line");
            assert_eq!(
                format!("{:?}", single.spec),
                format!("{:?}", from_file[index].spec),
                "line {}",
                index + 1
            );
        }
    }
}
