//! Mutation tests for the query-line parser, which reads untrusted bytes
//! off the wire (`dht-server`, `dht-router`) and out of query files.
//!
//! Every case starts from a valid line — two-way and n-way, with and
//! without QoS prefixes — and mangles it: a byte XORed anywhere, the line
//! cut anywhere, a field dropped or a field duplicated, up to three times
//! over.  Whatever comes out, `parse_query_line` must return `Ok` or a
//! `LineError` naming the line it was given, never panic, and agree with
//! `split_query_line` on the prefixes of every line it accepts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use dht_nway::core::queryline::{parse_query_line, split_query_line, ParseOptions};
use dht_nway::prelude::*;

/// Valid lines over the catalogue of [`catalogue`], covering every field
/// kind of both grammars and every prefix.
const VALID: [&str; 10] = [
    "P Q",
    "P Q 5 b-bj",
    "Q P auto 12",
    "DEADLINE 50 PRIO batch @g1 TRACE P Q 7 b-idj-y",
    "P Q 1000000000000 f-idj # a comment",
    "nway chain P Q R",
    "nway chain P Q R 5 pj-i sum",
    "PRIO interactive nway triangle P Q R ap min 3",
    "TRACE @web.v2 nway star R P Q S 4 pj mean",
    "DEADLINE 9 nway cycle P Q R S auto max 2",
];

fn catalogue() -> Vec<NodeSet> {
    ["P", "Q", "R", "S"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let base = 3 * i as u32;
            NodeSet::new(*name, (base..base + 3).map(NodeId))
        })
        .collect()
}

/// Applies one mutation to `line`: `kind` picks XOR-a-byte, cut, drop a
/// field or duplicate a field; `at` and `byte` pick where and with what.
fn mutate(line: &[u8], kind: u32, at: f64, byte: u32) -> Vec<u8> {
    let index = |len: usize| ((len as f64) * at) as usize;
    match kind {
        0 => {
            let mut out = line.to_vec();
            if !out.is_empty() {
                let i = index(out.len());
                out[i] ^= byte as u8;
            }
            out
        }
        1 => line[..index(line.len() + 1).min(line.len())].to_vec(),
        _ => {
            let mut fields: Vec<&[u8]> = line
                .split(|b| b.is_ascii_whitespace())
                .filter(|f| !f.is_empty())
                .collect();
            if !fields.is_empty() {
                let i = index(fields.len());
                if kind == 2 {
                    fields.remove(i);
                } else {
                    fields.insert(i, fields[i]);
                }
            }
            fields.join(&b' ')
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn mangled_query_lines_parse_or_fail_with_a_line_error(
        which in 0usize..VALID.len(),
        mutations in proptest::collection::vec((0u32..4, 0.0f64..1.0, 1u32..256), 1..4),
        line_no in 1usize..1000,
    ) {
        let sets = catalogue();
        let options = ParseOptions::default();
        let mut bytes = VALID[which].as_bytes().to_vec();
        for &(kind, at, byte) in &mutations {
            bytes = mutate(&bytes, kind, at, byte);
        }
        let line = String::from_utf8_lossy(&bytes);
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            parse_query_line(&line, &sets, &options, line_no)
        }));
        prop_assert!(parsed.is_ok(), "parse_query_line panicked on {:?}", line);
        let split = catch_unwind(|| split_query_line(&line, line_no));
        prop_assert!(split.is_ok(), "split_query_line panicked on {:?}", line);
        match (parsed.unwrap(), split.unwrap()) {
            (Err(error), _) => {
                prop_assert_eq!(error.line_no, line_no, "{:?}", line);
                prop_assert!(!error.message.is_empty(), "{:?}", line);
            }
            (Ok(None), split) => prop_assert!(matches!(split, Ok(None)), "{:?}", line),
            (Ok(Some(query)), Ok(Some((prefixes, _)))) => {
                prop_assert_eq!(query.line_no, line_no);
                prop_assert_eq!(query.deadline_ms, prefixes.deadline_ms, "{:?}", line);
                prop_assert_eq!(query.priority, prefixes.priority, "{:?}", line);
                prop_assert_eq!(&query.graph, &prefixes.graph, "{:?}", line);
                prop_assert_eq!(query.trace, prefixes.trace, "{:?}", line);
            }
            (Ok(Some(_)), split) => {
                prop_assert!(false, "parsed {:?} but split gave {:?}", line, split)
            }
        }
    }
}

#[test]
fn every_unmangled_line_parses() {
    let sets = catalogue();
    for line in VALID {
        let parsed = parse_query_line(line, &sets, &ParseOptions::default(), 1);
        assert!(matches!(parsed, Ok(Some(_))), "{line}: {parsed:?}");
    }
}
