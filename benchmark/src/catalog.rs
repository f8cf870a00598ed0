//! The names and units of every metric the benchmark prints.  Direction
//! and bound live in `BENCHMARK.json`; a unit test keeps the two in step.

use crate::json;

/// End-to-end metrics, printed by `--trace 0` runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_qps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by `--trace 1` runs (0 where the workload
/// has no such layer).
pub const PER_LAYER: [(&str, &str); 66] = [
    ("graph.load_s", "s"),
    ("graph.gen_s", "s"),
    ("graph.bytes_per_edge", "B"),
    ("walks.column_ms", "ms"),
    ("walks.ytable_ms", "ms"),
    ("walks.edge_rate", "1/s"),
    ("walks.computed_gbps", "GB/s"),
    ("walks.columns_built_per_query", "count"),
    ("walks.steps_per_query", "count"),
    ("par.scaling_2t", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.ytable_hit_rate", "ratio"),
    ("cache.evictions_per_query", "count"),
    ("cache.bytes_used_mb", "MB"),
    ("cache.hit_fetch_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.contended_fetch_us", "us"),
    ("core.parse_us", "us"),
    ("core.twoway_ms.b-bj", "ms"),
    ("core.twoway_ms.b-idj-x", "ms"),
    ("core.twoway_ms.b-idj-y", "ms"),
    ("core.nway_ms.ap", "ms"),
    ("core.nway_ms.pj", "ms"),
    ("core.nway_ms.pj-i", "ms"),
    ("core.pairs_scored_per_query", "count"),
    ("core.candidates_per_answer", "count"),
    ("rankjoin.pairs_pulled_per_answer", "count"),
    ("rankjoin.topk_push_ns", "ns"),
    ("engine.new_s", "s"),
    ("engine.plan_us", "us"),
    ("engine.run_overhead_us", "us"),
    ("engine.auto_vs_best", "ratio"),
    ("server.start_s", "s"),
    ("server.hop_ms", "ms"),
    ("server.parse_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.join_ms", "ms"),
    ("server.serialize_ms", "ms"),
    ("server.unattributed_ms", "ms"),
    ("server.encode_us", "us"),
    ("server.busy_rejections", "count"),
    ("server.stall_share", "ratio"),
    ("router.start_s", "s"),
    ("router.hop_ms", "ms"),
    ("router.backend_leg_ms", "ms"),
    ("router.fanout_share", "ratio"),
    ("router.shard_errors", "count"),
    ("router.reconnects", "count"),
    ("obs.trace_overhead_share", "ratio"),
    ("obs.scrape_ms", "ms"),
    ("spans.traces", "count"),
    ("spans.coverage", "ratio"),
    ("spans.self_share.walks", "ratio"),
    ("spans.self_share.cache", "ratio"),
    ("spans.self_share.core", "ratio"),
    ("spans.self_share.rankjoin", "ratio"),
    ("spans.self_share.engine", "ratio"),
    ("spans.self_share.server", "ratio"),
    ("spans.self_share.router", "ratio"),
    ("spans.self_share.unattributed", "ratio"),
    ("client.samples", "count"),
    ("client.cpu_share", "ratio"),
    ("host.cpu_ms_per_query", "ms"),
    ("host.nproc", "count"),
    ("host.load_start", "ratio"),
    ("host.load_end", "ratio"),
];

/// Values of one run, keyed by metric name.  Unset metrics read 0: the
/// layer is absent from the workload.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The `"metrics"` object of the result line: every metric of `table`,
    /// in declaration order, each `{"value": .., "unit": ..}`.
    pub fn render(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(self.get(name)),
                    json::quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    fn benchmark_json() -> json::Value {
        let path = crate::bench_dir().join("..").join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        json::parse(&text).unwrap()
    }

    fn declared(doc: &json::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .unwrap()
            .as_array()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let doc = benchmark_json();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                printed,
                declared(&doc, key),
                "{key}: none undeclared, none missing"
            );
        }
    }

    #[test]
    fn names_and_units_use_the_allowed_characters() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{unit}"
            );
        }
    }

    #[test]
    fn workloads_match_the_declaration() {
        let doc = benchmark_json();
        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap().to_string(),
                    w.get("why").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(ours, declared);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut m = Metrics::default();
        m.set("p50_ms", 1.5);
        let text = m.render(&END_TO_END);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.fields().len(), END_TO_END.len());
        assert_eq!(
            doc.get("p50_ms").unwrap().get("value").unwrap().as_f64(),
            Some(1.5)
        );
        assert_eq!(
            doc.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
    }
}
