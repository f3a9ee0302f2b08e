//! Metric names and units, and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("collectives_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("collectives_ok_frac", "fraction"),
    ("sim_collective_p50_ms", "ms"),
    ("sim_collective_p99_ms", "ms"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("topology.route_pairs", "count"),
    ("topology.route_cold_us_p50", "us"),
    ("topology.route_cold_share", "fraction"),
    ("sim.steps", "count"),
    ("sim.polls", "count"),
    ("sim.wasted_polls", "count"),
    ("sim.wakes", "count"),
    ("sim.useful_poll_frac", "fraction"),
    ("sim.step_us_p50", "us"),
    ("sim.step_us_p99", "us"),
    ("netsim.remap_hit_frac", "fraction"),
    ("netsim.peak_live_flows", "count"),
    ("netsim.start_flow_us_p50", "us"),
    ("netsim.advance_us_p50", "us"),
    ("collectives.schedule_ring_us_p50", "us"),
    ("core.schedule_cache_hits", "count"),
    ("core.schedule_cache_misses", "count"),
    ("control.optimal_rings_us_p50", "us"),
    ("control.ffa_ms", "ms"),
    ("control.optimize_cluster_ms", "ms"),
    ("core.add_app_us_p50", "us"),
    ("core.reconfigure_us_p50", "us"),
    ("core.gossip_resends", "count"),
    ("core.reconfig_rejects", "count"),
    ("core.recoveries", "count"),
    ("core.flow_retries", "count"),
    ("core.collectives_failed", "count"),
    ("baseline.spawn_us_p50", "us"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Metric values of one run, checked against a schema on output.
pub struct Metrics {
    schema: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set to be filled with every metric of `schema`.
    pub fn new(schema: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            schema,
            values: BTreeMap::new(),
        }
    }

    /// Record `name` once.
    ///
    /// # Panics
    /// Panics on a name outside the schema, a repeated name, or a value
    /// that is not finite (JSON has no NaN).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.schema.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the schema"
        );
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        let prev = self.values.insert(name, value);
        assert!(prev.is_none(), "metric {name} set twice");
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}}}`, metrics in schema
    /// order. Values print with every digit: Rust's `{}` is round-trip exact
    /// and never uses an exponent.
    ///
    /// # Panics
    /// Panics if any schema metric was never set.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .schema
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` follows the naming rule: starts with a letter or digit,
    /// at most 64 of letters, digits, `_`, `.`, `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` follows the unit rule: at most 16 of letters, digits,
    /// `_`, `/`, `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn all() -> impl Iterator<Item = &'static (&'static str, &'static str)> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    #[test]
    fn names_and_units_follow_the_rules_and_are_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in all() {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let flat: String = text.split_whitespace().collect();
        for (section, schema) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = flat
                .find(&format!("\"{section}\":["))
                .unwrap_or_else(|| panic!("no {section} section"));
            let end = start + flat[start..].find(']').expect("section closes");
            let block = &flat[start..end];
            for (name, unit) in schema {
                let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
                assert!(block.contains(&entry), "{section} lacks {name} [{unit}]");
            }
            assert_eq!(
                block.matches("\"name\":").count(),
                schema.len(),
                "{section} declares metrics the benchmark does not print"
            );
        }
    }

    #[test]
    fn readme_records_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let doc = std::fs::read_to_string(path).expect("README.md beside the benchmark");
        for w in crate::workload::Workload::ALL {
            assert!(
                doc.contains(&format!("**`{}`**", w.name())),
                "README does not say why {} was chosen",
                w.name()
            );
        }
        for (name, _) in all() {
            assert!(doc.contains(&format!("`{name}`")), "README lacks {name}");
        }
        assert!(doc.contains("| layer | metric | from | should move | on |"));
    }

    #[test]
    fn json_line_has_every_metric_with_unit() {
        let mut m = Metrics::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.25);
        }
        let line = m.to_json(true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn missing_metric_is_refused() {
        Metrics::new(END_TO_END).to_json(true, 1, 0);
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn unknown_metric_is_refused() {
        Metrics::new(PER_LAYER).set("collectives_per_s", 1.0);
    }
}
