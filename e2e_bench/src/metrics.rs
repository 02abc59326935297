//! The metric catalogue and the result line the benchmark prints last.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mcdnn_obs::json::escape;

/// A reported metric: name and unit.
pub type Metric = (&'static str, &'static str);

/// What a user of the engine sees, measured with tracing off. Times
/// are scaled to the reference host (see `speed`).
pub const END_TO_END: [Metric; 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("call_p50_ms", "ms"),
    ("call_p75_ms", "ms"),
    ("hit_rate", "ratio"),
    ("virtual_mean_ms", "virtual_ms"),
    ("success_rate", "ratio"),
    ("peak_heap_mib", "MiB"),
];

/// One number per layer, from the attribution passes. A layer a
/// workload never enters reports 0.
pub const PER_LAYER: [Metric; 28] = [
    ("engine.call_p95_ms", "ms"),
    ("serve.admit_ns.p50", "ns"),
    ("serve.admit_ns.p99", "ns"),
    ("serve.start_us", "us"),
    ("serve.finish_us", "us"),
    ("serve.adapt_idle_ns", "ns"),
    ("serve.adapt_commit_us", "us"),
    ("serve.commits_per_call", "count"),
    ("partition.compile_us", "us"),
    ("partition.cache_hit_ns", "ns"),
    ("partition.decide_ns", "ns"),
    ("partition.cache_hit_ratio", "ratio"),
    ("partition.cache_entries", "count"),
    ("degrade.ladder_compile_us", "us"),
    ("des.simulate_ns", "ns"),
    ("slo.dispatch_ns_per_req", "ns"),
    ("slo.generate_ns_per_req", "ns"),
    ("slo.heap_stale_ratio", "ratio"),
    ("slo.price_memo_hit_ratio", "ratio"),
    ("slo.queue_depth.p99", "count"),
    ("slo.shed_ratio", "ratio"),
    ("slo.degraded_ratio", "ratio"),
    ("pool.scaling", "x"),
    ("pool.busy_frac", "ratio"),
    ("obs.overhead_pct", "%"),
    ("obs.spans_per_call", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// True for names made only of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values of one run, keyed by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Render `{"name": {"value": v, "unit": u}, ...}` in catalogue order.
/// A malformed name, a catalogue name without a value, or a value that
/// is not finite, is returned as an error.
pub fn render(catalogue: &[Metric], values: &Values) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is malformed"));
        }
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            escape(name),
            escape(unit)
        );
    }
    out.push('}');
    Ok(out)
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdnn_obs::json::{parse, Json};

    #[test]
    fn every_name_and_unit_fits_the_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_round_trips_through_the_obs_parser() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (*n, 0.1 + i as f64 * 1234.5678))
            .collect();
        let line = result_line(true, 12, 0, &render(&END_TO_END, &values).unwrap());
        let doc = parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(12.0));
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, unit), (key, m)) in END_TO_END.iter().zip(metrics) {
            assert_eq!(name, key);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(values[name]));
        }
    }

    #[test]
    fn missing_or_non_finite_values_are_refused() {
        let mut values = Values::new();
        assert!(render(&END_TO_END, &values).is_err());
        for (name, _) in END_TO_END {
            values.insert(name, 1.0);
        }
        assert!(render(&END_TO_END, &values).is_ok());
        values.insert("hit_rate", f64::NAN);
        assert!(render(&END_TO_END, &values).is_err());
    }

    /// The catalogue here and the one in `BENCHMARK.json` must agree.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("valid JSON");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, catalogue, "{key}");
        }
    }
}
