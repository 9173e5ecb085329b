//! Metric names, units and the one-line JSON result.
//!
//! The lists here are the benchmark's contract with `BENCHMARK.json`
//! (a test keeps the two in step): an untraced run prints every
//! end-to-end metric, a traced run every per-layer metric, on every
//! workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, from the untraced run: `(name, unit)`.
///
/// A "query" is the workload's unit of answered work: one execution
/// group on `matrix-cold`, one layer point on `fig6-sweep`, one client
/// request on `serve-store`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_msteps_per_s", "Msteps/s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("simd.record.instrs", "count"),
    ("simd.record.ns_per_instr", "ns/instr"),
    ("simd.decode.instrs", "count"),
    ("simd.decode.ns_per_instr", "ns/instr"),
    ("uarch.cache.accesses", "count"),
    ("uarch.cache.ns_per_access", "ns/access"),
    ("uarch.warm.ns_per_step", "ns/step"),
    ("uarch.timed.ns_per_step", "ns/step"),
    ("uarch.sched.ns_per_step", "ns/step"),
    ("uarch.multicore.mean_fanout", "cores"),
    ("uarch.sim.cycles", "count"),
    ("uarch.sim.l1d_misses", "count"),
    ("uarch.sim.llc_misses", "count"),
    ("uarch.sim.dram_accesses", "count"),
    ("core.tracestore.bytes", "B"),
    ("core.tracestore.bytes_per_instr", "B/instr"),
    ("core.tracestore.populate_s", "s"),
    ("core.tracestore.lookup_ns_per_byte", "ns/B"),
    ("core.tracestore.replay_ns_per_instr", "ns/instr"),
    ("serve.groups.cache", "count"),
    ("serve.groups.shared", "count"),
    ("serve.groups.fresh", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_query_p50_ms", "ms"),
    ("serve.fresh_query_p50_ms", "ms"),
    ("serve.fresh_group_ms", "ms"),
    ("core.report.render_ms", "ms"),
    ("query.samples", "count"),
    ("query.tail_pct", "%"),
    ("trace.total_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace_overhead", "ratio"),
    ("fail_frac", "ratio"),
];

/// Metric values by name, filled by a workload.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: `{"correct", "attempted", "failed", "metrics"}`
/// with exactly the metrics of `list`, each with its unit.
///
/// # Panics
///
/// Panics when `values` lacks a metric of `list` or holds a value that
/// is not finite: both are bugs in the workload that filled it.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[(&str, &str)],
    values: &Values,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = *values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(v.is_finite(), "metric {name} is {v}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, u) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(u), "bad unit {u}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let listed = doc.matches("\"name\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len(),
            "BENCHMARK.json names a metric or workload the benchmark does not emit"
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::WORKLOADS {
            assert!(
                doc.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
    }

    #[test]
    fn result_line_prints_every_listed_metric_with_its_unit() {
        let values: Values = [("a", 1.25), ("b", 3.0), ("extra", 9.0)]
            .into_iter()
            .collect();
        let line = result_line(true, 4, 0, &[("a", "ms"), ("b", "count")], &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        result_line(true, 1, 0, &[("a", "s")], &Values::new());
    }
}
