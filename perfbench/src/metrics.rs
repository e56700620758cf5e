//! The benchmark's metric vocabulary and its result line.
//!
//! The two tables below are the single source of the names and units the
//! benchmark prints; a test holds them equal to `BENCHMARK.json`.

use crate::stats::Tally;
use serde::Value;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// each of them; what an "operation" is depends on the workload (one cold
/// SpMM, one served request, one streamed run).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run. A workload that never enters a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.nproc", "count"),
    ("bench.workers", "count"),
    ("bench.traced_ops", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.span_coverage_ratio", "ratio"),
    ("bench.unattributed_s", "s"),
    ("matrix.gen_s", "s"),
    ("matrix.read_s", "s"),
    ("matrix.read_mb_per_s", "MiB/s"),
    ("partition.classify_s", "s"),
    ("partition.sync_stripes", "count"),
    ("partition.async_stripes", "count"),
    ("core.runner.b_gen_s", "s"),
    ("core.prepared.build_s", "s"),
    ("core.prepared.mb", "MiB"),
    ("core.runner.exec_s", "s"),
    ("core.kernels.wall_s", "s"),
    ("core.runner.exec_nonkernel_s", "s"),
    ("core.kernels.gflops", "GFLOP/s"),
    ("core.kernels.flop_per_byte_computed", "flop/B"),
    ("core.kernels.serial_reference_s", "s"),
    ("net.sim_s", "s"),
    ("net.elements_received", "count"),
    ("net.messages", "count"),
    ("core.auto.resolve_s", "s"),
    ("frontend.submit_s", "s"),
    ("frontend.poll_s", "s"),
    ("frontend.polls", "count"),
    ("frontend.useful_poll_ratio", "ratio"),
    ("frontend.close.k_budget", "count"),
    ("frontend.close.deadline", "count"),
    ("frontend.close.aged", "count"),
    ("frontend.close.flush", "count"),
    ("frontend.deadline_met_ratio", "ratio"),
    ("frontend.queue_wait_sim_s", "s"),
    ("frontend.rejected", "count"),
    ("serve.batch_size_mean", "requests"),
    ("serve.executions", "count"),
    ("serve.cache_lookups", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("core.stream.pass1_s", "s"),
    ("core.stream.pass2_s", "s"),
    ("core.stream.pass3_s", "s"),
    ("core.stream.pass4_s", "s"),
    ("core.stream.pass5_s", "s"),
    ("core.stream.spilled_mb", "MiB"),
    ("core.stream.peak_shard_mb", "MiB"),
    ("core.stream.est_host_mb", "MiB"),
];

/// Bytes per MiB, the memory unit of every `_mb` metric.
pub const MIB: f64 = (1u64 << 20) as f64;

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples the value summarizes (1 for a single reading or a count).
    pub samples: usize,
}

/// A workload's results: metric values plus extra human-readable lines.
#[derive(Debug, Default)]
pub struct Results {
    values: Vec<(&'static str, Measured)>,
    /// Lines printed before the result line (workload-specific names such
    /// as `serve_p90_s`, notes on layers the workload bypasses).
    pub notes: Vec<String>,
    /// Checked operations.
    pub tally: Tally,
}

impl Results {
    /// Sets metric `name` (which must be in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, Measured { value, samples }));
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, m)| *m)
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable metric block and the final result line for one
    /// mode: the end-to-end table untraced, the per-layer table traced.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing: each workload must measure
    /// all of them.
    pub fn render(&self, traced: bool) -> (Vec<String>, String) {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut lines = Vec::new();
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let measured = match self.get(name) {
                Some(m) => m,
                None if traced => {
                    lines.push(format!("{name:<40} 0 {unit} (layer not exercised)"));
                    metrics.push(metric_value(name, 0.0, unit));
                    continue;
                }
                None => panic!("end-to-end metric {name} was not measured"),
            };
            lines.push(format!("{name:<40} {:.6} {unit} (n={})", measured.value, measured.samples));
            metrics.push(metric_value(name, measured.value, unit));
        }
        let correct = self.tally.failed == 0 && self.tally.attempted > 0;
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(self.tally.attempted)),
            ("failed".into(), Value::UInt(self.tally.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        (lines, serde_json::to_string(&line).expect("a Value always serializes"))
    }
}

fn metric_value(name: &str, value: f64, unit: &str) -> (String, Value) {
    (
        name.to_string(),
        Value::Object(vec![
            ("value".into(), Value::Number(value)),
            ("unit".into(), Value::String(unit.into())),
        ]),
    )
}

/// The declared unit of `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let entries = root.as_object().expect("an object");
        let list = &entries.iter().find(|(k, _)| k == section).expect("section present").1;
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let field = |key: &str| {
                    m.iter()
                        .find(|(k, _)| k == key)
                        .and_then(|(_, v)| v.as_str())
                        .unwrap()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn names_and_units_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut r = Results::default();
        for &(name, _) in END_TO_END {
            r.set(name, 1.5, 3);
        }
        r.tally.record(true);
        let (_, line) = r.render(false);
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let (_, traced) = r.render(true);
        let v: Value = serde_json::from_str(&traced).unwrap();
        let metrics = v.as_object().unwrap()[3].1.as_object().unwrap().len();
        assert_eq!(metrics, PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn missing_end_to_end_metric_is_a_bug() {
        Results::default().render(false);
    }
}
