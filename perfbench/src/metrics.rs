//! Metric names, units, and the result line.
//!
//! The gated lists below ([`E2E`], [`LAYERS`]) are the ones
//! `BENCHMARK.json` declares; a self-test keeps the two in step. Every run
//! prints every name of its list. A per-layer metric whose layer a
//! workload never calls reads 0 on that workload.

use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics every workload reports with tracing off.
/// `op_p50_ms` is the median latency of the workload's unit of work: one
/// full command run for a batch workload, one 1-row predict for
/// `serve_mix` (whose bulk side `rows_per_s` already carries). The other
/// latencies (`small_*`, `bulk_*`, tails) are in the report only.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics of the traced replay.
pub const LAYERS: [(&str, &str); 39] = [
    ("obs.fsio.read_ms", "ms"),
    ("counters.csv.parse_ms", "ms"),
    ("counters.csv.mb_per_s", "MB/s"),
    ("mtperf.dataset_ms", "ms"),
    ("mtree.dataset.to_matrix_ms", "ms"),
    ("mtree.persist.load_ms", "ms"),
    ("mtree.compiled.compile_ms", "ms"),
    ("mtree.compiled.predict_ms", "ms"),
    ("mtree.compiled.rows_per_s", "rows/s"),
    ("predict.leaf_bucket_hit_ratio", "ratio"),
    ("mtperf.analytic.transplant_ms", "ms"),
    ("mtree.analysis.blame_ms", "ms"),
    ("mtperf.sweep.render_ms", "ms"),
    ("serve.protocol.decode_ms.bulk", "ms"),
    ("serve.protocol.decode_ms.small", "ms"),
    ("serve.router.validate_ms", "ms"),
    ("serve.engine.predict_ms", "ms"),
    ("serve.protocol.encode_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookup_us", "us"),
    ("serve.admission.push_pop_us", "us"),
    ("serve.registry.promote_ms", "ms"),
    ("serve.transport_queue_ms", "ms"),
    ("serve.overloaded", "count"),
    ("serve.deadline_miss", "count"),
    ("mtree.fit_ms", "ms"),
    ("mtree.split.root_ms", "ms"),
    ("mtree.model.root_fit_ms", "ms"),
    ("mtree.split_searches", "count"),
    ("mtree.nodes_built", "count"),
    ("mtree.pruned_subtrees", "count"),
    ("linalg.pool.utilization", "ratio"),
    ("linalg.pool.dispatches", "count"),
    ("linalg.pool.tasks_helped", "count"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.traced_wall_ms", "ms"),
    ("trace.replay_ms", "ms"),
];

/// Threads the host offers; recorded with every run.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median wall time (ms) of a fixed single-threaded integer loop: a
/// reading of the host's speed when a run starts, printed with every run
/// (not gated) so that a slower host can be told apart from a slower
/// program when figures move between runs.
pub fn host_calib_ms() -> f64 {
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..std::hint::black_box(20_000_000_u64) {
            x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
        }
        std::hint::black_box(x);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&times)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (invocations, requests, promotes).
    pub attempted: u64,
    /// Operations that failed: non-zero exit, timeout, error reply, or an
    /// output the oracle rejected.
    pub failed: u64,
    /// Measured values by name.
    pub values: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.values
            .push((name.to_string(), value, unit.to_string()));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Counts one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable report: every recorded metric with its unit.
    pub fn report(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{workload:<12} {:<34} {:>16.6} fraction",
            "failed_ratio",
            self.failed_ratio()
        );
        for (name, value, unit) in &self.values {
            let _ = writeln!(out, "{workload:<12} {name:<34} {value:>16.6} {unit}");
        }
        out
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// with exactly the `wanted` metrics (prefixed by workload when several
/// workloads ran). A wanted metric the run did not record reads 0.
pub fn result_line(outcomes: &[(&str, Outcome)], wanted: &[(&str, &str)], prefix: bool) -> String {
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let mut metrics = String::new();
    for (w, o) in outcomes {
        for (name, unit) in wanted {
            if !metrics.is_empty() {
                metrics.push(',');
            }
            let key = if prefix {
                format!("{w}.{name}")
            } else {
                (*name).to_string()
            };
            let value = o.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{key}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0 && attempted > 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_wanted_metrics() {
        let mut o = Outcome::default();
        o.op(true);
        o.op(false);
        o.set("setup_s", 0.25, "s");
        o.set("extra", 1.0, "x");
        let line = result_line(
            &[("w", o)],
            &[("setup_s", "s"), ("rows_per_s", "rows/s")],
            false,
        );
        let v = serde_json::parse_value(&line).unwrap();
        assert_eq!(v.get_field("correct"), Some(&serde::Value::Bool(false)));
        let m = v.get_field("metrics").unwrap().as_object().unwrap();
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["setup_s", "rows_per_s"]);
        assert!(line.contains("\"attempted\":2,\"failed\":1"));
    }

    /// The names and units here must be the ones `BENCHMARK.json` declares.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = serde_json::parse_value(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match v.get_field(key) {
                Some(serde::Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let f = |k| m.get_field(k).and_then(serde::Value::as_str).unwrap();
                        (f("name").to_string(), f("unit").to_string())
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&E2E));
        assert_eq!(names("per_layer"), own(&LAYERS));
    }
}
