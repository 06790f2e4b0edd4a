//! The traced run's span recorder and its join with the program's own
//! observability output.
//!
//! The benchmark times each public call it replays with a span of its own
//! (name, start, end, parent, workload id). Spans stay in memory and are
//! written once, at the end, as JSONL next to the program's
//! `mtperf-trace-v1` stream. The program's `--metrics json` report (the
//! last stderr line of a traced invocation) supplies the spans and
//! counters the program already emits.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::Value;

/// One closed benchmark span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `counters.csv.parse`.
    pub name: String,
    /// Offset of the start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the end from the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration of the span.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder for one workload's traced run.
pub struct Recorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose spans carry `workload` as their workload id.
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f();
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Opens a span that the caller closes with [`Recorder::exit`]; for
    /// spans whose body needs `&mut self`.
    pub fn enter(&mut self, name: &str) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
    }

    /// Closes the innermost span opened with [`Recorder::enter`].
    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end = self.epoch.elapsed();
        }
    }

    /// Total duration of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64() * 1e3)
            .sum()
    }

    /// Self time of span `idx`: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_time(&self, idx: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur)
            .sum();
        self.spans[idx].dur().saturating_sub(children)
    }

    /// Sum of the self times of every span whose name starts with one of
    /// `layers`, in ms.
    pub fn self_ms(&self, layers: &[&str]) -> f64 {
        (0..self.spans.len())
            .filter(|&i| layers.iter().any(|l| self.spans[i].name.starts_with(l)))
            .map(|i| self.self_time(i).as_secs_f64() * 1e3)
            .sum()
    }

    /// Writes every span as one JSONL line, followed by the program's own
    /// trace stream (if any) so both sit in one file.
    pub fn write(&self, path: &Path, program_trace: Option<&Path>) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ev\":\"bench_span\",\"workload\":\"{}\",\"id\":{i},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                self.workload,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        if let Some(p) = program_trace {
            if let Ok(text) = std::fs::read_to_string(p) {
                out.push_str(&text);
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The program's end-of-run `--metrics json` report.
#[derive(Debug, Default)]
pub struct ProgramReport {
    /// Enablement to finish, µs.
    pub wall_us: f64,
    counters: Vec<(String, f64)>,
    /// Aggregated spans: (path, calls, total µs).
    spans: Vec<(String, f64, f64)>,
}

fn num(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        _ => 0.0,
    }
}

impl ProgramReport {
    /// Finds and parses the report: the last line of `stderr` that starts
    /// with `{"wall_us":`.
    pub fn from_stderr(stderr: &str) -> Result<ProgramReport, String> {
        let line = stderr
            .lines()
            .rev()
            .find(|l| l.starts_with("{\"wall_us\":"))
            .ok_or("no --metrics json report on stderr")?;
        let v = serde_json::parse_value(line).map_err(|e| format!("metrics json: {e}"))?;
        let counters = v
            .get_field("counters")
            .and_then(Value::as_object)
            .unwrap_or(&[])
            .iter()
            .map(|(k, v)| (k.clone(), num(v)))
            .collect();
        let spans = match v.get_field("spans") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|s| {
                    (
                        s.get_field("path")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        s.get_field("calls").map_or(0.0, num),
                        s.get_field("total_us").map_or(0.0, num),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(ProgramReport {
            wall_us: v.get_field("wall_us").map_or(0.0, num),
            counters,
            spans,
        })
    }

    /// A counter's value; 0 when the program never touched it.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Total µs of the aggregated span at exactly `path`; 0 when absent.
    pub fn span_us(&self, path: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(p, _, _)| p == path)
            .map(|(_, _, us)| us)
            .sum()
    }

    /// Total µs of every aggregated span whose path ends with `suffix`.
    pub fn spans_ending_us(&self, suffix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(p, _, _)| p == suffix || p.ends_with(&format!("/{suffix}")))
            .map(|(_, _, us)| us)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new("w");
        r.time("outer", || {
            std::thread::sleep(Duration::from_millis(5));
        });
        r.enter("parent");
        r.time("child", || std::thread::sleep(Duration::from_millis(20)));
        r.exit();
        let parent = r.spans.iter().position(|s| s.name == "parent").unwrap();
        assert!(r.self_time(parent) < Duration::from_millis(15));
        assert!(r.total_ms("child") >= 20.0);
        assert_eq!(r.spans[2].parent, Some(parent));
    }

    #[test]
    fn parses_the_program_metrics_report() {
        let stderr = "noise\n{\"wall_us\":1500,\"counters\":{\"mtree.nodes_built\":383},\"gauges\":{},\"spans\":[{\"path\":\"cv/fold/fit\",\"calls\":10,\"total_us\":740},{\"path\":\"fit\",\"calls\":1,\"total_us\":55}]}\n";
        let r = ProgramReport::from_stderr(stderr).unwrap();
        assert_eq!(r.wall_us, 1500.0);
        assert_eq!(r.counter("mtree.nodes_built"), 383.0);
        assert_eq!(r.counter("absent"), 0.0);
        assert_eq!(r.span_us("cv/fold/fit"), 740.0);
        assert_eq!(r.spans_ending_us("fit"), 795.0);
        assert!(ProgramReport::from_stderr("nothing").is_err());
    }
}
