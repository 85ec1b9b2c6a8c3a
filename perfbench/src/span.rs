//! In-memory spans around calls into each helios layer, and the
//! per-layer self times and work counts derived from them.
//!
//! A span is `{name, start, end, parent, op}`: the call it wraps, its
//! wall interval relative to the tracer's epoch, the enclosing span
//! and the operation (cell, query, execution) it belongs to. Spans
//! whose name starts with `op.` are the per-operation parents; every
//! other name is a layer call. A span's self time is its duration
//! minus the durations of its direct children, so nested layer calls
//! are never counted twice.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::Metric;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call (`store.append`, `sched.plan_s.heft`, ...) or
    /// operation parent (`op.cell`, `op.query`, `op.execution`).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation this call belongs to (cell index, query number,
    /// execution number).
    pub op: u64,
}

/// Records spans when enabled; a disabled tracer only runs the
/// wrapped calls.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records spans and counts.
    #[must_use]
    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Adds `by` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The work counters.
    #[must_use]
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Self time in seconds per span name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Span names of the layer calls that have their own self-time metric,
/// in reporting order, with the metric each feeds.
const LAYER_SPANS: [(&str, &str); 11] = [
    ("workflow.generate", "workflow.generate_s"),
    ("exec.execute", "exec.execute_s"),
    ("resilience.execute", "resilience.execute_s"),
    ("metrics.slr", "metrics.slr_s"),
    ("store.append", "store.append_s"),
    ("store.flush", "store.flush_s"),
    ("store.salvage", "store.salvage_s"),
    ("store.read", "store.read_s"),
    ("store.query", "store.query_s"),
    ("campaign.expand", "campaign.expand_s"),
    ("campaign.merge", "campaign.merge_s"),
];

/// Work counters reported as per-layer metrics, with their units.
pub const COUNTERS: [(&str, &str); 21] = [
    ("workflow.generate_calls", "count"),
    ("workflow.tasks", "count"),
    ("sched.plan_calls", "count"),
    ("sched.plan_infeasible", "count"),
    ("exec.executions", "count"),
    ("exec.sim_tasks", "count"),
    ("exec.transfers", "count"),
    ("exec.transfer_bytes", "bytes"),
    ("resilience.failures", "count"),
    ("resilience.retries", "count"),
    ("resilience.incomplete", "count"),
    ("metrics.slr_calls", "count"),
    ("store.appends", "count"),
    ("store.flushes", "count"),
    ("store.bytes_written", "bytes"),
    ("store.salvaged_rows", "count"),
    ("store.rows_read", "count"),
    ("store.bytes_read", "bytes"),
    ("store.queries", "count"),
    ("store.query_rows_out", "count"),
    ("campaign.merge_rows", "count"),
];

/// The counters that must repeat exactly across runs of one seed: the
/// host-independent work gate.
pub const DETERMINISTIC_COUNTS: [&str; 8] = [
    "sched.plan_calls",
    "exec.sim_tasks",
    "resilience.failures",
    "resilience.retries",
    "store.flushes",
    "store.bytes_written",
    "store.rows_read",
    "store.query_rows_out",
];

/// Every scheduler of the lineup, with its plan span name.
pub const PLAN_SPANS: [(&str, &str); 12] = [
    ("heft", "sched.plan_s.heft"),
    ("cpop", "sched.plan_s.cpop"),
    ("peft", "sched.plan_s.peft"),
    ("lookahead", "sched.plan_s.lookahead"),
    ("min-min", "sched.plan_s.min-min"),
    ("max-min", "sched.plan_s.max-min"),
    ("mct", "sched.plan_s.mct"),
    ("met", "sched.plan_s.met"),
    ("olb", "sched.plan_s.olb"),
    ("round-robin", "sched.plan_s.round-robin"),
    ("random", "sched.plan_s.random"),
    ("annealing", "sched.plan_s.annealing"),
];

/// The plan span name of scheduler `name`, if it is in the lineup.
#[must_use]
pub fn plan_span(name: &str) -> Option<&'static str> {
    PLAN_SPANS.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
}

/// The per-layer metrics of one traced run, every metric present (zero
/// for layers the workload never calls).
///
/// `wall_s` is the traced wall and `untraced_wall_s` the wall of the
/// same work run without spans; `campaign.driver_other_s` is the
/// traced wall minus every layer's self time (fan-out, report assembly,
/// the replica's own bookkeeping).
#[must_use]
pub fn layer_metrics(tracer: &Tracer, wall_s: f64, untraced_wall_s: f64) -> Vec<Metric> {
    let self_times = tracer.self_times();
    let time = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    let mut out = Vec::new();
    let mut layered = 0.0;
    for (span, metric) in LAYER_SPANS {
        let t = time(span);
        layered += t;
        out.push(Metric::new(metric, t, "s"));
    }
    let plan_total: f64 = PLAN_SPANS.iter().map(|(_, s)| time(s)).sum();
    layered += plan_total;
    out.push(Metric::new("sched.plan_s", plan_total, "s"));
    for (_, span) in PLAN_SPANS {
        out.push(Metric::new(span, time(span), "s"));
    }
    out.push(Metric::new(
        "campaign.driver_other_s",
        wall_s - layered,
        "s",
    ));
    let counts = tracer.counts();
    for (name, unit) in COUNTERS {
        out.push(Metric::new(
            name,
            counts.get(name).copied().unwrap_or(0.0),
            unit,
        ));
    }
    let spans = tracer.spans();
    let ops = spans.iter().filter(|s| s.name.starts_with("op.")).count();
    out.push(Metric::new("trace.spans", spans.len() as f64, "count"));
    out.push(Metric::new("trace.ops", ops as f64, "count"));
    out.push(Metric::new("trace.wall_s", wall_s, "s"));
    out.push(Metric::new("trace.untraced_wall_s", untraced_wall_s, "s"));
    out.push(Metric::new(
        "trace.overhead_frac",
        wall_s / untraced_wall_s - 1.0,
        "frac",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.span("op.cell", 0, |t| {
            t.span("workflow.generate", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let st = t.self_times();
        assert!(st["workflow.generate"] >= 0.005);
        assert!(st["op.cell"] < st["workflow.generate"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("exec.execute", 3, |t| {
            t.count("exec.executions", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }

    #[test]
    fn every_lineup_scheduler_has_a_plan_span() {
        for s in helios_sched::all_schedulers() {
            assert!(plan_span(s.name()).is_some(), "{}", s.name());
        }
    }
}
