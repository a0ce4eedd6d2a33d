//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, around the benchmark's own calls into
//! the program's public functions. A span has a name, a start, an end
//! and the index of the span that caused it. Two kinds exist:
//!
//! * measured spans, timed with `Instant` by the benchmark;
//! * derived spans, whose duration comes from a value the program
//!   returned (`RunOutcome::time_per_model`, a response's
//!   `latency_ms`). They are placed at the start of their parent and
//!   flagged `derived` in the written trace.
//!
//! A disabled recorder (the timed runs) records nothing; every method
//! is then a branch and a return.

use std::time::Instant;

/// Index of a recorded span; `NONE` when tracing is off.
pub type SpanId = usize;
const NONE: SpanId = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub derived: bool,
    /// Work done inside the span (solver iterations, requests …).
    pub count: u64,
    /// Floating-point operations reported by the program for the span.
    pub flops: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The span list of one process.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        self.record(name, parent, Instant::now(), Instant::now())
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        if id != NONE {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Records a finished span from two timestamps.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: parent.filter(|&p| p != NONE),
            derived: false,
            count: 0,
            flops: 0,
        })
    }

    /// Records a child whose duration the program reported, placed at
    /// the start of its parent.
    pub fn derived(&mut self, name: &str, parent: SpanId, secs: f64) -> SpanId {
        if !self.enabled || parent == NONE {
            return NONE;
        }
        let start_ns = self.spans[parent].start_ns;
        let end_ns = start_ns + (secs.max(0.0) * 1e9) as u64;
        self.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            derived: true,
            count: 0,
            flops: 0,
        })
    }

    /// Attaches work counts to a span.
    pub fn add_work(&mut self, id: SpanId, count: u64, flops: u64) {
        if id != NONE {
            self.spans[id].count += count;
            self.spans[id].flops += flops;
        }
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Seconds of each span not covered by its direct children.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Total self time of the spans named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_secs())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Splits the root spans' total time into per-name self times. The
    /// rows plus `unattributed` (the roots' own self time) add up to
    /// `total` by construction.
    pub fn reconcile(&self) -> Reconciliation {
        let own = self.self_secs();
        let mut rows: Vec<(String, f64)> = Vec::new();
        let (mut total, mut unattributed) = (0.0, 0.0);
        for (s, t) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                total += s.secs();
                unattributed += t;
            } else if let Some(row) = rows.iter_mut().find(|(n, _)| *n == s.name) {
                row.1 += t;
            } else {
                rows.push((s.name.clone(), t));
            }
        }
        Reconciliation {
            total,
            rows,
            unattributed,
        }
    }

    /// The span list as JSON, for the trace file written at exit.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"derived\":{},\"count\":{},\"flops\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.derived,
                s.count,
                s.flops,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// A traced workload's time, split by layer.
pub struct Reconciliation {
    pub total: f64,
    pub rows: Vec<(String, f64)>,
    pub unattributed: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rows_and_unattributed_add_up_to_the_roots() {
        let mut t = Trace::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = t.record("root", None, ms(0), ms(100));
        let a = t.record("a", Some(root), ms(10), ms(60));
        t.record("b", Some(a), ms(20), ms(30));
        t.derived("c", a, 0.005);
        t.record("root", None, ms(200), ms(250));
        let r = t.reconcile();
        assert!((r.total - 0.150).abs() < 1e-9);
        let row = |n: &str| r.rows.iter().find(|(m, _)| m == n).unwrap().1;
        assert!((row("a") - 0.035).abs() < 1e-9);
        assert!((row("b") - 0.010).abs() < 1e-9);
        assert!((row("c") - 0.005).abs() < 1e-9);
        assert!((r.unattributed - 0.100).abs() < 1e-9);
        let sum: f64 = r.rows.iter().map(|(_, s)| s).sum::<f64>() + r.unattributed;
        assert!((sum - r.total).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut t = Trace::new(false);
        let id = t.open("x", None);
        t.add_work(id, 3, 4);
        t.derived("y", id, 1.0);
        t.close(id);
        assert!(t.spans().is_empty());
    }
}
