//! The benchmark's own spans: recorded around its calls into each
//! layer, kept in memory, and reduced to per-layer self time.
//!
//! A span's self time is its duration minus the time its direct child
//! spans cover. Work a layer does inside a call the benchmark cannot
//! wrap (extraction inside `SessionWindow::push`, GEMMs inside a model
//! step) is read from the program's own histograms around the call and
//! recorded as a child span with [`Tracer::child_time`].

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span, times in seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Span recorder. A disabled tracer runs the same closures and records
/// nothing, so the difference between the two is the tracing cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span of `layer`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(SpanRecord {
            layer,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Records `secs` of `layer` work that happened inside the
    /// innermost open span (ending now), measured by the program
    /// itself rather than by a span of the benchmark.
    pub fn child_time(&mut self, layer: &'static str, secs: f64) {
        if !self.enabled || secs <= 0.0 {
            return;
        }
        let end = self.now();
        self.spans.push(SpanRecord {
            layer,
            parent: self.stack.last().copied(),
            start: end - secs,
            end,
        });
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Sum of span durations.
    pub total: f64,
    /// Sum of span durations minus their direct children's.
    pub self_time: f64,
    /// Number of spans.
    pub count: usize,
}

/// Reduces spans to per-layer totals and self times.
pub fn layer_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_cover = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, cover) in spans.iter().zip(child_cover) {
        let e = out.entry(s.layer).or_default();
        let dur = s.end - s.start;
        e.total += dur;
        e.self_time += dur - cover;
        e.count += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: &'static str, parent: Option<usize>, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            layer,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,10] ⊃ a [1,4] ⊃ b [2,3]; root ⊃ c [5,9]; two `a`s.
        let spans = vec![
            rec("root", None, 0.0, 10.0),
            rec("a", Some(0), 1.0, 4.0),
            rec("b", Some(1), 2.0, 3.0),
            rec("c", Some(0), 5.0, 9.0),
            rec("a", Some(3), 6.0, 7.0),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["root"].self_time, 3.0);
        assert_eq!(t["a"].self_time, 3.0);
        assert_eq!(t["a"].total, 4.0);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["b"].self_time, 1.0);
        assert_eq!(t["c"].self_time, 3.0);
        let self_sum: f64 = t.values().map(|l| l.self_time).sum();
        assert_eq!(self_sum, t["root"].total, "self times partition the root");
    }

    #[test]
    fn tracer_nests_spans_and_program_measured_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |tr| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                tr.child_time("hist", 0.001);
            });
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        let t = layer_times(s);
        assert!((t["hist"].total - 0.001).abs() < 1e-12);
        assert!(t["inner"].self_time < t["inner"].total - 0.000_999);
        assert!(t["outer"].self_time >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let mut tr = Tracer::new(false);
        let v = tr.span("x", |tr| {
            tr.child_time("y", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
