//! Spans around the calls into each layer.
//!
//! The harness wraps every call it makes into the repository in a span;
//! spans inside the program are a later change. Spans stay in memory and
//! are written once, when the run ends. A disabled tracer records nothing,
//! which is how the untraced run and the traced run share one code path.

use serde_json::{json, Value};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts read at the same boundary (work done inside the span).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` inside when the tracer is disabled.
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        self.end_with(open, &[]);
    }

    pub fn end_with(&mut self, open: Open, counts: &[(&'static str, f64)]) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.counts.extend_from_slice(counts);
    }

    /// Time `f` inside a span and return (its result, seconds it took).
    /// The seconds are measured here, so they exist with tracing off too.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(layer, name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(open);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let counts: Vec<(String, Value)> = s
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), json!(*v)))
                    .collect();
                let parent = s.parent.map_or(Value::Null, |p| json!(p));
                json!({
                    "id": s.id,
                    "parent": parent,
                    "workload": workload,
                    "layer": s.layer,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "counts": Value::Map(counts),
                })
            })
            .collect();
        Value::Seq(spans)
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of that interval its direct children cover. Children never overlap
/// one another (the tracer is a stack), so their clipped durations add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            own[p as usize] = own[p as usize].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// Self seconds summed by layer, in order of first appearance.
pub fn self_seconds_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = self_times_ns(spans);
    let mut table: Vec<(&'static str, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(own) {
        let secs = ns as f64 * 1e-9;
        match table.iter_mut().find(|(layer, _)| *layer == s.layer) {
            Some(row) => row.1 += secs,
            None => table.push((s.layer, secs)),
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "core", 0, 100),
            span(1, Some(0), "atmo", 10, 40),
            span(2, Some(0), "ocean", 50, 70),
            span(3, Some(2), "iosys", 55, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 15, 5]);
        let by_layer = self_seconds_by_layer(&spans);
        let total: f64 = by_layer.iter().map(|(_, s)| s).sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times partition the root span"
        );
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![
            span(0, None, "core", 10, 50),
            span(1, Some(0), "atmo", 0, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.timed("core", "x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_records_parents() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("core", "outer");
        tr.timed("atmo", "inner", || ());
        tr.end_with(outer, &[("windows", 2.0)]);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[0].counts, vec![("windows", 2.0)]);
    }
}
