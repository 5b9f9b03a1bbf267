//! The benchmark's clock and its in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side only, around calls into a
//! layer of the system; nothing inside the system is instrumented. A span
//! holds a name, start and end in nanoseconds since the tracer was made,
//! the span that caused it and, where it belongs to one request, the
//! request's arrival index. They stay in memory until [`Tracer::to_json`]
//! is written out at the end of the run.

use std::collections::BTreeMap;
use std::time::Instant;

/// The one wall-clock read of the benchmark.
pub fn now() -> Instant {
    Instant::now() // lint: allow(det, reason = "the benchmark measures wall time by design; every ranking is compared bit for bit separately and never depends on a timing")
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: Option<u64>,
}

/// Records spans when enabled; every call is a branch when it is not.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn stamp(&self) -> u64 {
        now().duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open_span(&mut self, name: &'static str, request: Option<u64>) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.stamp();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close_span(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.stamp();
        if let Some(rec) = self
            .open
            .pop()
            .and_then(|id| self.spans.get_mut(id as usize))
        {
            rec.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span; its result and the seconds it took.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let began = now();
        self.open_span(name, request);
        let result = f();
        self.close_span();
        (result, now().duration_since(began).as_secs_f64())
    }

    /// Drops the innermost open span without keeping it (a poll that found
    /// nothing to do is idle time, not a span).
    pub fn discard_span(&mut self) {
        if !self.on {
            return;
        }
        // Only the newest span can be discarded: ids are positions.
        if let Some(id) = self.open.pop() {
            if id as usize + 1 == self.spans.len() {
                self.spans.pop();
            }
        }
    }

    /// Total and self seconds per span name; self time is a span's
    /// duration minus the part its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p as usize)) {
                *slot += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(kids) as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The trace file: one object per span, ids are positions in the list.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out =
            format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{request}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Aggregate of every span sharing a name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.open_span("outer", None);
        t.open_span("inner", Some(3));
        t.close_span();
        t.close_span();
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-12);
        assert!(t.to_json("w", 1).contains("\"name\":\"inner\""));
        assert!(t.to_json("w", 1).contains("\"parent\":0,\"request\":3"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_a_discarded_span_is_gone() {
        let mut off = Tracer::new(false);
        off.open_span("x", None);
        off.close_span();
        assert!(off.totals().is_empty());
        let mut on = Tracer::new(true);
        on.open_span("poll", None);
        on.discard_span();
        assert!(on.totals().is_empty());
    }
}
