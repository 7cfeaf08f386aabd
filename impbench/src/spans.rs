//! Host-time spans around the benchmark's own calls into each layer.
//!
//! Spans stay in memory while the traced repetition runs and are
//! written out once, as Chrome `trace_event` JSON, when the benchmark
//! ends. A layer's *self time* is its spans' duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span. Times are nanoseconds since the
/// tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary the span times, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns after the origin.
    pub start: u64,
    /// End, ns after the origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The workload cell the work belongs to, if any.
    pub cell: Option<usize>,
}

/// An in-memory span recorder. A disabled tracer records nothing, so
/// the measured runs share code with the traced one at no cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, cell: Option<usize>) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let i = self.open.pop().expect("close matches an open span");
        self.spans[i].end = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.open(name, cell);
        let out = f();
        self.close();
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total self time per span name, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans)
    }

    /// The spans as a Chrome `trace_event` document (complete `X`
    /// events, microsecond timestamps).
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = format!("\"id\":{i}");
                if let Some(p) = s.parent {
                    args.push_str(&format!(",\"parent\":{p}"));
                }
                if let Some(c) = s.cell {
                    args.push_str(&format!(",\"cell\":{c}"));
                }
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                    s.name,
                    s.start as f64 / 1e3,
                    (s.end - s.start) as f64 / 1e3
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Total self time per span name, in seconds: each span's duration
/// minus the union of its children's intervals clipped to it, so
/// overlapping children are not subtracted twice.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let own = (s.end - s.start).saturating_sub(covered(s.start, s.end, kids));
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Length of the part of `[start, end)` that the union of `intervals`
/// covers. Sorts `intervals` in place.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("rep", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("sim.run", 20, 50, Some(1)),
            span("cell", 70, 90, Some(0)),
        ];
        let t = self_seconds(&spans);
        assert_eq!(t["rep"], 30e-9, "100 minus two cells of 50 and 20");
        assert_eq!(t["cell"], 20e-9 + 20e-9, "50 - 30, plus a childless 20");
        assert_eq!(t["sim.run"], 30e-9);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = [
            span("sweep.cold", 0, 100, None),
            span("worker", 10, 50, Some(0)),
            span("worker", 30, 70, Some(0)),
            // Runs past its parent: only the part inside counts.
            span("worker", 90, 120, Some(0)),
        ];
        let t = self_seconds(&spans);
        assert_eq!(t["sweep.cold"], 30e-9, "covered: [10, 70) and [90, 100)");
    }

    #[test]
    fn recorder_nests_spans_and_writes_chrome_json() {
        let mut tr = Tracer::new();
        tr.open("rep", None);
        let x = tr.span("sim.run", Some(3), || 7);
        tr.close();
        assert_eq!(x, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some(3));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let json = tr.to_chrome_json();
        assert!(json.contains("\"name\":\"sim.run\""), "{json}");
        assert!(json.contains("\"parent\":0,\"cell\":3"), "{json}");

        let mut off = Tracer::off();
        off.span("sim.run", None, || ());
        assert!(off.spans().is_empty());
    }
}
