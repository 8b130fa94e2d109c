//! The benchmark's own span recorder. Spans wrap the calls the
//! benchmark makes into each layer — child-process phases, HTTP
//! requests, store appends, probe calls — from outside the program;
//! nothing here reaches into the product crates. Spans stay in memory
//! and are written out once, at exit.

use crate::json::{f, obj, s, u};
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = u32;

/// One closed interval of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `child/matrix-cold` or `http/heatmap.csv`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or append) number shared by the spans of one operation.
    pub request: Option<u64>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// A span recorder. A disabled recorder (the untraced `run`) drops
/// everything at the cost of one branch, so the measured paths are the
/// same code with tracing on and off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread sharing this one's epoch, to be
    /// [`absorb`](Tracer::absorb)ed after the thread is joined.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span from its two instants.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() as SpanId - 1)
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, None, now, now)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Merge a forked recorder's spans. Its root spans (and only those)
    /// are re-parented under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + base).or(parent);
            sp
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: count, total duration, and self time (duration
    /// minus the part of each span's interval its children cover).
    pub fn summary(&self) -> BTreeMap<String, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                children[p as usize].push((sp.start_ns, sp.end_ns));
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (sp, kids) in self.spans.iter().zip(&mut children) {
            let total = sp.end_ns.saturating_sub(sp.start_ns);
            let covered = covered_ns(kids, sp.start_ns, sp.end_ns);
            let t = out.entry(sp.name.clone()).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered;
        }
        out
    }

    /// The `trace.json` document: every span plus the per-name summary.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, sp)| {
                obj([
                    ("id", u(id as u64)),
                    ("parent", sp.parent.map_or(Value::Null, |p| u(u64::from(p)))),
                    ("name", s(sp.name.clone())),
                    ("request", sp.request.map_or(Value::Null, u)),
                    ("start_us", f(sp.start_ns as f64 / 1e3)),
                    ("end_us", f(sp.end_ns as f64 / 1e3)),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, t)| {
                obj([
                    ("name", s(name)),
                    ("count", u(t.count)),
                    ("total_ms", f(t.total_ns as f64 / 1e6)),
                    ("self_ms", f(t.self_ns as f64 / 1e6)),
                ])
            })
            .collect();
        obj([
            ("workload", s(workload)),
            ("summary", Value::Arr(summary)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// Count, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let at = |ms: u64| t.epoch + Duration::from_millis(ms);
        let (a0, a100, a10, a40, a30, a60, a90, a120) = (
            at(0),
            at(100),
            at(10),
            at(40),
            at(30),
            at(60),
            at(90),
            at(120),
        );
        let root = t.record("root", None, None, a0, a100);
        // Overlapping children cover 10..60; the last one overhangs the
        // parent and is clipped to 90..100.
        t.record("kid", root, Some(1), a10, a40);
        t.record("kid", root, Some(2), a30, a60);
        t.record("kid", root, Some(3), a90, a120);
        let sum = t.summary();
        assert_eq!(sum["root"].total_ns, 100_000_000);
        assert_eq!(sum["root"].self_ns, 40_000_000);
        assert_eq!(sum["kid"].count, 3);
        assert_eq!(sum["kid"].self_ns, sum["kid"].total_ns, "leaves own it all");
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let outer = t.begin("outer", None);
        assert_eq!(outer, None);
        let inner = t.begin("inner", outer);
        t.end(inner);
        t.end(outer);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_forks_are_reparented() {
        let mut main = Tracer::new(true);
        let phase = main.begin("phase", None);
        let mut fork = main.fork();
        let req = fork.begin("request", None);
        let leaf = fork.begin("leaf", req);
        fork.end(leaf);
        fork.end(req);
        main.absorb(fork, phase);
        main.end(phase);
        let spans = main.spans();
        assert_eq!(spans[1].parent, phase, "fork roots hang off the phase");
        assert_eq!(spans[2].parent, Some(1), "inner links are shifted");
        let doc = main.to_json("w");
        assert_eq!(
            crate::json::as_arr(doc.get("spans").unwrap())
                .unwrap()
                .len(),
            3
        );
    }
}
