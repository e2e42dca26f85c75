//! In-memory span recorder for the traced pass.
//!
//! Spans wrap the benchmark's calls into the program's public functions;
//! the process-wide public counters (SHA-256 engine, Merkle proof cache)
//! are read at the same boundaries. Nothing here runs in the untraced
//! pass: a disabled [`Tracer`] returns from every call immediately.

use crate::json;
use pba_crypto::{merkle, sha256};
use std::time::Instant;

/// Process-wide public counters, read at span boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub lane_digests: u64,
    pub scalar_digests: u64,
    pub proof_hits: u64,
    pub proof_misses: u64,
}

impl Counters {
    pub fn read() -> Self {
        let engine = sha256::engine_stats();
        let (proof_hits, proof_misses) = merkle::proof_cache_stats();
        Counters {
            lane_digests: engine.lane_digests,
            scalar_digests: engine.scalar_digests,
            proof_hits,
            proof_misses,
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            lane_digests: self.lane_digests - earlier.lane_digests,
            scalar_digests: self.scalar_digests - earlier.scalar_digests,
            proof_hits: self.proof_hits - earlier.proof_hits,
            proof_misses: self.proof_misses - earlier.proof_misses,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.lane_digests += other.lane_digests;
        self.scalar_digests += other.scalar_digests;
        self.proof_hits += other.proof_hits;
        self.proof_misses += other.proof_misses;
    }
}

/// One recorded span. `counters` holds the snapshot at the start until the
/// span ends, then the delta over the span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: usize,
    pub counters: Counters,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Time spent inside `begin`/`end` themselves (clock and counter
    /// reads): the tracing overhead, measured directly.
    bookkeeping_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            bookkeeping_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, rep: usize) -> SpanId {
        if !self.enabled {
            return None;
        }
        let entered = self.now_ns();
        let counters = Counters::read();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep,
            counters,
        });
        self.bookkeeping_ns += start_ns - entered;
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let now = Counters::read();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counters = now.since(&span.counters);
        self.bookkeeping_ns += self.now_ns() - end_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        rep: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, rep);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn bookkeeping_seconds(&self) -> f64 {
        self.bookkeeping_ns as f64 / 1e9
    }

    /// Durations in seconds of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Renders every span as
    /// `{name, start_ns, end_ns, self_ns, parent, workload, rep, counters}`.
    pub fn to_json(&self, workload: &str) -> String {
        let spans: Vec<String> = (0..self.spans.len())
            .map(|id| {
                let s = &self.spans[id];
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    concat!(
                        "{{\"id\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},",
                        "\"parent\":{},\"workload\":{},\"rep\":{},\"sha256_lane_digests\":{},",
                        "\"sha256_scalar_digests\":{},\"merkle_proof_hits\":{},",
                        "\"merkle_proof_misses\":{}}}"
                    ),
                    id,
                    json::string(s.name),
                    s.start_ns,
                    s.end_ns,
                    self_ns(&self.spans, id),
                    parent,
                    json::string(workload),
                    s.rep,
                    s.counters.lane_digests,
                    s.counters.scalar_digests,
                    s.counters.proof_hits,
                    s.counters.proof_misses,
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", spans.join(",\n"))
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, and
/// overlapping children counted once).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = parent.start_ns;
    for (start, end) in children {
        let start = start.max(frontier);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
            counters: Counters::default(),
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = vec![
            span("decision", 100, 1100, None),
            span("fanin", 100, 300, Some(0)),
            span("ba", 300, 600, Some(0)),
            span("certify", 650, 1000, Some(0)),
        ];
        // 1000 total − (200 + 300 + 350) covered.
        assert_eq!(self_ns(&spans, 0), 150);
        assert_eq!(self_ns(&spans, 2), 300, "a leaf span is all self time");
    }

    #[test]
    fn self_time_counts_only_direct_children_and_overlap_once() {
        let spans = vec![
            span("rep", 0, 1000, None),
            span("decision", 100, 900, Some(0)),
            // A grandchild: already inside `decision`, must not be
            // subtracted from `rep` again.
            span("certify", 200, 800, Some(1)),
            // Overlaps `decision` and sticks out past the parent's end.
            span("late", 850, 1200, Some(0)),
        ];
        // Children cover [100, 900) ∪ [850, 1000) = 900 ns of 1000.
        assert_eq!(self_ns(&spans, 0), 100);
        assert_eq!(self_ns(&spans, 1), 200);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("x", None, 0);
        assert_eq!(id, None);
        tracer.end(id);
        assert_eq!(tracer.scope("y", None, 0, || 7), 7);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.bookkeeping_seconds(), 0.0);
    }

    #[test]
    fn enabled_tracer_nests_and_renders() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("rep", None, 3);
        tracer.scope("establish", root, 3, || std::hint::black_box(1 + 1));
        tracer.end(root);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
        let doc = json::parse(&tracer.to_json("w")).expect("trace parses");
        let spans = doc.get("spans").and_then(json::Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("name").and_then(json::Value::as_str),
            Some("establish")
        );
        assert_eq!(spans[1].get("rep").and_then(json::Value::as_f64), Some(3.0));
    }
}
