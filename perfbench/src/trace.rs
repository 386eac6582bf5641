//! In-memory span recorder for the traced run.
//!
//! A span is one call into a library layer, recorded from the
//! benchmark's side of the call: layer name, start and end (ns since
//! the tracer was created), the enclosing span, and the verdict it
//! belongs to. Counters sit beside the spans, bumped at the same
//! boundaries. Spans stay in memory; the run folds them into per-layer
//! totals when it ends.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub verdict: u64,
}

/// Per-layer totals folded from the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans recorded for the layer.
    pub count: u64,
    /// Summed span durations, ns.
    pub inclusive_ns: u64,
    /// Summed durations minus the time covered by direct children, ns.
    pub self_ns: u64,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

/// The recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    verdict: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            verdict: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with verdict `id`.
    pub fn set_verdict(&mut self, id: u64) {
        self.verdict = id;
    }

    /// Opens a span of `layer` under the innermost open span.
    pub fn enter(&mut self, layer: &'static str) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            verdict: self.verdict,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let end = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&open.0));
        self.stack.pop();
        self.spans[open.0].end_ns = end;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let open = self.enter(layer);
        let out = f(self);
        self.exit(open);
        out
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    /// Counter `name` (`0.0` when never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Inclusive and self time per layer.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.layer).or_default();
            t.count += 1;
            t.inclusive_ns += dur;
            t.self_ns += dur.saturating_sub(*child);
        }
        out
    }

    /// Distinct verdict ids among the `bist.verdict` spans.
    pub fn verdicts_traced(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.layer == "bist.verdict")
            .map(|s| s.verdict)
            .collect::<BTreeSet<_>>()
            .len()
    }
}
