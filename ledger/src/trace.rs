//! The benchmark's own span recorder. Spans are opened around the public
//! calls the benchmark makes into each layer — nothing inside the program
//! is instrumented, and `hcg_obs` tracing stays off. Per-layer totals
//! (time, allocations) accumulate for every op; span events are kept for
//! the first few ops and exported as Chrome trace-event JSON through
//! [`hcg_obs::chrome_trace_json`].

use crate::alloc;
use hcg_obs::SpanEvent;
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything recorded for one layer across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Self time, microseconds.
    pub us: f64,
    /// Allocations made inside the layer.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub bytes: u64,
}

/// Per-run span recorder.
pub struct Tracer {
    epoch: Instant,
    layers: BTreeMap<&'static str, LayerTotals>,
    /// Traced ops completed.
    pub ops: u64,
    /// Summed duration of traced ops, microseconds.
    pub op_us: f64,
    events: Vec<SpanEvent>,
    keep_event_ops: u64,
    open_op: Option<u64>,
    next_id: u64,
}

impl Tracer {
    /// A recorder keeping span events for the first `keep_event_ops` ops.
    pub fn new(keep_event_ops: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            layers: BTreeMap::new(),
            ops: 0,
            op_us: 0.0,
            events: Vec::new(),
            keep_event_ops,
            open_op: None,
            next_id: 1,
        }
    }

    fn keeping(&self) -> bool {
        self.ops < self.keep_event_ops
    }

    fn event(&mut self, name: &str, start: Instant, dur_us: f64, parent: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.keeping() {
            self.events.push(SpanEvent {
                id,
                name: name.to_owned(),
                cat: "ledger",
                tid: 0,
                depth: u32::from(parent != 0),
                start_us: start.duration_since(self.epoch).as_micros() as u64,
                dur_us: dur_us as u64,
                trace_id: self.ops + 1,
                parent,
            });
        }
        id
    }

    /// Run one op under an `op` span; returns its result and duration in
    /// microseconds.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.next_id;
        self.next_id += 1;
        self.open_op = Some(id);
        let start = Instant::now();
        let out = f(self);
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        self.open_op = None;
        if self.keeping() {
            self.events.push(SpanEvent {
                id,
                name: "op".to_owned(),
                cat: "ledger",
                tid: 0,
                depth: 0,
                start_us: start.duration_since(self.epoch).as_micros() as u64,
                dur_us: us as u64,
                trace_id: self.ops + 1,
                parent: 0,
            });
        }
        self.ops += 1;
        self.op_us += us;
        (out, us)
    }

    /// Time one call into `layer`, counting its allocations.
    pub fn layer<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let a0 = alloc::snapshot();
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        let a1 = alloc::snapshot();
        let parent = self.open_op.unwrap_or(0);
        self.event(layer, start, us, parent);
        self.add(layer, us, (a1.0 - a0.0, a1.1 - a0.1));
        out
    }

    /// Record a span the program timed itself (a `StageReport` record):
    /// `us` microseconds of `layer` starting at `start`, allocations added
    /// separately with [`Tracer::add`].
    pub fn stage(&mut self, layer: &'static str, start: Instant, us: f64) {
        let parent = self.open_op.unwrap_or(0);
        self.event(layer, start, us, parent);
        self.add(layer, us, (0, 0));
    }

    /// Add time and allocations to a layer's totals.
    pub fn add(&mut self, layer: &'static str, us: f64, allocs: (u64, u64)) {
        let t = self.layers.entry(layer).or_default();
        t.us += us;
        t.allocs += allocs.0;
        t.bytes += allocs.1;
    }

    /// Totals of `layer` (zero when the workload never entered it).
    pub fn totals(&self, layer: &str) -> LayerTotals {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Self time of every recorded layer, summed.
    pub fn layer_us(&self) -> f64 {
        self.layers.values().map(|t| t.us).sum()
    }

    /// Per-layer allocation counts, for determinism checks.
    #[cfg(test)]
    pub fn alloc_counts(&self) -> BTreeMap<&'static str, (u64, u64)> {
        self.layers
            .iter()
            .map(|(k, t)| (*k, (t.allocs, t.bytes)))
            .collect()
    }

    /// The kept span events as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        hcg_obs::chrome_trace_json(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_nest_under_ops_and_account_for_op_time() {
        let mut t = Tracer::new(1);
        let ((), op_us) = t.op(|t| {
            t.layer("a", || std::hint::black_box(vec![1u8; 64]));
            t.stage("b", Instant::now(), 5.0);
        });
        t.op(|t| t.layer("a", || ()));
        assert_eq!(t.ops, 2);
        assert!(t.op_us >= op_us);
        assert!(t.totals("a").us <= t.op_us);
        assert_eq!(t.totals("b").us, 5.0);
        assert_eq!(t.totals("missing"), LayerTotals::default());
        let trace = t.chrome_trace();
        hcg_obs::json::validate(&trace).unwrap();
        // Only the first op's three spans are kept.
        assert_eq!(trace.matches("\"ph\": \"X\"").count(), 3);
    }
}
