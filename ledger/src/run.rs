//! What every workload shares: the timed window, its op timings, the
//! end-to-end metrics computed from them, and the per-layer metrics
//! computed from a traced run.

use crate::cold::{paper_models, ARCHES};
use crate::compile::Work;
use crate::oracle::{self, Verdicts};
use crate::stats;
use crate::trace::Tracer;
use hcg_core::{CodeGenerator, HcgGen};
use hcg_isa::Arch;
use hcg_model::Model;
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops whose C text forms the printed digest. Every run, traced or not,
/// completes at least this many, so the digest does not depend on speed.
pub const DIGEST_OPS: u64 = 240;

/// The percentile reported as the latency tail.
pub const TAIL: f64 = 0.99;

/// Ops an end-to-end run completes at least: ten beyond p99.
pub const TAIL_OPS: u64 = 1000;

/// Span events are kept for this many traced ops.
pub const TRACE_EVENT_OPS: u64 = 200;

/// Layers whose spans a traced run may record: the compile layers in
/// pipeline order, then the incremental and serve entry points.
pub const ALL_LAYERS: [&str; 15] = [
    "model.parser",
    "model.frontend",
    "core.dispatch",
    "kernels.autotune",
    "core.regions",
    "core.mapping",
    "core.compose",
    "core.emit",
    "core.incremental.apply",
    "core.incremental.generate",
    "serve.http.read",
    "serve.key",
    "serve.cache.fetch",
    "serve.cache.admit",
    "serve.http.write",
];

/// A timed window of `seconds` that also insists on `min_ops` ops (the
/// p99 rule needs 1,000), capped at three times its length or a minute,
/// whichever is longer.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    seconds: f64,
    min_ops: u64,
}

impl Window {
    pub fn open(seconds: f64, min_ops: u64) -> Window {
        Window {
            start: Instant::now(),
            seconds,
            min_ops,
        }
    }

    /// Whether a loop that has completed `ops` ops should stop.
    pub fn done(&self, ops: u64) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        (elapsed >= self.seconds && ops >= self.min_ops)
            || elapsed >= (3.0 * self.seconds).max(60.0)
    }

    /// Seconds from the window start to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.start).as_secs_f64()
    }
}

/// The timed ops of a window, as measured by the caller: their latencies
/// in a fixed-size histogram, so the benchmark's own bookkeeping takes the
/// same memory however many ops complete, and when the last one finished.
#[derive(Debug, Clone)]
pub struct Timings {
    latency_ns: stats::Histogram,
    last_s: f64,
}

impl Timings {
    pub fn new() -> Timings {
        Timings {
            latency_ns: stats::Histogram::new(),
            last_s: 0.0,
        }
    }

    pub fn record(&mut self, window: &Window, started: Instant, finished: Instant) {
        let ns = finished.duration_since(started).as_nanos();
        self.latency_ns
            .record(u64::try_from(ns).unwrap_or(u64::MAX));
        self.last_s = self.last_s.max(window.at(finished));
    }

    pub fn merge(&mut self, other: &Timings) {
        self.latency_ns.merge(&other.latency_ns);
        self.last_s = self.last_s.max(other.last_s);
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub verdicts: Verdicts,
    /// `(op index, C digest)` of the first [`DIGEST_OPS`] ops.
    pub digests: Vec<(u64, u64)>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// The end-to-end metrics of a window just closed, over every op it
    /// timed: the peak resident set so far, ops completed per second from
    /// the window's start to its last completion, and the p50 and p99 op
    /// latency.
    pub fn set_end_to_end(&mut self, t: &Timings) {
        self.set("peak_rss_mb", peak_rss_mb());
        let ops = t.latency_ns.count();
        if !stats::tail_supported(ops as usize, TAIL) {
            self.verdicts
                .fail(format!("{ops} ops leave fewer than ten beyond p99"));
        }
        self.set("ops_per_s", ops as f64 / t.last_s.max(1e-9));
        self.set("latency_p50_us", t.latency_ns.quantile(0.5) / 1e3);
        self.set("latency_p99_us", t.latency_ns.quantile(TAIL) / 1e3);
    }

    /// Per-layer time, share and allocations from a traced run, plus the
    /// compile work counts and the tracing overhead against the plain twin
    /// of every traced op (`plain_us`, summed).
    pub fn set_layers(&mut self, t: &Tracer, work: &Work, plain_us: f64) {
        let ops = t.ops.max(1) as f64;
        let op_us = t.op_us.max(1e-9);
        for layer in ALL_LAYERS {
            let lt = t.totals(layer);
            self.set(format!("{layer}.us_per_op"), lt.us / ops);
            self.set(format!("{layer}.share"), lt.us / op_us);
            self.set(format!("{layer}.allocs_per_op"), lt.allocs as f64 / ops);
            self.set(format!("{layer}.alloc_bytes_per_op"), lt.bytes as f64 / ops);
        }
        self.set("op.us_per_op", t.op_us / ops);
        self.set("untraced.us_per_op", (t.op_us - t.layer_us()) / ops);
        self.set("untraced.share", 1.0 - t.layer_us() / op_us);
        self.set("core.dispatch.actors_per_op", work.actors as f64 / ops);
        self.set("core.regions.regions_per_op", work.regions as f64 / ops);
        self.set(
            "core.mapping.instrs_selected_per_op",
            work.instrs_selected as f64 / ops,
        );
        self.set(
            "core.mapping.nodes_fused_per_op",
            work.nodes_fused as f64 / ops,
        );
        self.set(
            "kernels.autotune.precalcs_per_op",
            work.precalcs as f64 / ops,
        );
        let selections = work.precalcs + work.history_hits;
        self.set(
            "kernels.autotune.history_hit_ratio",
            if selections == 0 {
                0.0
            } else {
                work.history_hits as f64 / selections as f64
            },
        );
        self.set("core.emit.c_bytes_per_op", work.c_bytes as f64 / ops);
        self.set(
            "trace_overhead_pct",
            100.0 * (t.op_us / plain_us.max(1e-9) - 1.0),
        );
    }
}

/// Run the traced and the plain form of one op, alternating which goes
/// first so neither always finds the warmer caches. Returns both results
/// and the plain form's duration in microseconds.
pub fn twin<A, B>(i: u64, traced: impl FnOnce() -> A, plain: impl FnOnce() -> B) -> (A, B, f64) {
    let mut traced = Some(traced);
    let first = if i.is_multiple_of(2) {
        traced.take().map(|f| f())
    } else {
        None
    };
    let started = Instant::now();
    let b = plain();
    let us = started.elapsed().as_nanos() as f64 / 1e3;
    let a = first
        .or_else(|| traced.take().map(|f| f()))
        .expect("the traced form runs exactly once");
    (a, b, us)
}

/// The generated-code metrics of a traced run: geomean HCG cycles, the
/// geomean speedup over the Coder baseline and the data footprint over the
/// workload's `sample`, plus the twelve paper rows `cycles.<model>.<arch>`.
pub fn set_code_quality(out: &mut Outcome, sample: &[(Model, Arch)]) {
    match oracle::code_quality(sample) {
        Ok(q) => {
            out.set("hcg_cycles_geomean", q.hcg_cycles_geomean);
            out.set("speedup_vs_coder_geomean", q.speedup_vs_coder_geomean);
            out.set("hcg_data_bytes", q.hcg_data_bytes as f64);
        }
        Err(e) => out.verdicts.fail(e),
    }
    for (name, model) in paper_models() {
        for arch in ARCHES {
            match HcgGen::new().generate(&model, arch) {
                Ok(p) => out.set(
                    format!("cycles.{name}.{}", arch.name()),
                    oracle::cycles(&p) as f64,
                ),
                Err(e) => out.verdicts.fail(format!("{name} on {arch}: {e}")),
            }
        }
    }
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
