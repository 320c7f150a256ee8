//! # hcg-obs — the observability layer
//!
//! Dependency-free tracing and metrics shared by every crate in the
//! workspace:
//!
//! * [`span`]/[`span_with`] — RAII span guards recording into thread-local
//!   buffers with deterministic ids; buffers flush losslessly into a global
//!   sink whenever a thread's outermost span closes (so the `hcg-exec`
//!   pool's workers publish before the pool joins them), and
//!   [`take_events`] drains everything in a stable order.
//! * [`MetricsSnapshot`] — the one export schema for counters, gauges and
//!   [`Histogram`] snapshots, with stable sorted-key JSON and Prometheus
//!   text ([`render_prometheus`]). It is built only where telemetry leaves
//!   the process (`GET /metrics`, the fuzz report); counts themselves live
//!   in the typed values the work returns (`StageReport`,
//!   `IncrementalStats`, `VerifyOutcome`, the daemon's `ServeCounters`).
//! * [`chrome_trace_json`] — Chrome trace-event JSON loadable by
//!   `chrome://tracing` and Perfetto; [`render_tree`] is the compact text
//!   alternative.
//! * [`json`] — the one JSON writer every report, trace and telemetry
//!   document goes through ([`json::object`]), and [`json::validate`], a
//!   tiny well-formedness checker, so neither needs a JSON crate.
//!
//! Instrumentation is opt-in: spans cost one relaxed atomic load while
//! tracing is disabled ([`set_tracing`]), and no instrumented code path ever
//! changes what a generator emits — programs are byte-identical with
//! tracing on or off (proven by test in the bench crate).
//!
//! # Examples
//!
//! ```
//! hcg_obs::set_tracing(true);
//! {
//!     let _outer = hcg_obs::span("demo", "outer");
//!     let _inner = hcg_obs::span("demo", "inner");
//! }
//! hcg_obs::set_tracing(false);
//! let events = hcg_obs::take_events();
//! assert_eq!(events.len(), 2);
//! let trace = hcg_obs::chrome_trace_json(&events);
//! assert!(hcg_obs::json::validate(&trace).is_ok());
//! ```

#![warn(missing_docs)]

pub mod hist;
pub mod json;
mod metrics;
pub mod prometheus;
mod span;
mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{MetricValue, MetricsSnapshot};
pub use prometheus::render_prometheus;
pub use span::{
    clear_events, current_trace_context, flush_thread, set_tracing, span, span_with, take_events,
    trace_scope, tracing_enabled, SpanEvent, SpanGuard, TraceContext, TraceScope,
};
pub use trace::{chrome_trace_json, render_tree};
