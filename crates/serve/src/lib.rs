//! # hcg-serve — compile-as-a-service
//!
//! A long-running daemon that turns the HCG pipeline into a service: it
//! accepts Simulink-like model XML plus compile options over a hand-rolled
//! HTTP/1.1 front end (plain [`std::net::TcpListener`], no dependencies),
//! keys every artifact by a content hash of `(options, model bytes)`, and
//! answers repeat requests from a sharded LRU cache instead of
//! recompiling.
//!
//! The service composes the rest of the workspace rather than
//! reimplementing it:
//!
//! - compiles run through [`hcg_core::CompileSession`], so every option
//!   combination over one model shares a single parsed/validated front
//!   end (the session cache is itself LRU-capped);
//! - connections fan out over the [`hcg_exec`] pool, one worker loop per
//!   thread;
//! - cache and request counters are per-daemon atomics
//!   ([`ServeHandle::counters`]) and compile spans go to the [`hcg_obs`]
//!   tracer; `GET /metrics` builds its snapshot from the counters, the
//!   live cache sizes and the daemon's histograms at scrape time.
//!
//! Concurrent identical requests are deduplicated in flight
//! (single-flight): the first arrival compiles, the rest block and reuse
//! its outcome. Failures are cached too (negative caching), so a
//! repeatedly-submitted invalid model costs one front-end validation.
//!
//! ## Endpoints
//!
//! | Route | Behavior |
//! |---|---|
//! | `POST /compile?generator=&arch=&beam=` | body = model XML; 200 + C source, or 422 + error text; `X-Cache: hit`/`miss`/`join`, `X-Content-Key` prefix |
//! | `GET /metrics` | counters, gauges and latency histograms as JSON; `?format=prometheus` for scrape text |
//! | `GET /health` | liveness probe |
//! | `GET /debug/requests` | flight recorder: the last N completed requests with stage timings |
//! | `POST /shutdown` | graceful stop |
//!
//! Every response carries an `X-Trace-Id` header (16 hex digits),
//! server-assigned on accept or adopted from an inbound `X-Trace-Id`;
//! with tracing enabled, all of a request's spans — accept thread, queue
//! handoff, worker — stitch into one tree under that id. A
//! `--access-log PATH` (or [`ServeConfig::access_log`]) appends one JSON
//! line per completed request.
//!
//! ## Example
//!
//! ```
//! use hcg_serve::{client, spawn, ServeConfig};
//!
//! let handle = spawn(ServeConfig::default()).unwrap();
//! let xml = hcg_model::parser::model_to_xml(&hcg_model::library::fig2_model());
//! let first = client::compile(handle.addr(), "arch=neon128", xml.as_bytes()).unwrap();
//! let second = client::compile(handle.addr(), "arch=neon128", xml.as_bytes()).unwrap();
//! assert_eq!(first.status, 200);
//! assert_eq!(second.header("x-cache"), Some("hit"));
//! assert_eq!(first.body, second.body);
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod key;
mod lru;
pub mod server;
pub mod telemetry;

pub use cache::{
    AdmitReport, ArtifactProvider, ArtifactStore, DiskStore, MemoryStore, Outcome, ShardedCache,
};
pub use key::{BadOptions, CompileOptions, ContentKey};
pub use server::{spawn, ServeConfig, ServeCounters, ServeHandle};
pub use telemetry::{
    format_trace_id, parse_trace_id, FlightRecorder, RequestRecord, ServeHists, TraceIdGen,
};
