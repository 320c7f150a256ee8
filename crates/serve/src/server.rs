//! The compile daemon: accept loop, worker fan-out, request routing, the
//! single-flight compile path and service counters.
//!
//! One thread accepts connections and feeds them through a channel to N
//! worker jobs running on the existing [`hcg_exec`] pool, one job per
//! worker thread (the same engine the evaluation fleet uses). Each worker loops:
//! receive a connection, read one request, route it, write one response,
//! close. Compiles are deduplicated twice — finished artifacts through the
//! sharded content-addressed cache, concurrent identical requests through
//! an in-flight single-flight table so C simultaneous clients asking for
//! the same `(model, options)` cost exactly one compile.

use crate::cache::{ArtifactProvider, DiskStore, MemoryStore, Outcome, ShardedCache};
use crate::http::{self, HttpError, Request, Response};
use crate::key::{CompileOptions, ContentKey};
use crate::lru::Lru;
use crate::telemetry::{
    format_trace_id, parse_trace_id, AccessLog, FlightRecorder, RequestRecord, ServeHists,
    TraceIdGen,
};
use hcg_core::emit::to_c_source;
use hcg_core::CompileSession;
use hcg_obs::TraceContext;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker jobs on the exec pool (0 = all cores).
    pub workers: usize,
    /// Artifact-cache shard count.
    pub shards: usize,
    /// Per-shard payload byte budget.
    pub shard_budget: usize,
    /// Front-end (session) cache capacity, in models.
    pub session_capacity: usize,
    /// When set, artifacts persist under this directory and the cache
    /// starts warm after a restart; `None` keeps everything in memory.
    pub disk_root: Option<PathBuf>,
    /// Record server-side latency/size histograms (on by default; the
    /// `obs-bench` harness turns it off to measure the overhead).
    pub record_histograms: bool,
    /// When set, append one JSONL line per completed request here.
    pub access_log: Option<PathBuf>,
    /// Seed for trace-id generation (`None` = time/pid derived). Seeded
    /// daemons assign a reproducible id sequence.
    pub trace_seed: Option<u64>,
    /// Flight-recorder capacity: how many completed requests
    /// `GET /debug/requests` retains.
    pub flight_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            shards: 8,
            shard_budget: 8 << 20,
            session_capacity: 256,
            disk_root: None,
            record_histograms: true,
            access_log: None,
            trace_seed: None,
            flight_capacity: 64,
        }
    }
}

macro_rules! serve_counters {
    ($(#[doc = $doc:literal] $field:ident => $metric:literal,)+) => {
        /// Service counters. They live on the daemon instance (so tests
        /// with several daemons stay isolated) and leave the process only
        /// through [`snapshot`](Self::snapshot), under `serve.*` names.
        #[derive(Debug, Default)]
        pub struct ServeCounters {
            $(#[doc = $doc] pub $field: AtomicU64,)+
        }

        impl ServeCounters {
            $(fn $field(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            })+

            /// Point-in-time copy as the shared report-telemetry schema.
            pub fn snapshot(&self) -> hcg_obs::MetricsSnapshot {
                let mut s = hcg_obs::MetricsSnapshot::new();
                $(s.set_counter($metric, self.$field.load(Ordering::Relaxed));)+
                s
            }
        }
    };
}

serve_counters! {
    /// Compile requests received (valid options; before cache lookup).
    requests => "serve.requests",
    /// Artifact-cache hits (positive and negative combined).
    hits => "serve.cache.hits",
    /// Artifact-cache misses (a compile or a join followed).
    misses => "serve.cache.misses",
    /// Compiles actually executed (single-flight leaders).
    compiles => "serve.compiles",
    /// Requests that joined another request's in-flight compile.
    joins => "serve.inflight.joins",
    /// Artifacts admitted into the cache.
    admitted => "serve.cache.admitted",
    /// Artifacts evicted to make room.
    evicted => "serve.cache.evicted",
    /// Failed compiles admitted as negative cache entries.
    negative_admitted => "serve.cache.negative_admitted",
    /// Cache hits that replayed a cached failure.
    negative_hits => "serve.cache.negative_hits",
    /// Front-end session cache hits (model already parsed + validated).
    session_hits => "serve.session.hits",
    /// Front-end session cache misses (model parsed this request).
    session_misses => "serve.session.misses",
    /// Sessions evicted from the front-end cache.
    session_evicted => "serve.session.evicted",
    /// Requests rejected before compiling (bad HTTP, bad options, 404s).
    http_errors => "serve.http.errors",
    /// `GET /metrics` scrapes served (JSON and Prometheus formats).
    metrics_scrapes => "serve.metrics_scrapes",
}

/// Count-capped LRU of parsed front ends, keyed by model bytes only so
/// every option combination over one model shares a session. A lookup
/// makes its session the newest; an insert over the cap evicts the least
/// recently used.
#[derive(Debug)]
struct SessionCache {
    entries: Mutex<Lru<ContentKey, Arc<CompileSession>>>,
    capacity: usize,
}

impl SessionCache {
    fn new(capacity: usize) -> Self {
        SessionCache {
            entries: Mutex::default(),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, key: ContentKey) -> Option<Arc<CompileSession>> {
        let mut entries = self.entries.lock().expect("session cache poisoned");
        entries.get(&key).cloned()
    }

    /// Insert, returning how many sessions were evicted to stay in cap.
    fn insert(&self, key: ContentKey, session: Arc<CompileSession>) -> usize {
        let mut entries = self.entries.lock().expect("session cache poisoned");
        entries.insert(key, session);
        let mut evicted = 0;
        while entries.len() > self.capacity {
            entries.pop_oldest();
            evicted += 1;
        }
        evicted
    }

    fn len(&self) -> usize {
        self.entries.lock().expect("session cache poisoned").len()
    }
}

/// One in-flight compile: followers block on the condvar until the leader
/// publishes the outcome.
#[derive(Debug, Default)]
struct Inflight {
    done: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl Inflight {
    fn publish(&self, outcome: Outcome) {
        *self.done.lock().expect("inflight poisoned") = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> Outcome {
        let mut done = self.done.lock().expect("inflight poisoned");
        loop {
            if let Some(outcome) = done.clone() {
                return outcome;
            }
            done = self.cv.wait(done).expect("inflight poisoned");
        }
    }
}

/// The daemon's observability side: histograms, trace ids, access log,
/// flight recorder. Grouped so the request path can thread one reference.
struct Telemetry {
    hists: Option<ServeHists>,
    access_log: Option<AccessLog>,
    recorder: FlightRecorder,
    trace_ids: TraceIdGen,
}

/// Shared daemon state.
struct ServeState {
    cache: Box<dyn ArtifactProvider>,
    sessions: SessionCache,
    inflight: Mutex<HashMap<ContentKey, Arc<Inflight>>>,
    counters: Arc<ServeCounters>,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl ServeState {
    /// The daemon's caches, counters and telemetry for `config`, serving
    /// at `addr`.
    fn new(config: &ServeConfig, addr: SocketAddr) -> io::Result<Self> {
        let cache: Box<dyn ArtifactProvider> = match &config.disk_root {
            Some(root) => Box::new(ShardedCache::new(
                config.shards,
                config.shard_budget,
                DiskStore::new(root)?,
            )),
            None => Box::new(ShardedCache::new(
                config.shards,
                config.shard_budget,
                MemoryStore,
            )),
        };
        let telemetry = Telemetry {
            hists: config.record_histograms.then(ServeHists::new),
            access_log: match &config.access_log {
                Some(path) => Some(AccessLog::open(path)?),
                None => None,
            },
            recorder: FlightRecorder::new(config.flight_capacity),
            trace_ids: TraceIdGen::new(config.trace_seed),
        };
        Ok(ServeState {
            cache,
            sessions: SessionCache::new(config.session_capacity),
            inflight: Mutex::default(),
            counters: Arc::new(ServeCounters::default()),
            telemetry,
            shutdown: AtomicBool::new(false),
            addr,
        })
    }
}

/// One accepted connection in flight from the accept thread to a worker:
/// the stream plus the trace identity minted on accept, so the worker's
/// spans stitch under the accept thread's span as one tree.
struct Conn {
    stream: TcpStream,
    trace_id: u64,
    /// Accept-span id (0 while tracing is off) — the worker's parent.
    parent: u64,
    accepted: Instant,
}

/// Handle to a running daemon: its address, counters and lifecycle.
pub struct ServeHandle {
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The daemon's bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The daemon's counters (live; readable while serving).
    pub fn counters(&self) -> Arc<ServeCounters> {
        Arc::clone(&self.state.counters)
    }

    /// Live artifacts in the cache.
    pub fn cache_entries(&self) -> usize {
        self.state.cache.entries()
    }

    /// Payload bytes held by the cache.
    pub fn cache_bytes(&self) -> usize {
        self.state.cache.bytes()
    }

    /// Parsed sessions held by the front-end cache.
    pub fn session_entries(&self) -> usize {
        self.state.sessions.len()
    }

    /// Stop accepting, drain the workers and join every thread.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.state.addr);
        self.join();
    }

    /// Block until the daemon stops on its own (`POST /shutdown`).
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || self.supervisor.is_some() {
            self.state.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.state.addr);
            self.join();
        }
    }
}

/// Bind, spawn the accept loop and the worker pool, and return the handle.
///
/// # Errors
///
/// Returns the I/O error when the address cannot be bound or the disk
/// cache root cannot be created.
pub fn spawn(config: ServeConfig) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let state = Arc::new(ServeState::new(&config, listener.local_addr()?)?);

    let (tx, rx) = mpsc::channel::<Conn>();
    let accept_state = Arc::clone(&state);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Mint the request's trace identity here, so the queue wait
            // and the worker's whole request handling hang under one
            // accept span (span ids are 0 while tracing is off — the
            // trace id itself is always assigned, for the response
            // header and access log).
            let trace_id = accept_state.telemetry.trace_ids.next_id();
            let _scope = hcg_obs::trace_scope(TraceContext {
                trace_id,
                parent: 0,
            });
            let span = hcg_obs::span("serve", "accept");
            let conn = Conn {
                stream,
                trace_id,
                parent: span.id().unwrap_or(0),
                accepted: Instant::now(),
            };
            if tx.send(conn).is_err() {
                break;
            }
        }
        // Publish any spans still buffered on this thread before it
        // joins, so short-lived daemons export complete traces.
        hcg_obs::flush_thread();
        // Dropping `tx` here wakes every worker blocked on the channel.
    });

    let workers = hcg_exec::effective_threads(config.workers).max(1);
    let worker_state = Arc::clone(&state);
    let supervisor = std::thread::spawn(move || {
        let rx = Arc::new(Mutex::new(rx));
        let jobs: Vec<_> = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&worker_state);
                move || {
                    loop {
                        // Hold the receiver lock only for the recv itself,
                        // so other workers pick up connections while this
                        // one compiles.
                        let next = rx.lock().expect("serve queue poisoned").recv();
                        match next {
                            Ok(conn) => handle_connection(&state, conn),
                            Err(_) => break,
                        }
                    }
                    // Lossless shutdown: publish this worker's buffered
                    // spans before the pool joins it.
                    hcg_obs::flush_thread();
                }
            })
            .collect();
        // Fan the worker loops out over the existing exec engine.
        hcg_exec::run_jobs(workers, jobs);
    });

    Ok(ServeHandle {
        state,
        accept: Some(accept),
        supervisor: Some(supervisor),
    })
}

/// Serve one connection: one request, one response, close. This is where
/// every per-request telemetry signal is emitted: queue/read/route stage
/// timings, the latency and size histograms, the `X-Trace-Id` response
/// header, the access-log line and the flight-recorder entry.
///
/// Telemetry is published *before* the response bytes go out: once a
/// client has read a response, the request is guaranteed to be visible
/// in `/metrics` and `/debug/requests`. (The latency histogram therefore
/// measures accept-to-response-ready, excluding the final write.)
fn handle_connection(state: &ServeState, conn: Conn) {
    let queue_us = conn.accepted.elapsed().as_micros() as u64;
    let mut reader = BufReader::new(match conn.stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = conn.stream;
    let read_start = Instant::now();
    let request = match http::read_request(&mut reader) {
        Ok(r) => r,
        Err(HttpError::Malformed(m)) => {
            state.counters.http_errors();
            let response =
                Response::text(400, m).with_header("X-Trace-Id", format_trace_id(conn.trace_id));
            let _ = http::write_response(&mut writer, &response);
            return;
        }
        // Shutdown wake-ups and dropped clients land here; nothing to say.
        Err(HttpError::Io(_)) => return,
    };
    let read_us = read_start.elapsed().as_micros() as u64;

    // Propagation: an inbound X-Trace-Id (16 hex digits) replaces the
    // accept-assigned id, so a caller's id follows the request through
    // this daemon's spans and logs.
    let trace_id = request
        .header("x-trace-id")
        .and_then(parse_trace_id)
        .unwrap_or(conn.trace_id);
    let _scope = hcg_obs::trace_scope(TraceContext {
        trace_id,
        parent: conn.parent,
    });
    let _req_span = hcg_obs::span("serve", "request");

    // Panic isolation: a route handler panic becomes a 500 (and a flight
    // recorder dump below), never a dead worker.
    let route_start = Instant::now();
    let response = match catch_unwind(AssertUnwindSafe(|| route(state, &request))) {
        Ok(response) => response,
        Err(payload) => {
            state.counters.http_errors();
            Response::text(
                500,
                format!(
                    "internal error: {}\n",
                    hcg_exec::panic_message(payload.as_ref())
                ),
            )
        }
    };
    let route_us = route_start.elapsed().as_micros() as u64;
    let response = response.with_header("X-Trace-Id", format_trace_id(trace_id));
    let latency_us = conn.accepted.elapsed().as_micros() as u64;

    if let Some(hists) = &state.telemetry.hists {
        hists.queue_wait_us.record(queue_us);
        hists.request_bytes.record(request.body.len() as u64);
        hists.response_bytes.record(response.body.len() as u64);
        hists.request_latency_us.record(latency_us);
    }
    let header = |name: &str| {
        response
            .headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| "-".to_owned())
    };
    let record = RequestRecord {
        trace_id,
        method: request.method.clone(),
        path: request.path.clone(),
        key_prefix: header("X-Content-Key"),
        cache: header("X-Cache"),
        status: response.status,
        latency_us,
        stages: vec![("queue", queue_us), ("read", read_us), ("route", route_us)],
    };
    if let Some(log) = &state.telemetry.access_log {
        log.log(&record);
    }
    state.telemetry.recorder.record(record);
    if response.status >= 500 {
        // The black box: dump the recent-request ring (ending with the
        // failing request) so the failure is diagnosable after the fact.
        eprintln!(
            "hcg-serve: 5xx on trace {} — flight recorder: {}",
            format_trace_id(trace_id),
            state.telemetry.recorder.to_json()
        );
    }

    let _ = http::write_response(&mut writer, &response);
}

fn route(state: &ServeState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/compile") => compile(state, request),
        ("GET", "/metrics") => metrics(state, request),
        ("GET", "/health") => Response::text(200, "ok\n"),
        ("GET", "/debug/requests") => Response::text(200, state.telemetry.recorder.to_json())
            .with_header("Cache-Control", "no-store"),
        // A deliberate failure point so the 500 path (panic isolation +
        // flight-recorder dump) stays testable end to end.
        ("POST", "/debug/panic") => panic!("deliberate panic requested via /debug/panic"),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.addr);
            Response::text(200, "shutting down\n")
        }
        ("POST" | "GET", _) => {
            state.counters.http_errors();
            Response::text(404, format!("no route for {}\n", request.path))
        }
        (method, _) => {
            state.counters.http_errors();
            Response::text(405, format!("method {method} not supported\n"))
        }
    }
}

/// `GET /metrics`: service counters, live cache gauges and the latency
/// histograms — JSON by default, Prometheus text with
/// `?format=prometheus`. Always `Cache-Control: no-store`: a scrape is a
/// point-in-time read that must never be served stale by an intermediary.
fn metrics(state: &ServeState, request: &Request) -> Response {
    state.counters.metrics_scrapes();
    let mut snapshot = state.counters.snapshot();
    // Sizes fall on eviction, so they are gauges, not counters.
    snapshot.set_gauge("serve.cache.entries", state.cache.entries() as f64);
    snapshot.set_gauge("serve.cache.bytes", state.cache.bytes() as f64);
    snapshot.set_gauge("serve.cache.shards", state.cache.shard_count() as f64);
    snapshot.set_gauge("serve.session.entries", state.sessions.len() as f64);
    if let Some(hists) = &state.telemetry.hists {
        for (name, hist) in hists.named() {
            snapshot.set_histogram(name, hist.snapshot());
        }
    }
    let body = match request.query_param("format") {
        Some("prometheus") => hcg_obs::render_prometheus(&snapshot),
        _ => snapshot.to_json(),
    };
    Response::text(200, body).with_header("Cache-Control", "no-store")
}

/// `POST /compile`: cache lookup → single-flight dedup → compile.
fn compile(state: &ServeState, request: &Request) -> Response {
    let options = match CompileOptions::from_query(|k| request.query_param(k).map(str::to_owned)) {
        Ok(o) => o,
        Err(bad) => {
            state.counters.http_errors();
            return Response::text(400, format!("{bad}\n"));
        }
    };
    let key = options.artifact_key(&request.body);
    let _span = hcg_obs::span_with("serve", || {
        format!("compile/{}/{}", options.canonical(), key.hex())
    });
    state.counters.requests();

    if let Some(outcome) = state.cache.fetch(key) {
        state.counters.hits();
        if outcome.is_failure() {
            state.counters.negative_hits();
        }
        return respond(&outcome, "hit", key);
    }
    state.counters.misses();

    // Single-flight: first arrival leads the compile, the rest join.
    let (flight, leader) = {
        let mut inflight = state.inflight.lock().expect("inflight map poisoned");
        match inflight.get(&key) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Inflight::default());
                inflight.insert(key, Arc::clone(&flight));
                (flight, true)
            }
        }
    };
    if !leader {
        state.counters.joins();
        let wait_start = Instant::now();
        let outcome = flight.wait();
        if let Some(hists) = &state.telemetry.hists {
            hists
                .flight_wait_us
                .record(wait_start.elapsed().as_micros() as u64);
        }
        return respond(&outcome, "join", key);
    }

    // Leadership recheck: between this request's cache miss and its
    // inflight registration, a previous leader may have admitted the very
    // artifact we are about to compile (its inflight entry is removed
    // only *after* admission, so by the time we could become leader the
    // cache is current). Serve that instead of recompiling.
    if let Some(outcome) = state.cache.fetch(key) {
        state.counters.hits();
        if outcome.is_failure() {
            state.counters.negative_hits();
        }
        flight.publish(outcome.clone());
        state
            .inflight
            .lock()
            .expect("inflight map poisoned")
            .remove(&key);
        return respond(&outcome, "hit", key);
    }

    let compile_start = Instant::now();
    let outcome = run_compile(state, &options, &request.body);
    if let Some(hists) = &state.telemetry.hists {
        hists
            .compile_latency_us
            .record(compile_start.elapsed().as_micros() as u64);
    }
    let report = state.cache.admit(key, outcome.clone());
    if report.admitted {
        state.counters.admitted();
        if outcome.is_failure() {
            state.counters.negative_admitted();
        }
    }
    for _ in 0..report.evicted {
        state.counters.evicted();
    }
    flight.publish(outcome.clone());
    state
        .inflight
        .lock()
        .expect("inflight map poisoned")
        .remove(&key);
    respond(&outcome, "miss", key)
}

/// Execute one compile through the shared front-end session cache.
fn run_compile(state: &ServeState, options: &CompileOptions, model_bytes: &[u8]) -> Outcome {
    state.counters.compiles();
    let session_key = CompileOptions::session_key(model_bytes);
    let session = match state.sessions.get(session_key) {
        Some(s) => {
            state.counters.session_hits();
            s
        }
        None => {
            state.counters.session_misses();
            let Ok(text) = std::str::from_utf8(model_bytes) else {
                return Outcome::Failure(Arc::new("model body is not valid UTF-8".to_owned()));
            };
            let model = match hcg_model::parser::model_from_xml(text) {
                Ok(m) => m,
                Err(e) => return Outcome::Failure(Arc::new(format!("model parse failed: {e}"))),
            };
            let session = Arc::new(CompileSession::new(model));
            for _ in 0..state.sessions.insert(session_key, Arc::clone(&session)) {
                state.counters.session_evicted();
            }
            session
        }
    };
    let generator = options.build_generator();
    match session.generate(generator.as_ref(), options.arch) {
        Ok(program) => {
            // The cache budget counts `len()` bytes; `to_c_source`
            // reserves more than it writes, so hold only what it wrote.
            let mut c = to_c_source(&program);
            c.shrink_to_fit();
            Outcome::Success(Arc::new(c))
        }
        Err(e) => Outcome::Failure(Arc::new(format!("compile failed: {e}"))),
    }
}

fn respond(outcome: &Outcome, cache_status: &str, key: ContentKey) -> Response {
    let status = if outcome.is_failure() { 422 } else { 200 };
    Response::text(status, outcome.text())
        .with_header("X-Cache", cache_status)
        // The first 16 hex digits are plenty to find the artifact (the
        // access log and flight recorder key requests by this prefix).
        .with_header("X-Content-Key", &key.hex()[..16])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use hcg_model::library::{fig2_model, fig4_model, highpass_model};
    use hcg_model::parser::model_to_xml;

    #[test]
    fn session_cache_evicts_the_least_recently_used_model() {
        let handle = spawn(ServeConfig {
            workers: 1,
            session_capacity: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let [a, b, c] = [fig2_model(), fig4_model(), highpass_model(64)].map(|m| model_to_xml(&m));
        // Each request names an arch its model has not been compiled for,
        // so it misses the artifact cache and reaches the session cache.
        let compile = |arch: &str, xml: &str| {
            let query = format!("arch={arch}");
            let response = client::compile(handle.addr(), &query, xml.as_bytes()).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
            assert_eq!(response.header("x-cache"), Some("miss"));
        };
        let counters = handle.counters();
        let sessions = || {
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            let c = &counters;
            (
                load(&c.session_hits),
                load(&c.session_misses),
                load(&c.session_evicted),
            )
        };
        compile("neon128", &a);
        compile("neon128", &b);
        compile("avx256", &a); // A becomes newer than B.
        compile("neon128", &c); // Over the cap: B, the oldest, goes.
        assert_eq!(sessions(), (1, 3, 1));
        compile("sse128", &a);
        assert_eq!(sessions(), (2, 3, 1), "A was kept");
        compile("avx256", &b);
        assert_eq!(sessions(), (2, 4, 2), "B was evicted");
        assert_eq!(handle.session_entries(), 2);
        handle.shutdown();
    }

    #[test]
    fn compiled_c_is_held_at_its_length() {
        let config = ServeConfig::default();
        let state = ServeState::new(&config, "127.0.0.1:0".parse().unwrap()).unwrap();
        let options = CompileOptions::from_query(|_| None).unwrap();
        let xml = model_to_xml(&fig2_model());
        let Outcome::Success(c) = run_compile(&state, &options, xml.as_bytes()) else {
            panic!("fig2 compiles");
        };
        assert!(!c.is_empty());
        assert_eq!(c.capacity(), c.len());
    }
}
