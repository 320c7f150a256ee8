//! Service telemetry: request trace ids, server-side latency histograms,
//! the structured JSONL access log and the flight recorder.
//!
//! Everything here is deliberately cheap on the hot path — histogram
//! recording is three relaxed atomics, the access log is one buffered
//! write behind a mutex, and the flight recorder is a bounded ring — so
//! the daemon can keep all of it on in production (`repro -- obs-bench`
//! measures each layer against the serve benchmark).

use hcg_obs::{json, Histogram};
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// SplitMix64: the finalizer-quality mixer used to derive trace ids from
/// a seed + counter (deterministic when the daemon is seeded).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Allocates one trace id per accepted connection. Seeded construction
/// gives a reproducible id sequence (tests, benchmarks); the unseeded
/// daemon derives its seed from wall clock and pid.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    next: AtomicU64,
}

impl TraceIdGen {
    /// A generator over `seed` (`None` = derive from time and pid).
    pub fn new(seed: Option<u64>) -> Self {
        let seed = seed.unwrap_or_else(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            nanos ^ (u64::from(std::process::id()) << 32)
        });
        TraceIdGen {
            seed,
            next: AtomicU64::new(0),
        }
    }

    /// The next trace id — never 0 (0 means "no trace" everywhere).
    pub fn next_id(&self) -> u64 {
        loop {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            let id = splitmix64(self.seed.wrapping_add(n));
            if id != 0 {
                return id;
            }
        }
    }
}

/// Render a trace id the way it travels in `X-Trace-Id`: 16 lowercase
/// hex digits.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse an inbound `X-Trace-Id` header value (16 hex digits, any case).
/// Returns `None` for anything else — a malformed id falls back to the
/// server-assigned one rather than erroring the request.
pub fn parse_trace_id(text: &str) -> Option<u64> {
    let text = text.trim();
    if text.len() != 16 || !text.chars().all(|c| c.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(text, 16).ok().filter(|&id| id != 0)
}

/// The daemon's server-side histograms, all in microseconds except the
/// byte sizes. Each daemon owns its instances (test isolation); they leave
/// the process only through `GET /metrics`, under `serve.*` names.
#[derive(Debug, Clone)]
pub struct ServeHists {
    /// Accept-to-response-written latency per request.
    pub request_latency_us: Arc<Histogram>,
    /// Time spent actually compiling (single-flight leaders only).
    pub compile_latency_us: Arc<Histogram>,
    /// Accept-to-worker-pickup wait in the connection queue.
    pub queue_wait_us: Arc<Histogram>,
    /// Time followers block on another request's in-flight compile.
    pub flight_wait_us: Arc<Histogram>,
    /// Request body sizes.
    pub request_bytes: Arc<Histogram>,
    /// Response body sizes.
    pub response_bytes: Arc<Histogram>,
}

impl ServeHists {
    /// Fresh, empty histograms.
    pub fn new() -> Self {
        ServeHists {
            request_latency_us: Arc::new(Histogram::new()),
            compile_latency_us: Arc::new(Histogram::new()),
            queue_wait_us: Arc::new(Histogram::new()),
            flight_wait_us: Arc::new(Histogram::new()),
            request_bytes: Arc::new(Histogram::new()),
            response_bytes: Arc::new(Histogram::new()),
        }
    }

    /// `(metric name, histogram)` pairs, in snapshot order.
    pub fn named(&self) -> [(&'static str, &Arc<Histogram>); 6] {
        [
            ("serve.request_latency_us", &self.request_latency_us),
            ("serve.compile_latency_us", &self.compile_latency_us),
            ("serve.queue_wait_us", &self.queue_wait_us),
            ("serve.flight_wait_us", &self.flight_wait_us),
            ("serve.request_bytes", &self.request_bytes),
            ("serve.response_bytes", &self.response_bytes),
        ]
    }
}

impl Default for ServeHists {
    fn default() -> Self {
        ServeHists::new()
    }
}

/// One completed request, as the access log and flight recorder see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// The request's trace id.
    pub trace_id: u64,
    /// HTTP method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// First 16 hex digits of the artifact key (`-` off the compile path).
    pub key_prefix: String,
    /// Cache outcome: `hit`/`miss`/`join`, or `-` off the compile path.
    pub cache: String,
    /// Response status code.
    pub status: u16,
    /// Accept-to-response latency, microseconds.
    pub latency_us: u64,
    /// Per-stage timings, microseconds: `(stage name, duration)` in
    /// request order (`queue`, `read`, `route`, `write`).
    pub stages: Vec<(&'static str, u64)>,
}

impl RequestRecord {
    /// One stable JSON object (also the access-log line format, minus
    /// the stage breakdown which only the flight recorder keeps).
    pub fn to_json(&self, with_stages: bool) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| self.write_fields(o, with_stages));
        out
    }

    fn write_fields(&self, o: &mut json::Object<'_>, with_stages: bool) {
        o.field("trace_id", format_trace_id(self.trace_id))
            .field("method", &self.method)
            .field("path", &self.path)
            .field("key", &self.key_prefix)
            .field("cache", &self.cache)
            .field("status", self.status)
            .field("latency_us", self.latency_us);
        if with_stages {
            o.array("stages", |a| {
                for (name, us) in &self.stages {
                    a.object(|s| {
                        s.field("stage", *name).field("us", *us);
                    });
                }
            });
        }
    }
}

/// The structured access log: one JSON object per completed request,
/// newline-delimited, flushed per line so a crashed daemon's log is
/// complete up to the failure.
#[derive(Debug)]
pub struct AccessLog {
    writer: Mutex<BufWriter<std::fs::File>>,
}

impl AccessLog {
    /// Open (append/create) the log at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be opened.
    pub fn open(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AccessLog {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Append one record as a JSONL line.
    pub fn log(&self, record: &RequestRecord) {
        let line = record.to_json(false);
        let mut w = self.writer.lock().expect("access log poisoned");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// A bounded ring of the last N completed requests — the daemon's black
/// box. Served at `GET /debug/requests` and dumped to stderr whenever a
/// 5xx goes out, so a failed request in a long-running daemon is
/// diagnosable after the fact with tracing off.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<RequestRecord>>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` requests (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Record one completed request, evicting the oldest beyond capacity.
    pub fn record(&self, record: RequestRecord) {
        let mut ring = self.ring.lock().expect("flight recorder poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn recent(&self) -> Vec<RequestRecord> {
        self.ring
            .lock()
            .expect("flight recorder poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The ring as a JSON array of request objects with stage timings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("capacity", self.capacity).array("requests", |a| {
                for r in self.recent() {
                    a.object(|o| r.write_fields(o, true));
                }
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_trace_ids_are_deterministic_and_nonzero() {
        let a = TraceIdGen::new(Some(42));
        let b = TraceIdGen::new(Some(42));
        let ids_a: Vec<u64> = (0..8).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..8).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b, "same seed, same sequence");
        assert!(ids_a.iter().all(|&id| id != 0));
        let distinct: std::collections::BTreeSet<u64> = ids_a.iter().copied().collect();
        assert_eq!(distinct.len(), ids_a.len());
        assert_ne!(TraceIdGen::new(Some(7)).next_id(), ids_a[0]);
    }

    #[test]
    fn trace_ids_roundtrip_through_the_header_format() {
        let id = 0x0123_4567_89ab_cdef;
        let text = format_trace_id(id);
        assert_eq!(text.len(), 16);
        assert_eq!(parse_trace_id(&text), Some(id));
        assert_eq!(parse_trace_id(&text.to_uppercase()), Some(id));
        assert_eq!(parse_trace_id(" 0123456789abcdef "), Some(id));
        assert_eq!(parse_trace_id("0123"), None, "wrong length");
        assert_eq!(parse_trace_id("xyzw456789abcdef"), None, "non-hex");
        assert_eq!(parse_trace_id("0000000000000000"), None, "zero id");
        assert_eq!(format_trace_id(5), "0000000000000005");
    }

    fn record(trace_id: u64, status: u16) -> RequestRecord {
        RequestRecord {
            trace_id,
            method: "POST".to_owned(),
            path: "/compile".to_owned(),
            key_prefix: "00ff00ff00ff00ff".to_owned(),
            cache: "miss".to_owned(),
            status,
            latency_us: 1234,
            stages: vec![("queue", 10), ("read", 20), ("route", 1200), ("write", 4)],
        }
    }

    #[test]
    fn records_render_valid_json_with_and_without_stages() {
        let r = record(9, 200);
        for with_stages in [false, true] {
            let j = r.to_json(with_stages);
            json::validate(&j).unwrap();
            assert_eq!(j.contains("\"stages\""), with_stages);
        }
        assert!(r
            .to_json(false)
            .contains("\"trace_id\": \"0000000000000009\""));
    }

    #[test]
    fn flight_recorder_is_a_bounded_ring() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(record(i + 1, 200));
        }
        let recent = fr.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|r| r.trace_id).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "oldest evicted first"
        );
        json::validate(&fr.to_json()).unwrap();
        assert_eq!(FlightRecorder::new(0).capacity, 1, "capacity floor");
    }

    #[test]
    fn access_log_appends_valid_jsonl() {
        let path = std::env::temp_dir().join(format!("hcg-access-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let log = AccessLog::open(&path).unwrap();
            log.log(&record(1, 200));
            log.log(&record(2, 422));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            json::validate(line).unwrap();
        }
        assert!(lines[1].contains("\"status\": 422"));
        let _ = std::fs::remove_file(&path);
    }
}
