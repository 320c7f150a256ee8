//! `serve-zipf` and `serve-cold`: an in-process hcg-serve daemon (two
//! workers, default cache shards and budget) under two closed-loop clients
//! on real loopback TCP connections. A request is timed from connect to the
//! last response byte.

use crate::cold::ARCHES;
use crate::compile::{self, Pending, Work};
use crate::oracle::{fnv, Verdicts};
use crate::run::{
    set_code_quality, twin, Outcome, Timings, Window, DIGEST_OPS, TAIL_OPS, TRACE_EVENT_OPS,
};
use crate::streams::{self, ZipfStream, OPTION_MIX};
use crate::trace::Tracer;
use hcg_core::emit::to_c_source;
use hcg_core::CompileSession;
use hcg_model::parser::model_from_xml;
use hcg_obs::prometheus::Exposition;
use hcg_serve::http::{self, Response};
use hcg_serve::{
    client, format_trace_id, spawn, ArtifactProvider, CompileOptions, ContentKey, MemoryStore,
    Outcome as Artifact, ServeConfig, ServeHandle, ShardedCache,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop clients (each waits for its response before the next send).
const CLIENTS: u64 = 2;
/// Daemon worker jobs.
const WORKERS: usize = 2;
/// Models the Zipf stream draws from.
const ZIPF_MODELS: usize = 1000;
/// Base models the cold stream renames; their generator seeds start at
/// `COLD_FIRST`, disjoint from the Zipf corpus.
const COLD_MODELS: usize = 2000;
const COLD_FIRST: u64 = 1 << 32;
/// Every this-many-th cold request is checked against a direct compile.
const COLD_CHECK_EVERY: u64 = 100;
/// Models whose code quality the traced run reports.
const QUALITY_MODELS: usize = 50;
/// How long the cold stream may take to fill the daemon's cache.
const FILL_LIMIT_S: u64 = 60;

/// A running daemon plus the model pool its clients draw from.
pub struct Serve {
    cold: bool,
    seed: u64,
    models: Vec<String>,
    cdf: Vec<f64>,
    handle: ServeHandle,
}

/// The daemon's service counters.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    requests: u64,
    hits: u64,
    joins: u64,
    evicted: u64,
    session_hits: u64,
    session_misses: u64,
}

impl Counts {
    fn of(handle: &ServeHandle) -> Counts {
        let c = handle.counters();
        Counts {
            requests: c.requests.load(Relaxed),
            hits: c.hits.load(Relaxed),
            joins: c.joins.load(Relaxed),
            evicted: c.evicted.load(Relaxed),
            session_hits: c.session_hits.load(Relaxed),
            session_misses: c.session_misses.load(Relaxed),
        }
    }

    fn since(self, b: Counts) -> Counts {
        Counts {
            requests: self.requests - b.requests,
            hits: self.hits - b.hits,
            joins: self.joins - b.joins,
            evicted: self.evicted - b.evicted,
            session_hits: self.session_hits - b.session_hits,
            session_misses: self.session_misses - b.session_misses,
        }
    }
}

/// The request stream of one client.
enum Stream<'a> {
    Zipf(ZipfStream<'a>),
    Cold { client: u64, n: u64 },
}

impl Stream<'_> {
    /// The next request: its key, model bytes and option mix.
    fn next_request<'m>(&mut self, models: &'m [String]) -> (u64, Cow<'m, str>, usize) {
        match self {
            Stream::Zipf(s) => {
                let (model, option) = s.next_request();
                (
                    (2 * model + option) as u64,
                    Cow::Borrowed(&models[model]),
                    option,
                )
            }
            Stream::Cold { client, n } => {
                let j = *n * CLIENTS + *client;
                *n += 1;
                let (xml, option) = streams::cold_request(models, j);
                (j, Cow::Owned(xml), option)
            }
        }
    }
}

/// One closed-loop client: its stream and what it has seen, kept in
/// memory proportional to distinct keys, not to requests.
struct Client<'a> {
    stream: Stream<'a>,
    sent: u64,
    /// Digests of the first responses, for the run digest.
    first: Vec<u64>,
    /// Zipf: the body digest every response for a key must repeat; cold:
    /// the digests of the requests checked against a direct compile.
    seen: BTreeMap<u64, u64>,
    verdicts: Verdicts,
}

impl Client<'_> {
    /// Send the next request and judge the response. Returns when it was
    /// sent and when its last byte arrived.
    fn request(&mut self, addr: SocketAddr, models: &[String]) -> (Instant, Instant) {
        let (key, xml, option) = self.stream.next_request(models);
        let started = Instant::now();
        let response = client::compile(addr, OPTION_MIX[option], xml.as_bytes());
        let finished = Instant::now();
        let n = self.sent;
        self.sent += 1;
        let response = match response {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                self.verdicts
                    .fail(format!("request {n}: status {}", r.status));
                return (started, finished);
            }
            Err(e) => {
                self.verdicts.fail(format!("request {n}: {e}"));
                return (started, finished);
            }
        };
        let digest = fnv(&response.body);
        if n < DIGEST_OPS / CLIENTS {
            self.first.push(digest);
        }
        match self.stream {
            Stream::Zipf(_) => {
                if *self.seen.entry(key).or_insert(digest) != digest {
                    self.verdicts
                        .fail(format!("request {n}: body changed for the same key"));
                }
            }
            Stream::Cold { .. } => {
                if key % COLD_CHECK_EVERY == 0 {
                    self.seen.insert(key, digest);
                }
            }
        }
        (started, finished)
    }
}

/// The compile a request asks for, run without the daemon — the same
/// option parsing, session and generator construction the daemon uses.
fn direct(xml: &str, option: usize) -> Result<String, String> {
    let query = OPTION_MIX[option];
    let options = CompileOptions::from_query(|k| {
        query.split('&').find_map(|kv| {
            kv.split_once('=')
                .filter(|(n, _)| *n == k)
                .map(|(_, v)| v.to_owned())
        })
    })
    .map_err(|e| e.to_string())?;
    let session = CompileSession::new(model_from_xml(xml).map_err(|e| e.to_string())?);
    session
        .generate(options.build_generator().as_ref(), options.arch)
        .map(|p| to_c_source(&p))
        .map_err(|e| e.to_string())
}

/// Cumulative buckets of a Prometheus histogram family, with the counts of
/// an earlier scrape subtracted.
fn bucket_delta(after: &Exposition, before: &Exposition, family: &str) -> Vec<(String, f64)> {
    let earlier: BTreeMap<String, f64> = before.buckets(family).into_iter().collect();
    after
        .buckets(family)
        .into_iter()
        .map(|(le, n)| {
            let base = earlier.get(&le).copied().unwrap_or(0.0);
            (le, n - base)
        })
        .collect()
}

/// The `q`-quantile of a histogram from its cumulative buckets,
/// interpolating linearly inside the bucket that holds it.
fn bucket_quantile(buckets: &[(String, f64)], q: f64) -> f64 {
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total == 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let (mut lower, mut below) = (0.0, 0.0);
    for (le, cumulative) in buckets {
        let upper = le.parse::<f64>().unwrap_or(f64::INFINITY);
        if *cumulative >= rank {
            if upper.is_infinite() || *cumulative == below {
                return lower;
            }
            return lower + (upper - lower) * (rank - below) / (cumulative - below);
        }
        lower = upper;
        below = *cumulative;
    }
    lower
}

fn scrape(addr: SocketAddr) -> Result<Exposition, String> {
    let response = client::request(addr, "GET", "/metrics?format=prometheus", b"")
        .map_err(|e| format!("metrics scrape: {e}"))?;
    hcg_obs::prometheus::parse(&response.text()).map_err(|e| format!("metrics scrape: {e}"))
}

impl Serve {
    /// Generate the model pool, start the daemon and warm it with a model
    /// outside the pool on both option mixes.
    pub fn setup(cold: bool, seed: u64) -> Result<Serve, String> {
        let models = if cold {
            streams::corpus(seed, COLD_FIRST, COLD_MODELS)
        } else {
            streams::corpus(seed, 0, ZIPF_MODELS)
        };
        let cdf = streams::zipf_cdf(models.len());
        let handle = spawn(ServeConfig {
            workers: WORKERS,
            trace_seed: Some(seed),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("daemon: {e}"))?;
        let warm = hcg_model::parser::model_to_xml(&hcg_model::library::fig4_model());
        for query in OPTION_MIX {
            let r = client::compile(handle.addr(), query, warm.as_bytes())
                .map_err(|e| format!("warm-up request: {e}"))?;
            if r.status != 200 {
                return Err(format!("warm-up request answered {}", r.status));
            }
        }
        Ok(Serve {
            cold,
            seed,
            models,
            cdf,
            handle,
        })
    }

    fn stream(&self, client: u64) -> Stream<'_> {
        if self.cold {
            Stream::Cold { client, n: 0 }
        } else {
            Stream::Zipf(ZipfStream::new(&self.cdf, self.seed, client))
        }
    }

    fn clients(&self) -> Vec<Client<'_>> {
        (0..CLIENTS)
            .map(|c| Client {
                stream: self.stream(c),
                sent: 0,
                first: Vec::new(),
                seen: BTreeMap::new(),
                verdicts: Verdicts::default(),
            })
            .collect()
    }

    /// Run every client until `stop` says so; with a window, time each
    /// request into the returned timings.
    fn drive(
        &self,
        clients: &mut [Client<'_>],
        window: Option<&Window>,
        stop: &(dyn Fn(u64) -> bool + Sync),
    ) -> Timings {
        let addr = self.handle.addr();
        let models = &self.models;
        let per_client: Vec<Timings> = std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let mut timings = Timings::new();
                    scope.spawn(move || {
                        let mut n = 0;
                        while !stop(n) {
                            let (started, finished) = client.request(addr, models);
                            if let Some(w) = window {
                                timings.record(w, started, finished);
                            }
                            n += 1;
                        }
                        timings
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let mut timings = Timings::new();
        per_client.iter().for_each(|t| timings.merge(t));
        timings
    }

    /// Serve-cold only: stream untimed requests until the daemon's cache
    /// evicts, so the timed window sees the steady state of a cold stream
    /// — every admit evicting — from its first request.
    fn fill(&self, clients: &mut [Client<'_>]) -> Result<(), String> {
        if !self.cold {
            return Ok(());
        }
        let counters = self.handle.counters();
        let deadline = Instant::now() + std::time::Duration::from_secs(FILL_LIMIT_S);
        let filled = |_| counters.evicted.load(Relaxed) > 0 || Instant::now() > deadline;
        self.drive(clients, None, &filled);
        if counters.evicted.load(Relaxed) == 0 {
            return Err(format!("the cache did not fill within {FILL_LIMIT_S} s"));
        }
        Ok(())
    }

    /// The timed window: every client until `seconds` pass and it has sent
    /// `min_ops / CLIENTS` timed requests.
    fn timed(&self, clients: &mut [Client<'_>], seconds: f64, min_ops: u64) -> Timings {
        let window = Window::open(seconds, min_ops / CLIENTS);
        self.drive(clients, Some(&window), &|n| window.done(n))
    }

    /// Check what the clients saw against direct compiles — every distinct
    /// Zipf key, every 100th cold request — and fold in their verdicts and
    /// first responses.
    fn verify(&self, clients: Vec<Client<'_>>, out: &mut Outcome) {
        let mut expected: BTreeMap<u64, Result<u64, String>> = BTreeMap::new();
        for (c, client) in clients.into_iter().enumerate() {
            for (n, d) in client.first.iter().enumerate() {
                out.digests.push((n as u64 * CLIENTS + c as u64, *d));
            }
            out.attempted += client.sent;
            out.verdicts.merge(client.verdicts);
            for (key, digest) in &client.seen {
                let want = expected.entry(*key).or_insert_with(|| {
                    let (xml, option) = if self.cold {
                        streams::cold_request(&self.models, *key)
                    } else {
                        (
                            self.models[(*key / 2) as usize].clone(),
                            (*key % 2) as usize,
                        )
                    };
                    direct(&xml, option).map(|c| fnv(c.as_bytes()))
                });
                match want {
                    Ok(d) if d == digest => {}
                    Ok(_) => out.verdicts.fail(format!(
                        "key {key}: served body differs from a direct compile"
                    )),
                    Err(e) => out
                        .verdicts
                        .fail(format!("direct compile of key {key}: {e}")),
                }
            }
        }
    }

    /// The end-to-end run.
    pub fn run(&self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let mut clients = self.clients();
        if let Err(e) = self.fill(&mut clients) {
            out.verdicts.fail(e);
            return out;
        }
        let timings = self.timed(&mut clients, seconds, TAIL_OPS);
        out.set_end_to_end(&timings);
        self.verify(clients, &mut out);
        out
    }

    /// The traced run. The daemon first serves the same load as the
    /// end-to-end run; its counters and histograms over the timed window
    /// are the `serve.daemon.*` metrics. Then the request stream is
    /// replayed in process, one request at a time, through the daemon's
    /// public layers with a span around each call — twice in lockstep,
    /// traced and plain, each over its own cache — and the two responses
    /// must be byte-identical.
    pub fn run_traced(&self, seconds: f64) -> (Outcome, Tracer) {
        let mut out = Outcome::default();
        let mut clients = self.clients();
        let before = self.fill(&mut clients).and_then(|()| {
            let counts = Counts::of(&self.handle);
            scrape(self.handle.addr()).map(|doc| (counts, doc))
        });
        let (counts_before, doc_before) = match before {
            Ok(b) => b,
            Err(e) => {
                out.verdicts.fail(e);
                return (out, Tracer::new(0));
            }
        };
        // The mean artifact of the daemon's full cache, for the replay.
        let artifact_bytes =
            (self.handle.cache_bytes() / self.handle.cache_entries().max(1)).max(1);
        self.timed(&mut clients, seconds, DIGEST_OPS);
        let counts = Counts::of(&self.handle).since(counts_before);
        match scrape(self.handle.addr()) {
            Ok(doc) => {
                for (metric, family) in [
                    ("queue_wait_us", "serve_queue_wait_us"),
                    ("compile_latency_us", "serve_compile_latency_us"),
                    ("request_latency_us", "serve_request_latency_us"),
                ] {
                    let buckets = bucket_delta(&doc, &doc_before, family);
                    for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
                        out.set(
                            format!("serve.daemon.{metric}.{label}"),
                            bucket_quantile(&buckets, q),
                        );
                    }
                }
            }
            Err(e) => out.verdicts.fail(e),
        }
        self.verify(clients, &mut out);
        let per_kreq = |n: u64| 1000.0 * n as f64 / counts.requests.max(1) as f64;
        out.set(
            "serve.cache.hit_rate",
            counts.hits as f64 / counts.requests.max(1) as f64,
        );
        out.set("serve.cache.evictions_per_kreq", per_kreq(counts.evicted));
        out.set("serve.daemon.joins_per_kreq", per_kreq(counts.joins));
        let sessions = counts.session_hits + counts.session_misses;
        out.set(
            "serve.session.hit_ratio",
            counts.session_hits as f64 / sessions.max(1) as f64,
        );

        crate::alloc::set_counting(true);
        let (replayed, t, work, plain_us) =
            self.replay(seconds / 2.0, artifact_bytes, &mut out.verdicts);
        out.attempted += replayed;
        out.set_layers(&t, &work, plain_us);
        let sample: Vec<_> = self.models[..QUALITY_MODELS]
            .iter()
            .filter_map(|x| model_from_xml(x).ok())
            .flat_map(|m| ARCHES.map(|a| (m.clone(), a)))
            .collect();
        set_code_quality(&mut out, &sample);
        (out, t)
    }

    /// The in-process replay: requests alternate between the two clients'
    /// streams. Returns ops replayed, the tracer, compile work and the
    /// plain twin's summed microseconds.
    fn replay(
        &self,
        seconds: f64,
        artifact_bytes: usize,
        verdicts: &mut Verdicts,
    ) -> (u64, Tracer, Work, f64) {
        let config = ServeConfig::default();
        let traced_cache = ShardedCache::new(config.shards, config.shard_budget, MemoryStore);
        let plain_cache = ShardedCache::new(config.shards, config.shard_budget, MemoryStore);
        if self.cold {
            // The daemon's cache is full when its timed window opens; fill
            // the replay caches to the same state with placeholder
            // artifacts of the daemon's mean artifact size (`artifact_bytes`,
            // measured after its fill), which LRU evicts first.
            let filler = Artifact::Success(Arc::new("x".repeat(artifact_bytes)));
            for k in 0u64.. {
                let key = ContentKey {
                    hi: streams::mix(k, 1),
                    lo: k,
                };
                plain_cache.admit(key, filler.clone());
                if traced_cache.admit(key, filler.clone()).evicted > 0 {
                    break;
                }
            }
        }
        let mut streams: Vec<Stream<'_>> = (0..CLIENTS).map(|c| self.stream(c)).collect();
        let mut t = Tracer::new(TRACE_EVENT_OPS);
        let mut work = Work::default();
        let mut plain_us = 0.0;
        let window = Window::open(seconds, DIGEST_OPS);
        let mut r = 0;
        while !window.done(r) {
            let (_, xml, option) = streams[(r % CLIENTS) as usize].next_request(&self.models);
            let wire = request_bytes(OPTION_MIX[option], xml.as_bytes());
            let ((traced, _), plain, us) = twin(
                r,
                || t.op(|t| serve_traced(t, &traced_cache, &wire, r, &mut work)),
                || serve_plain(&plain_cache, &wire, r),
            );
            plain_us += us;
            let verdict = traced.and_then(|(response, pending)| {
                if let Some(p) = pending {
                    p.settle(&mut t)?;
                }
                match plain {
                    Ok(p) if p == response => Ok(()),
                    _ => Err("traced response differs from the untraced replay".to_owned()),
                }
            });
            if let Err(e) = verdict {
                verdicts.fail(format!("replayed request {r}: {e}"));
            }
            r += 1;
        }
        (r, t, work, plain_us)
    }
}

/// The bytes `hcg_serve::client::compile` sends for one request.
fn request_bytes(query: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST /compile?{query} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// The response the daemon writes for an artifact (its `respond` plus the
/// trace-id header added on the way out).
fn response(artifact: &Artifact, cache: &str, key: ContentKey, r: u64) -> Response {
    let status = if artifact.is_failure() { 422 } else { 200 };
    Response::text(status, artifact.text())
        .with_header("X-Cache", cache)
        .with_header("X-Content-Key", &key.hex()[..16])
        .with_header("X-Trace-Id", format_trace_id(r + 1))
}

fn options_of(request: &http::Request) -> Result<CompileOptions, String> {
    CompileOptions::from_query(|k| request.query_param(k).map(str::to_owned))
        .map_err(|e| e.to_string())
}

/// One request through the daemon's layers, with spans.
fn serve_traced(
    t: &mut Tracer,
    cache: &dyn ArtifactProvider,
    wire: &[u8],
    r: u64,
    work: &mut Work,
) -> Result<(Vec<u8>, Option<Pending>), String> {
    let request = t
        .layer("serve.http.read", || {
            http::read_request(&mut Cursor::new(wire))
        })
        .map_err(|e| e.to_string())?;
    let options = options_of(&request)?;
    let key = t.layer("serve.key", || options.artifact_key(&request.body));
    let (artifact, status, pending) = match t.layer("serve.cache.fetch", || cache.fetch(key)) {
        Some(artifact) => (artifact, "hit", None),
        None => {
            let xml = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let (c, pending) = compile::traced(t, xml, options.arch, work)?;
            let artifact = Artifact::Success(Arc::new(c));
            t.layer("serve.cache.admit", || cache.admit(key, artifact.clone()));
            (artifact, "miss", Some(pending))
        }
    };
    let response = response(&artifact, status, key, r);
    let mut bytes = Vec::new();
    t.layer("serve.http.write", || {
        http::write_response(&mut bytes, &response)
    })
    .map_err(|e| e.to_string())?;
    Ok((bytes, pending))
}

/// [`serve_traced`] without spans: the plain twin.
fn serve_plain(cache: &dyn ArtifactProvider, wire: &[u8], r: u64) -> Result<Vec<u8>, String> {
    let request = http::read_request(&mut Cursor::new(wire)).map_err(|e| e.to_string())?;
    let options = options_of(&request)?;
    let key = options.artifact_key(&request.body);
    let (artifact, status) = match cache.fetch(key) {
        Some(artifact) => (artifact, "hit"),
        None => {
            let xml = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let artifact = Artifact::Success(Arc::new(compile::plain(xml, options.arch)?));
            cache.admit(key, artifact.clone());
            (artifact, "miss")
        }
    };
    let mut bytes = Vec::new();
    http::write_response(&mut bytes, &response(&artifact, status, key, r))
        .map_err(|e| e.to_string())?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantiles_interpolate() {
        let b = |v: &[(&str, f64)]| {
            v.iter()
                .map(|(l, c)| ((*l).to_owned(), *c))
                .collect::<Vec<_>>()
        };
        let buckets = b(&[("1", 0.0), ("3", 50.0), ("7", 100.0), ("+Inf", 100.0)]);
        assert_eq!(bucket_quantile(&buckets, 0.5), 3.0);
        assert_eq!(bucket_quantile(&buckets, 0.25), 2.0);
        assert_eq!(bucket_quantile(&buckets, 0.75), 5.0);
        assert_eq!(bucket_quantile(&b(&[("+Inf", 0.0)]), 0.5), 0.0);
    }

    #[test]
    fn replayed_request_matches_the_daemon_response() {
        let xml = hcg_model::parser::model_to_xml(&hcg_model::library::fig2_model());
        let handle = spawn(ServeConfig {
            workers: 1,
            trace_seed: Some(0),
            ..ServeConfig::default()
        })
        .unwrap();
        let live = client::compile(handle.addr(), OPTION_MIX[1], xml.as_bytes()).unwrap();
        handle.shutdown();
        let cache = ShardedCache::new(2, 1 << 20, MemoryStore);
        let wire = request_bytes(OPTION_MIX[1], xml.as_bytes());
        let replayed = serve_plain(&cache, &wire, 0).unwrap();
        let text = String::from_utf8(replayed).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.ends_with(&live.text()), "same C text as the daemon");
        assert_eq!(live.body, direct(&xml, 1).unwrap().into_bytes());
        let again = String::from_utf8(serve_plain(&cache, &wire, 0).unwrap()).unwrap();
        assert!(again.contains("X-Cache: hit"));
    }
}
