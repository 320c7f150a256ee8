//! The compile-service load generator behind `repro -- obs-bench`, and
//! the CI smoke (`repro -- serve-smoke`).
//!
//! [`run_serve_bench`] spins an [`hcg_serve`] daemon in-process on an
//! ephemeral port, synthesizes an M-model corpus with the hcg-fuzz generator,
//! replays a Zipf-skewed request mix from C concurrent client threads
//! over real TCP connections, and checks every response byte-identical to
//! a direct (daemon-free) [`CompileSession`](hcg_core::CompileSession)
//! compile — the service must behave as a transparent cache.

use hcg_fuzz::{generate_model, GenConfig};
use hcg_model::parser::model_to_xml;
use hcg_serve::{client, spawn, CompileOptions, ServeConfig, ServeHandle};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// The option mixes replayed against the daemon (query string, plus the
/// equivalent parsed options for the byte-identity oracle).
const OPTION_MIX: [&str; 2] = ["generator=hcg&arch=neon128", "generator=hcg&arch=avx256"];

/// Zipf skew exponent for the model popularity distribution.
const ZIPF_S: f64 = 1.1;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Total requests replayed across all clients.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Synthesized models in the corpus.
    pub corpus_size: usize,
    /// Base seed for corpus synthesis and request sampling.
    pub seed: u64,
    /// Daemon worker jobs (0 = all cores).
    pub workers: usize,
    /// Record latency/size histograms in the daemon (the default
    /// production posture; `obs-bench` turns it off for its baseline).
    pub record_histograms: bool,
    /// Append one JSON line per request to this path.
    pub access_log: Option<std::path::PathBuf>,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            requests: 5000,
            clients: 8,
            corpus_size: 1000,
            seed: 0,
            workers: 0,
            record_histograms: true,
            access_log: None,
        }
    }
}

/// One run's results.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The configuration that produced this report.
    pub config: ServeBenchConfig,
    /// Distinct `(model, options)` keys the replay touched.
    pub distinct_keys: usize,
    /// Artifact-cache hits observed by the daemon.
    pub hits: u64,
    /// Artifact-cache misses.
    pub misses: u64,
    /// Compiles the daemon actually executed.
    pub compiles: u64,
    /// Wall-clock seconds for the whole replay.
    pub elapsed_s: f64,
    /// End-to-end request latency percentiles, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Whether every response body matched the direct compile (a 422
    /// matches when the direct compile fails with the same error — a fuzz
    /// corpus may legitimately contain uncompilable models).
    pub identical: bool,
}

impl ServeBenchReport {
    /// Requests served per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        self.config.requests as f64 / self.elapsed_s.max(1e-9)
    }

    /// Hit rate over the artifact cache (hits / requests).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.config.requests as f64).max(1.0)
    }
}

/// splitmix64: the per-client deterministic request sampler.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Cumulative Zipf(`ZIPF_S`) distribution over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

fn sample_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The expected body for `xml` under `query`, compiled without the daemon.
fn direct_compile(xml: &str, query: &str) -> Result<String, String> {
    let options = CompileOptions::from_query(|k| {
        query.split('&').find_map(|pair| {
            let (name, value) = pair.split_once('=')?;
            (name == k).then(|| value.to_owned())
        })
    })
    .expect("bench option mix is valid");
    let model = hcg_model::parser::model_from_xml(xml).map_err(|e| e.to_string())?;
    let session = hcg_core::CompileSession::new(model);
    session
        .generate(options.build_generator().as_ref(), options.arch)
        .map(|p| hcg_core::emit::to_c_source(&p))
        .map_err(|e| format!("compile failed: {e}"))
}

/// Run the load generator against a fresh in-process daemon.
///
/// # Panics
///
/// Panics when the daemon cannot bind or a client transport fails — both
/// mean the bench itself is broken, not the system under test.
pub fn run_serve_bench(config: &ServeBenchConfig) -> ServeBenchReport {
    let corpus_size = config.corpus_size.max(1);
    let clients = config.clients.max(1);
    let gen_cfg = GenConfig::default();
    let corpus: Vec<String> = (0..corpus_size)
        .map(|i| {
            model_to_xml(&generate_model(
                config.seed.wrapping_add(i as u64),
                &gen_cfg,
            ))
        })
        .collect();
    let cdf = zipf_cdf(corpus_size);

    let handle: ServeHandle = spawn(ServeConfig {
        workers: config.workers,
        record_histograms: config.record_histograms,
        access_log: config.access_log.clone(),
        ..ServeConfig::default()
    })
    .expect("bench daemon binds an ephemeral port");
    let addr = handle.addr();

    // Split the request budget across clients (first client absorbs the
    // remainder so totals always add up).
    let per_client = config.requests / clients;
    let remainder = config.requests % clients;

    struct Observed {
        model: u32,
        opt: u8,
        status: u16,
        body: String,
        latency_us: u64,
    }

    let started = Instant::now();
    let observations: Vec<Observed> = std::thread::scope(|scope| {
        let corpus = &corpus;
        let cdf = &cdf;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let quota = per_client + usize::from(c == 0) * remainder;
                scope.spawn(move || {
                    let mut rng =
                        config.seed ^ (0xc11e_0000 + c as u64).wrapping_mul(0x1234_5678_9abc_def1);
                    let mut out = Vec::with_capacity(quota);
                    for _ in 0..quota {
                        let model = sample_rank(cdf, unit_f64(splitmix64(&mut rng)));
                        let opt = (splitmix64(&mut rng) & 1) as usize;
                        let t0 = Instant::now();
                        let resp = client::compile(addr, OPTION_MIX[opt], corpus[model].as_bytes())
                            .expect("client transport");
                        out.push(Observed {
                            model: model as u32,
                            opt: opt as u8,
                            status: resp.status,
                            body: resp.text(),
                            latency_us: t0.elapsed().as_micros() as u64,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    // Byte-identity oracle: one direct compile per distinct key, compared
    // against every response for that key.
    let mut expected: std::collections::HashMap<(u32, u8), Result<String, String>> =
        std::collections::HashMap::new();
    let mut identical = true;
    for obs in &observations {
        let want = expected.entry((obs.model, obs.opt)).or_insert_with(|| {
            direct_compile(&corpus[obs.model as usize], OPTION_MIX[obs.opt as usize])
        });
        identical &= match want {
            Ok(body) => obs.status == 200 && obs.body == *body,
            Err(error) => obs.status == 422 && obs.body == *error,
        };
    }
    let distinct_keys = expected.len();

    let mut latencies: Vec<u64> = observations.iter().map(|o| o.latency_us).collect();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };

    let counters = handle.counters();
    let report = ServeBenchReport {
        config: ServeBenchConfig {
            requests: observations.len(),
            clients,
            corpus_size,
            ..config.clone()
        },
        distinct_keys,
        hits: counters.hits.load(Relaxed),
        misses: counters.misses.load(Relaxed),
        compiles: counters.compiles.load(Relaxed),
        elapsed_s,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        identical,
    };
    handle.shutdown();
    report
}

/// The CI smoke: a daemon on an ephemeral port, two bundled models each
/// POSTed twice; the second round must be all cache hits with identical
/// bodies, and shutdown must be clean. Returns a transcript.
///
/// # Panics
///
/// Panics on any smoke violation (that is the point — `check.sh` runs it).
pub fn run_serve_smoke() -> String {
    let mut out = String::new();
    let handle = spawn(ServeConfig::default()).expect("smoke daemon binds");
    let addr = handle.addr();
    out.push_str(&format!("daemon on {addr}\n"));
    let models = [
        (
            "fig2",
            model_to_xml(&hcg_model::library::fig2_model()),
            "generator=hcg&arch=neon128",
        ),
        (
            "fig4",
            model_to_xml(&hcg_model::library::fig4_model()),
            "generator=hcg&arch=avx256",
        ),
    ];
    for (name, xml, query) in &models {
        let first = client::compile(addr, query, xml.as_bytes()).expect("smoke POST");
        assert_eq!(first.status, 200, "{name}: {}", first.text());
        assert_eq!(first.header("x-cache"), Some("miss"), "{name} first POST");
        let second = client::compile(addr, query, xml.as_bytes()).expect("smoke POST");
        assert_eq!(second.status, 200);
        assert_eq!(second.header("x-cache"), Some("hit"), "{name} second POST");
        assert_eq!(first.body, second.body, "{name} bodies match across hits");
        out.push_str(&format!(
            "{name}: miss then hit, {} byte body identical\n",
            first.body.len()
        ));
    }
    let metrics = client::request(addr, "GET", "/metrics", b"").expect("smoke metrics");
    hcg_obs::json::validate(&metrics.text()).expect("metrics JSON validates");
    assert_eq!(
        metrics.header("cache-control"),
        Some("no-store"),
        "scrapes must not be cached"
    );
    // The Prometheus surface, end to end: scrape the text format over TCP
    // and run it through the strict parser (no curl, no external deps).
    let prom = client::request(addr, "GET", "/metrics?format=prometheus", b"")
        .expect("smoke prometheus scrape");
    assert_eq!(prom.status, 200);
    let doc = hcg_obs::prometheus::parse(&prom.text()).expect("prometheus exposition parses");
    assert!(
        doc.value("serve_requests").unwrap_or(0.0) >= 4.0,
        "scrape reflects the smoke's requests"
    );
    assert_eq!(
        doc.types
            .get("serve_request_latency_us")
            .map(String::as_str),
        Some("histogram"),
        "latency histogram exposed to Prometheus"
    );
    let counters = handle.counters();
    assert_eq!(counters.compiles.load(Relaxed), 2, "one compile per model");
    assert_eq!(counters.hits.load(Relaxed), 2, "one hit per model");
    handle.shutdown();
    out.push_str(
        "metrics valid JSON; prometheus scrape parses; 2 compiles, 2 hits; clean shutdown\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        let cdf = zipf_cdf(100);
        assert_eq!(cdf.len(), 100);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((cdf[99] - 1.0).abs() < 1e-9);
        // Rank 1 dominates under s > 1.
        assert!(cdf[0] > 0.1);
        assert_eq!(sample_rank(&cdf, 0.0), 0);
        assert_eq!(sample_rank(&cdf, 0.9999999), 99);
    }

    #[test]
    fn sampler_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        let u = unit_f64(xs[0]);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn tiny_bench_run_is_identical_and_counts_add_up() {
        let report = run_serve_bench(&ServeBenchConfig {
            requests: 40,
            clients: 4,
            corpus_size: 5,
            seed: 7,
            workers: 2,
            ..ServeBenchConfig::default()
        });
        assert!(
            report.identical,
            "service responses must match direct compiles"
        );
        assert_eq!(report.config.requests, 40);
        assert_eq!(
            report.hits + report.misses,
            40,
            "every request is a hit or a miss"
        );
        // 5 models x 2 option mixes bounds the key space.
        assert!(report.distinct_keys <= 10);
        assert!(report.compiles <= report.distinct_keys as u64);
        assert!(
            report.hit_rate() > 0.5,
            "40 requests over ≤10 keys mostly hit"
        );
    }

    #[test]
    fn smoke_passes() {
        let transcript = run_serve_smoke();
        assert!(transcript.contains("miss then hit"));
        assert!(transcript.contains("clean shutdown"));
    }
}
