//! Observability overhead bench (`repro -- obs-bench`).
//!
//! Answers "what does instrumentation cost?" by replaying the identical
//! Zipf-skewed serve workload (see [`crate::serve`]) against daemons with
//! telemetry layered on one feature at a time:
//!
//! 1. `off` — histograms disabled, no access log, tracing off (baseline);
//! 2. `histograms` — the production default: latency/size histograms on;
//! 3. `histograms+access-log` — plus one JSON line per request to disk;
//! 4. `histograms+access-log+tracing` — plus span capture on every thread.
//!
//! Layers are measured **interleaved**, `repeats` rounds, after one
//! untimed warm-up run — so every layer samples the same machine
//! conditions (frequency scaling, cache state, allocator warmth)
//! instead of the first layer winning by going first. Within a round
//! the layer order alternates forward/reverse between rounds, so any
//! monotone drift across a round (a neighbour taking the core, a
//! thermal ramp) hits each layer's early and late slots equally and
//! cancels over pairs of rounds. The wall-clock headline is the
//! **median** of the per-round paired off-vs-histograms deltas, and
//! the table reports each layer's median round.
//!
//! The **gate** does not bind the wall-clock delta. Every request is a
//! fresh TCP connection bounced across client, accept and worker
//! threads, so on small shared boxes the round-trip is dominated by
//! scheduler behaviour: an A/A comparison (two *identical* layers run
//! through the same paired protocol) shows paired deltas swinging
//! ±10–25% — far too coarse to resolve a 3% budget, in either
//! direction. What the gate binds instead is measurable to well under
//! 1%: the four histogram `record` calls the server makes per request
//! are timed directly in a tight loop ([`record_cost_ns_per_request`],
//! minimum over batches, so preemption can only inflate discarded
//! samples), and that cost is expressed as a fraction of the
//! instrumented run's per-request service time. Added per-request work
//! divided by service time *is* the throughput loss at saturation, so
//! the gate still speaks the budget's language — histograms are
//! always-on in production, so they must be near-free, below
//! [`GATE_PCT`]% of a request. The raw wall-clock deltas stay in the
//! report (one per round) so a reader can check the noise for
//! themselves. The gate only applies to runs of at least
//! [`GATE_MIN_REQUESTS`] requests; shorter smokes have too few
//! requests to estimate even the service time honestly.

use crate::serve::{run_serve_bench, ServeBenchConfig, ServeBenchReport};
use hcg_obs::json::{self, Fixed};
use hcg_obs::Histogram;
use std::path::PathBuf;
use std::time::Instant;

/// Maximum tolerated histogram-layer throughput loss, percent.
pub const GATE_PCT: f64 = 3.0;

/// Replays shorter than this skip the overhead gate (noise dominates).
pub const GATE_MIN_REQUESTS: usize = 1000;

/// Overhead-bench configuration: the shared workload shape plus how many
/// times each layer repeats.
#[derive(Debug, Clone)]
pub struct ObsBenchConfig {
    /// Total requests replayed per run.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Synthesized models in the corpus.
    pub corpus_size: usize,
    /// Base seed for corpus synthesis and request sampling.
    pub seed: u64,
    /// Daemon worker jobs (0 = all cores).
    pub workers: usize,
    /// Interleaved measurement rounds; the table reports each layer's
    /// median round and the gate uses the median of the per-round
    /// paired off-vs-histograms deltas.
    pub repeats: usize,
    /// Where the access-log layers write their JSONL output.
    pub access_log: PathBuf,
}

impl Default for ObsBenchConfig {
    fn default() -> Self {
        ObsBenchConfig {
            requests: 4000,
            clients: 8,
            corpus_size: 500,
            seed: 0,
            workers: 0,
            repeats: 5,
            access_log: PathBuf::from("target/obs-bench-access.jsonl"),
        }
    }
}

/// One telemetry layer's median-round result.
#[derive(Debug, Clone)]
pub struct ObsLayerResult {
    /// Layer name (`off`, `histograms`, ...).
    pub layer: &'static str,
    /// Requests-per-second of the layer's median round (by throughput).
    pub requests_per_sec: f64,
    /// Median end-to-end latency (from the median round), microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency (from the median round), microseconds.
    pub p99_us: u64,
    /// Cache hit rate of the median round (sanity: same across layers).
    pub hit_rate: f64,
}

/// The full overhead report.
#[derive(Debug, Clone)]
pub struct ObsBenchReport {
    /// The configuration that produced this report.
    pub config: ObsBenchConfig,
    /// Per-layer results, in layering order (baseline first).
    pub layers: Vec<ObsLayerResult>,
    /// Wall-clock histogram-layer throughput delta versus baseline,
    /// percent: the median of the per-round paired deltas (negative =
    /// the instrumented runs happened to be faster). Reported for
    /// transparency; scheduler noise dominates it on shared boxes, so
    /// the gate binds [`ObsBenchReport::direct_overhead_pct`] instead.
    pub histogram_overhead_pct: f64,
    /// Every per-round paired off-vs-histograms delta, percent, in
    /// round order — the spread is the measurement's noise floor.
    pub paired_deltas_pct: Vec<f64>,
    /// Directly measured cost of the per-request histogram `record`
    /// calls, nanoseconds (minimum over tight-loop batches).
    pub record_cost_ns_per_request: f64,
    /// That cost as a percentage of the instrumented run's per-request
    /// service time — the throughput loss at saturation. This is what
    /// the gate binds.
    pub direct_overhead_pct: f64,
    /// The gate threshold this report was judged against.
    pub gate_pct: f64,
    /// Whether the gate applied (`requests >= GATE_MIN_REQUESTS`).
    pub gate_applied: bool,
    /// Lines the access-log layers wrote (one per completed request).
    pub access_log_lines: usize,
}

/// One measured run of a layer; every run must stay byte-identical to
/// direct compiles (instrumentation must never change results). Tracing
/// is a process-global flag, so it is flipped around the run and the
/// captured spans are dropped immediately.
fn run_layer(config: &ServeBenchConfig, tracing: bool) -> ServeBenchReport {
    let was_tracing = hcg_obs::tracing_enabled();
    if tracing {
        hcg_obs::set_tracing(true);
    }
    let report = run_serve_bench(config);
    hcg_obs::set_tracing(was_tracing);
    if tracing {
        let _ = hcg_obs::take_events();
    }
    assert!(
        report.identical,
        "telemetry layer changed compile output — observability must be passive"
    );
    report
}

/// Time the per-request histogram work directly: the same four `record`
/// calls `handle_connection` makes (queue wait, request bytes, response
/// bytes, end-to-end latency), swept over values that land in different
/// buckets. Returns nanoseconds per request-equivalent, minimum over
/// several batches — on a busy box preemption can only inflate a batch,
/// so the minimum is the steady-state cost.
pub fn record_cost_ns_per_request() -> f64 {
    const BATCH: u64 = 200_000;
    let queue = Histogram::new();
    let req_bytes = Histogram::new();
    let resp_bytes = Histogram::new();
    let latency = Histogram::new();
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        for i in 0..BATCH {
            let i = std::hint::black_box(i);
            queue.record(i & 0x3ff);
            req_bytes.record(1_024 + (i & 0xffff));
            resp_bytes.record(8_192 + (i & 0xffff));
            latency.record(64 + (i & 0x1fff));
        }
        let ns = t0.elapsed().as_nanos() as f64 / BATCH as f64;
        best = best.min(ns);
    }
    // Keep the histograms observable so the record loops can't be
    // discarded as dead stores.
    std::hint::black_box((
        queue.snapshot().count,
        req_bytes.snapshot().count,
        resp_bytes.snapshot().count,
        latency.snapshot().count,
    ));
    best
}

fn layer_result(name: &'static str, report: &ServeBenchReport) -> ObsLayerResult {
    ObsLayerResult {
        layer: name,
        requests_per_sec: report.requests_per_sec(),
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        hit_rate: report.hit_rate(),
    }
}

/// Run all four layers and compute the histogram overhead.
///
/// # Panics
///
/// Panics when any layer's responses diverge from direct compiles, when
/// the access-log layers write nothing, or when the histogram overhead
/// exceeds [`GATE_PCT`] on a gated (≥ [`GATE_MIN_REQUESTS`]-request) run.
pub fn run_obs_bench(config: &ObsBenchConfig) -> ObsBenchReport {
    let base = ServeBenchConfig {
        requests: config.requests,
        clients: config.clients,
        corpus_size: config.corpus_size,
        seed: config.seed,
        workers: config.workers,
        record_histograms: false,
        access_log: None,
    };
    let _ = std::fs::remove_file(&config.access_log);
    if let Some(parent) = config.access_log.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }

    let logged_cfg = ServeBenchConfig {
        record_histograms: true,
        access_log: Some(config.access_log.clone()),
        ..base.clone()
    };
    let layers: [(&'static str, ServeBenchConfig, bool); 4] = [
        ("off", base.clone(), false),
        (
            "histograms",
            ServeBenchConfig {
                record_histograms: true,
                ..base.clone()
            },
            false,
        ),
        ("histograms+access-log", logged_cfg.clone(), false),
        ("histograms+access-log+tracing", logged_cfg, true),
    ];

    // One untimed warm-up, then interleaved rounds. The order inside a
    // round alternates forward/reverse so monotone within-round drift
    // (a busy neighbour, a thermal ramp) cancels across round pairs
    // instead of systematically taxing whichever layer runs last.
    let _ = run_layer(&base, false);
    let repeats = config.repeats.max(1);
    let mut runs: Vec<Vec<ServeBenchReport>> = vec![Vec::new(); layers.len()];
    for round in 0..repeats {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..layers.len()).collect()
        } else {
            (0..layers.len()).rev().collect()
        };
        for i in order {
            let (_, layer_cfg, tracing) = &layers[i];
            let report = run_layer(layer_cfg, *tracing);
            runs[i].push(report);
        }
    }

    // Wall-clock statistic: pair off and histograms *within* each round
    // (they ran seconds apart under the same machine conditions), then
    // take the median delta so one scheduler-starved round can't decide
    // it. Kept in the report as context, not gated (see module docs).
    let paired_deltas_pct: Vec<f64> = (0..repeats)
        .map(|r| {
            let off = runs[0][r].requests_per_sec();
            let hist = runs[1][r].requests_per_sec();
            (off - hist) / off * 100.0
        })
        .collect();
    let mut sorted = paired_deltas_pct.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("deltas are finite"));
    let wallclock_delta = sorted[sorted.len() / 2];

    let median_round = |mut rounds: Vec<ServeBenchReport>| {
        rounds.sort_by(|a, b| {
            a.requests_per_sec()
                .partial_cmp(&b.requests_per_sec())
                .expect("throughput is finite")
        });
        let mid = rounds.len() / 2;
        rounds.swap_remove(mid)
    };
    let [off, hist, logged, traced] = runs
        .into_iter()
        .map(median_round)
        .collect::<Vec<_>>()
        .try_into()
        .expect("four layers");

    let access_log_lines = std::fs::read_to_string(&config.access_log)
        .map(|s| s.lines().count())
        .unwrap_or(0);
    assert!(
        access_log_lines > 0,
        "access-log layers completed but {} is empty",
        config.access_log.display()
    );

    // Gate statistic: the directly measured per-request record cost as
    // a share of the instrumented run's per-request service time —
    // added work over service time is throughput loss at saturation.
    let record_cost_ns = record_cost_ns_per_request();
    let service_time_ns = 1e9 / hist.requests_per_sec().max(1e-9);
    let direct_overhead_pct = record_cost_ns / service_time_ns * 100.0;

    let gate_applied = config.requests >= GATE_MIN_REQUESTS;
    if gate_applied {
        assert!(
            direct_overhead_pct < GATE_PCT,
            "histogram overhead {direct_overhead_pct:.3}% exceeds the {GATE_PCT}% budget \
             ({record_cost_ns:.0} ns of record calls per {service_time_ns:.0} ns request)",
        );
    }

    ObsBenchReport {
        config: config.clone(),
        layers: vec![
            layer_result("off", &off),
            layer_result("histograms", &hist),
            layer_result("histograms+access-log", &logged),
            layer_result("histograms+access-log+tracing", &traced),
        ],
        histogram_overhead_pct: wallclock_delta,
        paired_deltas_pct,
        record_cost_ns_per_request: record_cost_ns,
        direct_overhead_pct,
        gate_pct: GATE_PCT,
        gate_applied,
        access_log_lines,
    }
}

/// Render the report for the transcript.
pub fn render_obs_bench(r: &ObsBenchReport) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "{} requests x {} clients over a {}-model corpus, median of {} interleaved rounds",
        r.config.requests, r.config.clients, r.config.corpus_size, r.config.repeats
    ));
    line(format!(
        "{:<32} {:>12} {:>10} {:>10} {:>9}",
        "layer", "requests/s", "p50 us", "p99 us", "hit rate"
    ));
    for l in &r.layers {
        line(format!(
            "{:<32} {:>12.0} {:>10} {:>10} {:>8.1}%",
            l.layer,
            l.requests_per_sec,
            l.p50_us,
            l.p99_us,
            l.hit_rate * 100.0
        ));
    }
    line(format!(
        "wall-clock delta vs off: {:.2}% median of paired rounds [{}] (scheduler noise, not gated)",
        r.histogram_overhead_pct,
        r.paired_deltas_pct
            .iter()
            .map(|d| format!("{d:+.1}%"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    line(format!(
        "histogram record cost: {:.0} ns/request = {:.3}% of a request (budget {:.1}%, gate {})",
        r.record_cost_ns_per_request,
        r.direct_overhead_pct,
        r.gate_pct,
        if r.gate_applied {
            "applied"
        } else {
            "skipped: short run"
        }
    ));
    line(format!(
        "access log: {} lines at {}",
        r.access_log_lines,
        r.config.access_log.display()
    ));
    out
}

/// The report as the committed `BENCH_obs.json` schema.
pub fn obs_bench_json(r: &ObsBenchReport) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.field("experiment", "obs-overhead")
            .field("requests", r.config.requests)
            .field("clients", r.config.clients)
            .field("corpus_size", r.config.corpus_size)
            .field("seed", r.config.seed)
            .field("repeats", r.config.repeats)
            .field("wallclock_delta_pct", Fixed(r.histogram_overhead_pct, 2))
            .array("paired_deltas_pct", |a| {
                for d in &r.paired_deltas_pct {
                    a.item(Fixed(*d, 2));
                }
            })
            .field(
                "record_cost_ns_per_request",
                Fixed(r.record_cost_ns_per_request, 1),
            )
            .field("direct_overhead_pct", Fixed(r.direct_overhead_pct, 3))
            .field("gate_pct", r.gate_pct)
            .field("gate_applied", r.gate_applied)
            .field("access_log_lines", r.access_log_lines)
            .array("layers", |a| {
                for l in &r.layers {
                    a.object(|o| {
                        o.field("layer", l.layer)
                            .field("requests_per_sec", Fixed(l.requests_per_sec, 1))
                            .field("p50_us", l.p50_us)
                            .field("p99_us", l.p99_us)
                            .field("hit_rate", Fixed(l.hit_rate, 4));
                    });
                }
            });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_obs_bench_runs_all_layers_and_skips_the_gate() {
        let log =
            std::env::temp_dir().join(format!("hcg-obs-bench-test-{}.jsonl", std::process::id()));
        let report = run_obs_bench(&ObsBenchConfig {
            requests: 24,
            clients: 3,
            corpus_size: 4,
            seed: 11,
            workers: 2,
            repeats: 1,
            access_log: log.clone(),
        });
        assert_eq!(report.layers.len(), 4);
        assert_eq!(report.layers[0].layer, "off");
        assert!(!report.gate_applied, "24 requests is below the gate floor");
        assert!(report.layers.iter().all(|l| l.requests_per_sec > 0.0));
        assert_eq!(report.paired_deltas_pct.len(), 1, "one delta per round");
        assert!(
            report.record_cost_ns_per_request > 0.0,
            "record cost is measured even on ungated runs"
        );
        // Two layers log 24 requests each (one repeat).
        assert_eq!(report.access_log_lines, 48);
        let json = obs_bench_json(&report);
        hcg_obs::json::validate(&json).expect("obs bench JSON validates");
        assert!(json.contains("\"experiment\": \"obs-overhead\""));
        assert!(json.contains("\"direct_overhead_pct\""));
        assert!(render_obs_bench(&report).contains("histogram record cost"));
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn record_cost_is_sane() {
        let ns = record_cost_ns_per_request();
        // Four relaxed-atomic histogram records: more than a nothing,
        // far less than a microsecond even on a slow shared box.
        assert!(ns > 0.0 && ns < 1_000.0, "record cost {ns} ns/request");
    }
}
