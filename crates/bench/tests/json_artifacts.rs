//! One table, every JSON artifact: each machine-readable document the
//! workspace can emit — bench reports, telemetry snapshots, trace
//! exports, service endpoints, access-log lines — must pass the strict
//! `hcg_obs::json::validate` parser. A new emitter that produces invalid
//! JSON (a stray NaN, an unescaped quote, a trailing comma) fails here
//! with its name, not downstream in whatever tool ingests the file.

use hcg_bench::{
    cycle_profile_json, incremental_json, obs_bench_json, profile_json, profile_matrix,
    run_incremental_bench, run_search, search_json, verify_json, IncrementalBenchConfig,
    ObsBenchConfig, ObsBenchReport, ObsLayerResult, VerifyRow,
};
use hcg_core::{CodeGenerator, HcgGen};
use hcg_fuzz::{run_fuzz, Divergence, FailureSummary, FuzzConfig, ShrinkStats, VerifyVerdict};
use hcg_isa::Arch;
use hcg_obs::{Histogram, MetricsSnapshot, SpanEvent};
use hcg_serve::{client, spawn, RequestRecord, ServeConfig};

/// Text with every character class a JSON string must escape: a
/// multi-line panic message, a tab, a raw control byte, a quote and a
/// backslash.
const NASTY: &str = "assertion `left == right` failed\n  left: \"a\\b\"\n\tright: \u{1}";

/// A trace event with every field exercised (escaping, ids, parents).
fn span_event() -> SpanEvent {
    SpanEvent {
        id: (3 << 32) | 1,
        name: "serve/request \"quoted\"".to_owned(),
        cat: "serve",
        tid: 3,
        depth: 1,
        start_us: 10,
        dur_us: 250,
        trace_id: 0xdead_beef,
        parent: 3 << 32,
    }
}

/// A hand-built overhead report (running the real bench four layers deep
/// belongs to `repro -- obs-bench`, not a unit-speed test).
fn obs_report() -> ObsBenchReport {
    let layer = |name: &'static str, rps: f64| ObsLayerResult {
        layer: name,
        requests_per_sec: rps,
        p50_us: 120,
        p99_us: 900,
        hit_rate: 0.9,
    };
    ObsBenchReport {
        config: ObsBenchConfig::default(),
        layers: vec![
            layer("off", 1000.0),
            layer("histograms", 990.0),
            layer("histograms+access-log", 950.0),
            layer("histograms+access-log+tracing", 900.0),
        ],
        histogram_overhead_pct: 1.0,
        paired_deltas_pct: vec![-0.4, 1.0, 2.2],
        record_cost_ns_per_request: 120.0,
        direct_overhead_pct: 0.15,
        gate_pct: 3.0,
        gate_applied: true,
        access_log_lines: 8000,
    }
}

/// One real verify row: the fig. 2 model under HCG on NEON.
fn verify_rows() -> Vec<VerifyRow> {
    let model = hcg_model::library::fig2_model();
    let gen = HcgGen::new();
    let prog = gen.generate(&model, Arch::Neon128).unwrap();
    vec![VerifyRow {
        model: model.name.clone(),
        generator: gen.name(),
        arch: Arch::Neon128,
        outcome: hcg_verify::verify_program(&model, &prog).unwrap(),
        range_findings: hcg_verify::range_lint(&prog).diagnostics.len(),
    }]
}

#[test]
fn every_json_artifact_validates() {
    let mut artifacts: Vec<(&str, String)> = Vec::new();

    // Bench reports.
    artifacts.push(("obs-bench report", obs_bench_json(&obs_report())));
    artifacts.push(("search report", search_json(&run_search(2, false, 1, 2))));
    let edit_once = IncrementalBenchConfig { edits: 1, seed: 0 };
    let incremental = run_incremental_bench(&edit_once);
    artifacts.push((
        "incremental report",
        incremental_json(&edit_once, &incremental),
    ));
    artifacts.push(("verify report", verify_json(&verify_rows(), false)));
    let profiled = profile_matrix(Some("fir"));
    artifacts.push(("profile matrix", profile_json(&profiled)));
    let mut region_profile = profiled.first().expect("fir profiles").profile.clone();
    artifacts.push(("vm region profile", cycle_profile_json(&region_profile)));
    region_profile.actors[0].label = "gain \"g\"\nrow 2".to_owned();
    artifacts.push((
        "vm region profile (quoted multi-line actor)",
        cycle_profile_json(&region_profile),
    ));
    let fuzz = run_fuzz(&FuzzConfig::new(5, 3));
    artifacts.push(("fuzz report (deterministic)", fuzz.deterministic_json()));
    artifacts.push(("fuzz report (full)", fuzz.to_json()));
    // A panicking job's message spans lines; the verifier witness may too.
    let mut failing = fuzz.clone();
    failing.failures.push(FailureSummary {
        seed: 9,
        divergences: vec![Divergence {
            check: "panic",
            detail: NASTY.to_owned(),
        }],
        shrink: ShrinkStats::default(),
        repro: None,
        verify: vec![VerifyVerdict {
            generator: "hcg",
            arch: "neon128".to_owned(),
            verdict: "divergent".to_owned(),
            witness: Some(NASTY.to_owned()),
        }],
    });
    artifacts.push(("fuzz report (failing job)", failing.to_json()));

    // Telemetry exports.
    artifacts.push((
        "chrome trace export",
        hcg_obs::chrome_trace_json(&[span_event()]),
    ));
    let hist = Histogram::new();
    for v in [0, 1, 9, 100_000] {
        hist.record(v);
    }
    artifacts.push(("histogram snapshot", hist.snapshot().to_json()));
    let mut snap = MetricsSnapshot::new();
    snap.set_counter("jobs", 7);
    snap.set_gauge("ratio \"x\"", 0.5);
    snap.set_gauge("bad", f64::NAN);
    snap.set_histogram("lat", hist.snapshot());
    artifacts.push(("metrics snapshot", snap.to_json()));
    let record = RequestRecord {
        trace_id: 0xabc,
        method: "POST".to_owned(),
        path: "/compile".to_owned(),
        key_prefix: "0011223344556677".to_owned(),
        cache: "miss".to_owned(),
        status: 200,
        latency_us: 1234,
        stages: vec![("queue", 5), ("route", 1200)],
    };
    artifacts.push(("access-log line", record.to_json(false)));
    artifacts.push(("flight-recorder record", record.to_json(true)));

    // Live service endpoints plus the access log it writes.
    let log_path =
        std::env::temp_dir().join(format!("hcg-json-artifacts-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let handle = spawn(ServeConfig {
        access_log: Some(log_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let xml = hcg_model::parser::model_to_xml(&hcg_model::library::fig2_model());
    client::compile(handle.addr(), "", xml.as_bytes()).unwrap();
    let metrics = client::request(handle.addr(), "GET", "/metrics", b"").unwrap();
    artifacts.push(("GET /metrics", metrics.text()));
    let debug = client::request(handle.addr(), "GET", "/debug/requests", b"").unwrap();
    artifacts.push(("GET /debug/requests", debug.text()));
    handle.shutdown();
    let log_text = std::fs::read_to_string(&log_path).unwrap();
    assert!(!log_text.lines().next().unwrap_or("").is_empty());
    for (i, line) in log_text.lines().enumerate() {
        artifacts.push(("daemon access-log line", format!("{line}\n")));
        assert!(line.contains("\"trace_id\""), "log line {i} has a trace id");
    }
    let _ = std::fs::remove_file(&log_path);

    let failures: Vec<String> = artifacts
        .iter()
        .filter_map(|(name, body)| {
            hcg_obs::json::validate(body)
                .err()
                .map(|e| format!("{name}: {e:?}\n--- document ---\n{body}"))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} artifact(s) emit invalid JSON:\n{}",
        failures.len(),
        failures.join("\n\n")
    );
    // The table must actually have covered the live endpoints.
    assert!(artifacts.len() >= 19, "artifact table shrank unexpectedly");
}
