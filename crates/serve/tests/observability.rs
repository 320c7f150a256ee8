//! Observability-level service tests: trace-id assignment and
//! propagation, cross-thread span stitching, Prometheus exposition,
//! the flight recorder (including the 5xx dump path), the access log
//! and span losslessness across shutdown.

use hcg_fuzz::{generate_model, GenConfig};
use hcg_model::parser::model_to_xml;
use hcg_serve::{client, spawn, ServeConfig};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Tests that flip the process-global tracing flag serialize on this.
static TRACING_LOCK: Mutex<()> = Mutex::new(());

fn model_xml(seed: u64) -> String {
    model_to_xml(&generate_model(seed, &GenConfig::default()))
}

#[test]
fn responses_carry_a_trace_id_and_adopt_inbound_ones() {
    let handle = spawn(ServeConfig {
        trace_seed: Some(7),
        ..ServeConfig::default()
    })
    .unwrap();
    let xml = model_xml(3);

    // Server-assigned: 16 hex digits, distinct per request.
    let a = client::compile(handle.addr(), "", xml.as_bytes()).unwrap();
    let b = client::request(handle.addr(), "GET", "/health", b"").unwrap();
    let id_a = a.header("x-trace-id").expect("assigned").to_owned();
    let id_b = b.header("x-trace-id").expect("assigned").to_owned();
    assert_eq!(id_a.len(), 16);
    assert!(id_a.chars().all(|c| c.is_ascii_hexdigit()));
    assert_ne!(id_a, id_b);

    // Propagation: an inbound id is echoed back verbatim.
    let inbound = "00000000deadbeef";
    let c = client::request_with_headers(
        handle.addr(),
        "POST",
        "/compile",
        &[("X-Trace-Id", inbound)],
        xml.as_bytes(),
    )
    .unwrap();
    assert_eq!(c.header("x-trace-id"), Some(inbound));

    // A malformed inbound id falls back to a server-assigned one.
    let d = client::request_with_headers(
        handle.addr(),
        "GET",
        "/health",
        &[("X-Trace-Id", "not-a-trace-id")],
        b"",
    )
    .unwrap();
    let id_d = d.header("x-trace-id").unwrap();
    assert_ne!(id_d, "not-a-trace-id");
    assert_eq!(id_d.len(), 16);
    handle.shutdown();
}

#[test]
fn seeded_daemons_assign_reproducible_trace_ids() {
    let first_ids: Vec<String> = {
        let handle = spawn(ServeConfig {
            trace_seed: Some(99),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let ids = (0..3)
            .map(|_| {
                client::request(handle.addr(), "GET", "/health", b"")
                    .unwrap()
                    .header("x-trace-id")
                    .unwrap()
                    .to_owned()
            })
            .collect();
        handle.shutdown();
        ids
    };
    let handle = spawn(ServeConfig {
        trace_seed: Some(99),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let second_ids: Vec<String> = (0..3)
        .map(|_| {
            client::request(handle.addr(), "GET", "/health", b"")
                .unwrap()
                .header("x-trace-id")
                .unwrap()
                .to_owned()
        })
        .collect();
    handle.shutdown();
    assert_eq!(first_ids, second_ids, "same seed, same id sequence");
}

#[test]
fn one_request_spans_form_a_single_tree_across_threads() {
    let _guard = TRACING_LOCK.lock().unwrap();
    hcg_obs::clear_events();
    hcg_obs::set_tracing(true);
    let handle = spawn(ServeConfig {
        trace_seed: Some(5),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let xml = model_xml(11);
    let resp = client::compile(handle.addr(), "arch=neon128", xml.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    let trace_id =
        u64::from_str_radix(resp.header("x-trace-id").unwrap(), 16).expect("hex trace id");
    handle.shutdown();
    hcg_obs::set_tracing(false);

    let events = hcg_obs::take_events();
    let ours: Vec<_> = events.iter().filter(|e| e.trace_id == trace_id).collect();
    assert!(
        ours.len() >= 2,
        "expected accept + request spans at least, got {ours:?}"
    );

    // Exactly one root, and every other span's parent is inside the set:
    // a single tree.
    let ids: BTreeSet<u64> = ours.iter().map(|e| e.id).collect();
    let roots: Vec<_> = ours.iter().filter(|e| e.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one tree root, got {roots:?}");
    assert_eq!(
        roots[0].name, "accept",
        "the tree is rooted on the accept thread"
    );
    for e in &ours {
        if e.parent != 0 {
            assert!(
                ids.contains(&e.parent),
                "span {:?} parents outside the trace ({:x})",
                e.name,
                e.parent
            );
        }
    }

    // The tree spans threads: accept thread + worker thread.
    let tids: BTreeSet<u64> = ours.iter().map(|e| e.tid).collect();
    assert!(
        tids.len() >= 2,
        "spans must cross accept/queue/worker threads, saw tids {tids:?}"
    );
    assert!(
        ours.iter().any(|e| e.name == "request"),
        "worker-side request span missing"
    );
    assert!(
        ours.iter().any(|e| e.name.starts_with("compile/")),
        "compile span missing from the tree"
    );
}

#[test]
fn no_spans_are_lost_across_pool_shutdown() {
    let _guard = TRACING_LOCK.lock().unwrap();
    hcg_obs::clear_events();
    hcg_obs::set_tracing(true);
    const REQUESTS: usize = 6;
    let trace_ids: Vec<u64> = {
        let handle = spawn(ServeConfig {
            trace_seed: Some(13),
            workers: 3,
            ..ServeConfig::default()
        })
        .unwrap();
        let ids = (0..REQUESTS)
            .map(|_| {
                let resp = client::request(handle.addr(), "GET", "/health", b"").unwrap();
                u64::from_str_radix(resp.header("x-trace-id").unwrap(), 16).unwrap()
            })
            .collect();
        // Shutdown must flush every worker's buffered spans before
        // returning — the drain below runs immediately after.
        handle.shutdown();
        ids
    };
    hcg_obs::set_tracing(false);
    let events = hcg_obs::take_events();
    for trace_id in trace_ids {
        let count = events
            .iter()
            .filter(|e| e.trace_id == trace_id && e.name == "request")
            .count();
        assert_eq!(
            count, 1,
            "request span for trace {trace_id:x} lost across shutdown"
        );
    }
}

#[test]
fn metrics_scrape_in_prometheus_format_parses_cleanly() {
    let handle = spawn(ServeConfig::default()).unwrap();
    let xml = model_xml(17);
    client::compile(handle.addr(), "", xml.as_bytes()).unwrap();
    client::compile(handle.addr(), "", xml.as_bytes()).unwrap();

    let json = client::request(handle.addr(), "GET", "/metrics", b"").unwrap();
    assert_eq!(json.status, 200);
    assert_eq!(json.header("cache-control"), Some("no-store"));
    hcg_obs::json::validate(&json.text()).expect("default format stays JSON");
    assert!(json.text().contains("\"serve.request_latency_us\""));
    assert!(json.text().contains("\"serve.metrics_scrapes\""));

    let prom = client::request(handle.addr(), "GET", "/metrics?format=prometheus", b"").unwrap();
    assert_eq!(prom.status, 200);
    assert_eq!(prom.header("cache-control"), Some("no-store"));
    let text = prom.text();
    let doc = hcg_obs::prometheus::parse(&text).expect("prometheus exposition parses");
    assert!(doc.value("serve_requests").unwrap() >= 2.0);
    assert_eq!(
        doc.types
            .get("serve_request_latency_us")
            .map(String::as_str),
        Some("histogram"),
        "latency histogram exposed"
    );
    assert!(
        doc.value("serve_request_latency_us_count").unwrap() >= 2.0,
        "both compile requests recorded"
    );
    assert!(doc.value("serve_compile_latency_us_count").unwrap() >= 1.0);
    // The scrape counter observes scrapes themselves (this is the second).
    assert!(doc.value("serve_metrics_scrapes").unwrap() >= 2.0);
    // Sizes fall on eviction: exposing them as counters would make
    // `rate()` read every eviction as a counter reset.
    for family in [
        "serve_cache_entries",
        "serve_cache_bytes",
        "serve_cache_shards",
        "serve_session_entries",
    ] {
        assert_eq!(
            doc.types.get(family).map(String::as_str),
            Some("gauge"),
            "{family}"
        );
    }
    handle.shutdown();
}

#[test]
fn histograms_can_be_disabled() {
    let handle = spawn(ServeConfig {
        record_histograms: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let xml = model_xml(23);
    client::compile(handle.addr(), "", xml.as_bytes()).unwrap();
    let metrics = client::request(handle.addr(), "GET", "/metrics", b"").unwrap();
    assert!(
        !metrics.text().contains("serve.request_latency_us"),
        "no histograms when disabled"
    );
    handle.shutdown();
}

#[test]
fn flight_recorder_retains_requests_and_survives_a_5xx() {
    let handle = spawn(ServeConfig {
        flight_capacity: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let xml = model_xml(29);
    let miss = client::compile(handle.addr(), "", xml.as_bytes()).unwrap();
    let hit = client::compile(handle.addr(), "", xml.as_bytes()).unwrap();
    assert_eq!(miss.header("x-cache"), Some("miss"));
    assert_eq!(hit.header("x-cache"), Some("hit"));
    let key_prefix = miss.header("x-content-key").expect("key prefix header");
    assert_eq!(key_prefix.len(), 16);

    let debug = client::request(handle.addr(), "GET", "/debug/requests", b"").unwrap();
    assert_eq!(debug.status, 200);
    let text = debug.text();
    hcg_obs::json::validate(&text).expect("flight recorder serves valid JSON");
    assert!(text.contains(&format!("\"key\": \"{key_prefix}\"")));
    assert!(text.contains("\"cache\": \"miss\""));
    assert!(text.contains("\"cache\": \"hit\""));
    assert!(text.contains("\"stage\": \"queue\""));
    assert!(text.contains("\"stage\": \"route\""));

    // A route panic becomes a 500 (worker survives) and the failing
    // request lands in the recorder.
    let boom = client::request(handle.addr(), "POST", "/debug/panic", b"").unwrap();
    assert_eq!(boom.status, 500);
    assert!(boom.header("x-trace-id").is_some());
    let after = client::request(handle.addr(), "GET", "/debug/requests", b"").unwrap();
    assert_eq!(after.status, 200, "the daemon survived the panic");
    assert!(after.text().contains("\"status\": 500"));

    // Bounded: hammer more requests than capacity and count records.
    for _ in 0..8 {
        client::request(handle.addr(), "GET", "/health", b"").unwrap();
    }
    let full = client::request(handle.addr(), "GET", "/debug/requests", b"").unwrap();
    let records = full.text().matches("\"trace_id\"").count();
    assert_eq!(records, 4, "ring keeps exactly flight_capacity records");
    handle.shutdown();
}

#[test]
fn access_log_captures_every_completed_request() {
    let log_path =
        std::env::temp_dir().join(format!("hcg-serve-access-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    {
        let handle = spawn(ServeConfig {
            access_log: Some(log_path.clone()),
            trace_seed: Some(3),
            ..ServeConfig::default()
        })
        .unwrap();
        let xml = model_xml(31);
        let miss = client::compile(handle.addr(), "arch=avx256", xml.as_bytes()).unwrap();
        assert_eq!(miss.status, 200);
        client::compile(handle.addr(), "arch=avx256", xml.as_bytes()).unwrap();
        client::request(handle.addr(), "GET", "/health", b"").unwrap();
        handle.shutdown();
    }
    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one line per completed request");
    for line in &lines {
        hcg_obs::json::validate(line).expect("access log lines are valid JSON");
        assert!(line.contains("\"trace_id\""));
        assert!(line.contains("\"latency_us\""));
    }
    assert!(lines[0].contains("\"path\": \"/compile\""));
    assert!(lines[0].contains("\"cache\": \"miss\""));
    assert!(lines[1].contains("\"cache\": \"hit\""));
    assert!(lines[2].contains("\"path\": \"/health\""));
    assert!(lines[2].contains("\"cache\": \"-\""));
    let _ = std::fs::remove_file(&log_path);
}
