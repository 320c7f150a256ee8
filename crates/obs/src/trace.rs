//! Trace exporters: Chrome trace-event JSON (loadable in `chrome://tracing`
//! and Perfetto) and a compact indented text tree.

use crate::json;
use crate::span::SpanEvent;

/// Render events as Chrome trace-event JSON: an object with a
/// `traceEvents` array of complete (`"ph": "X"`) events, timestamps and
/// durations in microseconds. Load the file in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.array("traceEvents", |a| {
            for e in events {
                a.object(|o| {
                    o.field("name", &e.name)
                        .field("cat", e.cat)
                        .field("ph", "X")
                        .field("ts", e.start_us)
                        .field("dur", e.dur_us)
                        .field("pid", 1u32)
                        .field("tid", e.tid)
                        .object("args", |o| {
                            o.field("trace_id", e.trace_id).field("parent", e.parent);
                        });
                });
            }
        });
    });
    out
}

/// Render events as an indented text tree, one block per thread, nested by
/// span depth — the terminal-friendly alternative to the JSON trace.
pub fn render_tree(events: &[SpanEvent]) -> String {
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut out = String::new();
    for tid in tids {
        out.push_str(&format!("thread {tid}\n"));
        let mut thread_events: Vec<&SpanEvent> = events.iter().filter(|e| e.tid == tid).collect();
        // Within a thread, ids are sequential in open order, which is the
        // natural tree order (parents open before their children).
        thread_events.sort_by_key(|e| e.id);
        for e in thread_events {
            let indent = "  ".repeat(e.depth as usize + 1);
            out.push_str(&format!(
                "{indent}{} [{}] {:.3} ms\n",
                e.name,
                e.cat,
                e.dur_us as f64 / 1000.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64, name: &str, tid: u64, depth: u32, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            id,
            name: name.to_owned(),
            cat: "test",
            tid,
            depth,
            start_us,
            dur_us,
            trace_id: 7,
            parent: 0,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_fields() {
        let events = vec![
            event(0, "outer \"quoted\"", 0, 0, 10, 100),
            event(1, "inner", 0, 1, 20, 30),
        ];
        let j = chrome_trace_json(&events);
        crate::json::validate(&j).expect("trace must be well-formed JSON");
        assert!(j.starts_with("{\"traceEvents\": ["));
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("\"ts\": 10"));
        assert!(j.contains("\"dur\": 30"));
        assert!(j.contains("outer \\\"quoted\\\""));
        assert!(j.contains("\"trace_id\": 7"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let j = chrome_trace_json(&[]);
        crate::json::validate(&j).unwrap();
        assert_eq!(j, "{\"traceEvents\": []}");
    }

    #[test]
    fn tree_groups_by_thread_and_indents_by_depth() {
        let events = vec![
            event(0, "a", 0, 0, 0, 2000),
            event(1, "b", 0, 1, 5, 1000),
            event(1 << 32, "c", 1, 0, 7, 500),
        ];
        let t = render_tree(&events);
        assert!(t.contains("thread 0\n  a [test] 2.000 ms\n    b [test] 1.000 ms\n"));
        assert!(t.contains("thread 1\n  c [test] 0.500 ms\n"));
    }
}
