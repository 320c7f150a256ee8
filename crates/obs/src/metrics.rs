//! The metrics export schema: named counters, gauges and log-bucketed
//! histogram snapshots with stable sorted-key JSON output.

use crate::hist::HistogramSnapshot;
use crate::json::{self, Value};
use std::collections::BTreeMap;

/// One metric value: a monotonic counter or a last-write-wins gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count (events, items, cycles).
    Counter(u64),
    /// Point-in-time measurement (seconds, ratios, worker counts).
    Gauge(f64),
}

/// Counters render as integers, gauges in `f64` shortest-round-trip form
/// (stable for a given value), non-finite gauges as `null`.
impl Value for MetricValue {
    fn write_json(&self, out: &mut String) {
        match *self {
            MetricValue::Counter(c) => c.write_json(out),
            MetricValue::Gauge(g) => g.write_json(out),
        }
    }
}

/// A point-in-time metric set, built by hand where telemetry leaves the
/// process (`GET /metrics`, the fuzz report). Keys iterate and render in
/// sorted order, so JSON output is byte-stable for equal content.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a counter value (used when building report telemetry by hand).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.values
            .insert(name.to_owned(), MetricValue::Counter(value));
    }

    /// Set a gauge value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.values
            .insert(name.to_owned(), MetricValue::Gauge(value));
    }

    /// Store a histogram snapshot under `name`.
    pub fn set_histogram(&mut self, name: &str, hist: HistogramSnapshot) {
        self.histograms.insert(name.to_owned(), hist);
    }

    /// Iterate `(name, histogram)` in sorted-key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate `(name, value)` in sorted-key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// A JSON object with one member per metric, keys sorted — byte-stable
    /// for equal content. Histograms render as nested objects (see
    /// [`HistogramSnapshot::to_json`]); on a name clash the histogram
    /// wins.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl Value for MetricsSnapshot {
    fn write_json(&self, out: &mut String) {
        let mut members: BTreeMap<&str, &dyn Value> = self
            .values
            .iter()
            .map(|(k, v)| (k.as_str(), v as &dyn Value))
            .collect();
        for (k, h) in &self.histograms {
            members.insert(k.as_str(), h);
        }
        json::object(out, |o| {
            for (k, v) in members {
                o.field(k, v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn setters_overwrite_and_the_later_kind_wins() {
        let mut s = MetricsSnapshot::new();
        s.set_counter("jobs", 3);
        s.set_counter("jobs", 7);
        s.set_gauge("workers", 8.0);
        s.set_counter("workers", 2);
        let values: Vec<_> = s.iter().collect();
        assert_eq!(
            values,
            [
                ("jobs", MetricValue::Counter(7)),
                ("workers", MetricValue::Counter(2))
            ]
        );
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut s = MetricsSnapshot::new();
        s.set_gauge("b.ratio", 1.5);
        s.set_counter("a.count", 2);
        let j = s.to_json();
        assert_eq!(j, "{\"a.count\": 2, \"b.ratio\": 1.5}");
        assert_eq!(j, s.clone().to_json());
        assert!(crate::json::validate(&j).is_ok());
    }

    #[test]
    fn non_finite_gauges_render_null() {
        let mut s = MetricsSnapshot::new();
        s.set_gauge("bad", f64::NAN);
        assert!(crate::json::validate(&s.to_json()).is_ok());
        assert!(s.to_json().contains("null"));
    }

    #[test]
    fn histograms_render_nested_and_win_name_clashes() {
        let h = Histogram::new();
        h.record(8);
        let mut s = MetricsSnapshot::new();
        s.set_counter("lat", 1);
        s.set_histogram("lat", h.snapshot());
        let j = s.to_json();
        assert!(j.starts_with("{\"lat\": {\"count\": 1,"), "{j}");
        assert!(crate::json::validate(&j).is_ok());
    }
}
