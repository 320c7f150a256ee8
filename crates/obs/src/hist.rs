//! Lock-minimal log-bucketed histograms.
//!
//! A [`Histogram`] spreads `u64` samples over 65 fixed power-of-two
//! buckets: bucket 0 holds exact zeros and bucket *i* (1 ≤ *i* ≤ 64)
//! holds values whose bit length is *i*, i.e. the range
//! `[2^(i-1), 2^i - 1]`. Recording is wait-free — one relaxed
//! `fetch_add` on the bucket plus one each on the count and sum — so the
//! serve hot path can record every request without a lock. Snapshots
//! ([`HistogramSnapshot`]) are plain data: quantile-estimating and
//! rendered as stable JSON or Prometheus text.

use crate::json::{self, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per possible bit length.
pub const BUCKETS: usize = 65;

/// The bucket index for `value` (its bit length; 0 for an exact zero).
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, …,
/// `u64::MAX`).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    debug_assert!(i < BUCKETS);
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The inclusive lower bound of bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i <= 1 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A concurrent log-bucketed histogram of `u64` samples.
///
/// All methods take `&self`; every mutation is a relaxed atomic, so one
/// instance can be shared (e.g. behind an `Arc`) by every worker thread
/// of a server. Counts are monotonic; `sum` wraps on overflow (beyond
/// ~1.8e19 microseconds of accumulated latency, which no benchmark
/// reaches).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the array element by element.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample (three relaxed `fetch_add`s, no lock).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recorders may land between the
    /// bucket reads, so a snapshot is consistent to within the samples in
    /// flight at the instant of the call — exact once recording stops.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        // Read count/sum after the buckets so `count >= Σ buckets` holds
        // even while recorders race the snapshot.
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable point-in-time copy of a [`Histogram`] — the form that
/// goes into a [`crate::MetricsSnapshot`] and renders as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper`] for bounds).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket holding the target sample. Exact for values that
    /// fall on bucket bounds; within one power of two otherwise. Returns
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The rank of the target sample, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                let within = (target - seen) as f64 / n as f64;
                return (lo + (hi - lo) * within) as u64;
            }
            seen += n;
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Iterate `(inclusive upper bound, count)` over non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper(i), n))
    }

    /// A stable JSON object: count, sum, mean, p50/p90/p99, and the
    /// non-empty buckets as `{"le": upper, "n": count}` records in
    /// ascending bound order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl Value for HistogramSnapshot {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("count", self.count)
                .field("sum", self.sum)
                .field("mean", json::Fixed(self.mean(), 1))
                .field("p50", self.quantile(0.50))
                .field("p90", self.quantile(0.90))
                .field("p99", self.quantile(0.99))
                .array("buckets", |a| {
                    for (le, n) in self.nonzero_buckets() {
                        a.object(|b| {
                            b.field("le", le).field("n", n);
                        });
                    }
                });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            // Every bucket's bounds map back into the bucket.
            assert_eq!(bucket_of(bucket_upper(i)), i);
            if i > 0 {
                assert_eq!(bucket_of(bucket_lower(i).max(1)), i.max(1));
            }
        }
    }

    #[test]
    fn record_count_sum_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 1000, 1000, 10_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 113_106);
        // p50 lands in the 513..=1023 bucket (the three 1000s start at
        // rank 6); interpolation keeps it within the bucket bounds.
        let p50 = s.quantile(0.5);
        assert!((64..=1023).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile(0.99);
        assert!((65_536..=131_071).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(0.0), 0);
        assert!(s.quantile(1.0) >= 65_536);
        assert!((s.mean() - 11_310.6).abs() < 0.1);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(
            s.to_json(),
            "{\"count\": 0, \"sum\": 0, \"mean\": 0.0, \"p50\": 0, \"p90\": 0, \"p99\": 0, \"buckets\": []}"
        );
        crate::json::validate(&s.to_json()).unwrap();
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn json_is_stable_and_valid() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 900] {
            h.record(v);
        }
        let s = h.snapshot();
        let j = s.to_json();
        assert_eq!(j, h.snapshot().to_json());
        crate::json::validate(&j).unwrap();
        assert!(j.contains("\"le\": 1, \"n\": 2"));
        assert!(j.contains("\"le\": 1023, \"n\": 1"));
    }
}
