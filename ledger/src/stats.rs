//! Order statistics: the percentile rule, Python-compatible quartiles,
//! medians, geometric means and a fixed-size latency histogram.

/// The `p`-quantile (0 < p < 1) of ascending `sorted` by nearest rank:
/// the smallest sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond the `p`-quantile — the
/// rule for reporting a tail percentile at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n - (p * n as f64).ceil() as usize >= 10
}

/// Median of unsorted `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Sub-buckets per power of two in a [`Histogram`]: every bucket is at
/// most 1/256 of its lower edge wide.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above `2^TOP_BITS` (in nanoseconds, about 18 minutes)
/// share the last bucket.
const TOP_BITS: u32 = 40;
const BUCKETS: usize = ((TOP_BITS - SUB_BITS + 1) as u64 * SUB) as usize;

/// A log-linear histogram of non-negative integers: values below 512 are
/// counted exactly, larger ones in 256 buckets per power of two. Its size
/// is fixed, so it takes the same memory however many values it counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    fn index(v: u64) -> usize {
        let v = v.min((1 << TOP_BITS) - 1);
        if v < 2 * SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (u64::from(shift) * SUB + (v >> shift)) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < 2 * SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        (((i - shift * SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `p`-quantile by the nearest-rank rule of [`percentile`], placed
    /// within its bucket by its rank among the bucket's values. 0 when
    /// empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (lower, width) = Self::bucket(i);
                return lower + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("the counts sum to n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(19, 0.5) && tail_supported(20, 0.5));
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.99), 990.0);
        assert_eq!(sorted.len() - 990, 10, "ten samples lie beyond p99");
        assert_eq!(percentile(&sorted, 0.5), 500.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [-0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        let mut edge = 0.0;
        for i in 0..BUCKETS {
            let (lower, width) = Histogram::bucket(i);
            assert_eq!(lower, edge, "bucket {i} starts where {} ends", i.max(1) - 1);
            assert_eq!(Histogram::index(lower as u64), i);
            assert_eq!(Histogram::index((lower + width) as u64 - 1), i);
            assert!(width <= 1.0_f64.max(lower / SUB as f64));
            edge = lower + width;
        }
        assert_eq!(edge, (1u64 << TOP_BITS) as f64);
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_follow_the_nearest_rank() {
        // Small values are exact: the quantile lies in the value's unit bucket.
        let mut h = Histogram::new();
        (1..=1000).for_each(|v| h.record(v));
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile(0.99).floor(), 990.0);
        assert_eq!(h.quantile(0.5).floor(), 500.0);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);

        // Large values land within a bucket's width (1/256) of the exact
        // nearest-rank percentile, and merging equals recording once.
        let values: Vec<u64> = (0..5000u64)
            .map(|i| 40_000 + i * i * 7 % 9_000_000)
            .collect();
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for (i, &v) in values.iter().enumerate() {
            if i % 3 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        sorted.sort_by(f64::total_cmp);
        for p in [0.01, 0.5, 0.9, 0.99] {
            let exact = percentile(&sorted, p);
            assert!(
                (all.quantile(p) - exact).abs() <= exact / SUB as f64,
                "p{p}: {} vs {exact}",
                all.quantile(p)
            );
        }
    }
}
