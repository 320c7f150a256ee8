//! The FFT implementation family of paper Figure 1: a naive DFT, a radix-2
//! FFT, a radix-4 FFT, a mixed-radix FFT (the "Mix-FFT" analogue, handling
//! any length via recursive Cooley–Tukey with naive DFTs at prime factors)
//! and Bluestein's chirp-z FFT. No single implementation wins at every input
//! scale — which is exactly why HCG's Algorithm 1 pre-calculates.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT (negative exponent).
    Forward,
    /// Inverse DFT (positive exponent, scaled by `1/n`).
    Inverse,
}

impl Direction {
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

fn post_scale(dir: Direction, out: &mut [Complex64]) {
    if dir == Direction::Inverse {
        let k = 1.0 / out.len() as f64;
        for v in out.iter_mut() {
            *v = v.scale(k);
        }
    }
}

/// The `n`-point twiddle table: entry `m` is `e^(sign·2πi·m/n)`.
///
/// Every transform below reads its twiddles from such tables, always
/// computed by this one expression, so an output's bits do not depend on
/// how a table is indexed. The table of an `n/2^e`-point transform is this
/// table read at stride `2^e`, bit for bit: scaling by a power of two
/// rounds nowhere, so `m·2^e` over `n` rounds as `m` over `n/2^e` does.
fn twiddle_table(sign: f64, n: usize) -> impl Iterator<Item = Complex64> {
    (0..n).map(move |m| Complex64::cis(sign * 2.0 * PI * m as f64 / n as f64))
}

/// A read-only view of a twiddle table: entry `m` is `table[m·stride]`.
#[derive(Clone, Copy)]
struct Twiddles<'a> {
    table: &'a [Complex64],
    stride: usize,
}

impl<'a> Twiddles<'a> {
    fn get(self, m: usize) -> Complex64 {
        self.table[m * self.stride]
    }

    /// The table of a transform `step` times shorter; exact when `step` is
    /// a power of two (see [`twiddle_table`]).
    fn every(self, step: usize) -> Twiddles<'a> {
        Twiddles {
            table: self.table,
            stride: self.stride * step,
        }
    }
}

/// Unscaled naive DFT of the `out.len()` points `x[0], x[stride], …` into
/// `out`, with `tw` the twiddle table of that length. The index `k·j mod n`
/// steps by addition.
fn dft_into(x: &[Complex64], stride: usize, out: &mut [Complex64], tw: Twiddles<'_>) {
    let n = out.len();
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        let mut m = 0;
        for j in 0..n {
            acc = acc + x[j * stride] * tw.get(m);
            m += k;
            if m >= n {
                m -= n;
            }
        }
        *slot = acc;
    }
}

/// Naive `O(n²)` DFT — the general implementation that handles any length
/// (and the correctness reference for every other FFT).
pub fn dft_naive(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let table: Vec<Complex64> = twiddle_table(dir.sign(), n).collect();
    let mut out = vec![Complex64::ZERO; n];
    let tw = Twiddles {
        table: &table,
        stride: 1,
    };
    dft_into(input, 1, &mut out, tw);
    post_scale(dir, &mut out);
    out
}

/// `true` when `n` is a power of two (the radix-2 filter of Algorithm 1
/// lines 12–13).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// `true` when `n` is a power of four.
pub fn is_pow4(n: usize) -> bool {
    is_pow2(n) && n.trailing_zeros().is_multiple_of(2)
}

/// Iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics when the length is not a power of two — callers filter via
/// [`is_pow2`] (Algorithm 1's `canHandleDataSize`).
pub fn fft_radix2(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    assert!(is_pow2(n), "radix-2 FFT requires power-of-two length");
    if n == 1 {
        return input.to_vec();
    }
    let mut a = input.to_vec();
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            a.swap(i, j);
        }
    }
    let sign = dir.sign();
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex64::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex64::ONE;
            for k in 0..len / 2 {
                let u = a[start + k];
                let v = a[start + k + len / 2] * w;
                a[start + k] = u + v;
                a[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    post_scale(dir, &mut a);
    a
}

/// Recursive radix-4 FFT (butterflies of four), the implementation the
/// paper's Figure-1 discussion selects for large power-of-four scales.
/// Every level reads its `w1` twiddles from one table of the top level and
/// transforms strided views of the input into slices of one output buffer.
///
/// # Panics
///
/// Panics when the length is not a power of four.
pub fn fft_radix4(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    assert!(is_pow4(n), "radix-4 FFT requires power-of-four length");
    let sign = dir.sign();
    // The top level's w1 = e^(sign·2πi·k/n), k < n/4.
    let table: Vec<Complex64> = twiddle_table(sign, n).take(n / 4).collect();
    let w1 = Twiddles {
        table: &table,
        stride: 1,
    };
    let mut out = vec![Complex64::ZERO; n];
    radix4_rec(input, 1, &mut out, w1, sign);
    post_scale(dir, &mut out);
    out
}

/// Transform `x[0], x[stride], …` into `out`: the four quarter transforms
/// land in the four quarters of `out`, and each butterfly reads and writes
/// the same four positions.
fn radix4_rec(x: &[Complex64], stride: usize, out: &mut [Complex64], w1: Twiddles<'_>, sign: f64) {
    let n = out.len();
    if n == 1 {
        out[0] = x[0];
        return;
    }
    let q = n / 4;
    if q == 1 {
        // Four one-point transforms: copies.
        for (r, v) in out.iter_mut().enumerate() {
            *v = x[r * stride];
        }
    } else {
        for (r, part) in out.chunks_exact_mut(q).enumerate() {
            radix4_rec(&x[r * stride..], 4 * stride, part, w1.every(4), sign);
        }
    }
    // j = e^(sign*i*pi/2): the radix-4 rotation.
    let jrot = Complex64::new(0.0, sign);
    for k in 0..q {
        let w1 = w1.get(k);
        let w2 = w1 * w1;
        let w3 = w2 * w1;
        let t0 = out[k];
        let t1 = out[k + q] * w1;
        let t2 = out[k + 2 * q] * w2;
        let t3 = out[k + 3 * q] * w3;
        let a0 = t0 + t2;
        let a1 = t0 - t2;
        let a2 = t1 + t3;
        let a3 = (t1 - t3) * jrot;
        out[k] = a0 + a2;
        out[k + q] = a1 + a3;
        out[k + 2 * q] = a0 - a2;
        out[k + 3 * q] = a1 - a3;
    }
}

/// Mixed-radix Cooley–Tukey FFT: factors the length recursively (smallest
/// factor first) and falls back to the naive DFT at prime factors — the
/// analogue of the paper's Mix-FFT, efficient for smooth lengths of any
/// radix and correct for every length.
///
/// Plans once per call: one twiddle table per transform size on the factor
/// chain, shared by every node of that size (sizes the top size divided by
/// a power of two read the top table at a stride). The recursion then
/// transforms strided views of the input into slices of one output buffer
/// and combines in place, allocating nothing per node.
pub fn fft_mixed(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    // A transform of at most one point is a copy.
    let mut out = input.to_vec();
    if n > 1 {
        let plan = MixedPlan::new(n, dir.sign());
        let mut scratch = vec![Complex64::ZERO; plan.max_radix];
        mixed_rec(&plan.tables, &plan.levels, input, 1, &mut out, &mut scratch);
    }
    post_scale(dir, &mut out);
    out
}

fn smallest_factor(n: usize) -> usize {
    for p in [2usize, 3, 5, 7] {
        if n.is_multiple_of(p) {
            return p;
        }
    }
    let mut f = 11;
    while f * f <= n {
        if n.is_multiple_of(f) {
            return f;
        }
        f += 2;
    }
    n
}

/// One transform size on the factor chain of [`fft_mixed`].
struct Level {
    /// The smallest factor of the size; equal to the size at the prime
    /// leaf.
    p: usize,
    /// Where the size's twiddle table starts in [`MixedPlan::tables`].
    offset: usize,
    /// The stride at which that table is read.
    stride: usize,
}

/// The factor chain of an `n`-point mixed-radix transform and its twiddle
/// tables.
struct MixedPlan {
    levels: Vec<Level>,
    tables: Vec<Complex64>,
    /// The largest radix of a combine step (the combine's scratch length).
    max_radix: usize,
}

impl MixedPlan {
    fn new(n: usize, sign: f64) -> MixedPlan {
        let mut tables: Vec<Complex64> = twiddle_table(sign, n).collect();
        let mut levels = Vec::new();
        let mut max_radix = 0;
        let mut s = n;
        loop {
            let p = smallest_factor(s);
            // Sizes n/2^e read the top table; every other size has its own.
            let (offset, stride) = if (n / s).is_power_of_two() {
                (0, n / s)
            } else {
                let offset = tables.len();
                tables.extend(twiddle_table(sign, s));
                (offset, 1)
            };
            levels.push(Level { p, offset, stride });
            if p == s {
                break;
            }
            max_radix = max_radix.max(p);
            s /= p;
        }
        MixedPlan {
            levels,
            tables,
            max_radix,
        }
    }
}

/// Transform the `out.len()` points `x[0], x[stride], …` into `out`, with
/// `levels[0]` describing that size. The `p` sub-transforms land in the
/// `p` consecutive slices of `out`; for each `k1` the combine reads
/// `out[r·m + k1]` and writes `out[k1 + k2·m]`, the same `p` positions, so
/// it runs in place through `scratch`. The index `r·k mod n` steps by
/// addition.
fn mixed_rec(
    tables: &[Complex64],
    levels: &[Level],
    x: &[Complex64],
    stride: usize,
    out: &mut [Complex64],
    scratch: &mut [Complex64],
) {
    let (level, rest) = levels.split_first().expect("a level per factor");
    let tw = Twiddles {
        table: &tables[level.offset..],
        stride: level.stride,
    };
    let (n, p) = (out.len(), level.p);
    if p == n {
        dft_into(x, stride, out, tw);
        return;
    }
    let m = n / p;
    for (r, sub) in out.chunks_exact_mut(m).enumerate() {
        mixed_rec(tables, rest, &x[r * stride..], p * stride, sub, scratch);
    }
    if p == 2 {
        // The general combine below, unrolled: r·k mod n is 0, then k.
        let (lo, hi) = out.split_at_mut(m);
        let w0 = tw.get(0);
        for (k1, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            let (v0, v1) = (*a * w0, *b);
            *a = Complex64::ZERO + v0 + v1 * tw.get(k1);
            *b = Complex64::ZERO + v0 + v1 * tw.get(k1 + m);
        }
        return;
    }
    let column = &mut scratch[..p];
    for k1 in 0..m {
        for (r, v) in column.iter_mut().enumerate() {
            *v = out[r * m + k1];
        }
        for k2 in 0..p {
            let k = k1 + k2 * m;
            let mut acc = Complex64::ZERO;
            let mut i = 0;
            for &v in column.iter() {
                acc = acc + v * tw.get(i);
                i += k;
                if i >= n {
                    i -= n;
                }
            }
            out[k] = acc;
        }
    }
}

/// Bluestein chirp-z FFT: any length in `O(n log n)` by re-expressing the
/// DFT as a convolution evaluated with power-of-two radix-2 FFTs. Heavier
/// constant factor than Cooley–Tukey — it loses at smooth sizes and wins at
/// large prime sizes.
pub fn fft_bluestein(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return input.to_vec();
    }
    let sign = dir.sign();
    // Chirp: w[k] = e^(sign*i*pi*k^2/n).
    let chirp: Vec<Complex64> = (0..n)
        .map(|k| {
            let kk = (k as u128 * k as u128) % (2 * n as u128);
            Complex64::cis(sign * PI * kk as f64 / n as f64)
        })
        .collect();
    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![Complex64::ZERO; m];
    for k in 0..n {
        a[k] = input[k] * chirp[k];
    }
    let mut b = vec![Complex64::ZERO; m];
    b[0] = chirp[0].conj();
    for k in 1..n {
        b[k] = chirp[k].conj();
        b[m - k] = chirp[k].conj();
    }
    let fa = fft_radix2(&a, Direction::Forward);
    let fb = fft_radix2(&b, Direction::Forward);
    let prod: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
    let conv = fft_radix2(&prod, Direction::Inverse);
    let mut out: Vec<Complex64> = (0..n).map(|k| conv[k] * chirp[k]).collect();
    post_scale(dir, &mut out);
    out
}

/// Analytic operation-count models (complex multiply-adds) used by the
/// deterministic cost meter; constants reflect the relative overheads of
/// each algorithm.
pub mod ops {
    /// Generic FFT: a table-driven any-length implementation with runtime
    /// twiddle computation and no size specialisation — the shape of the
    /// "generic function" a template-based code generator links in. Same
    /// asymptotic class as radix-2 with ~3x the constant.
    pub fn fft_generic(n: usize) -> u64 {
        3 * fft_radix2(n) + 32
    }

    use super::{is_pow2, is_pow4, smallest_factor};

    fn log2f(n: usize) -> f64 {
        (n.max(1) as f64).log2()
    }

    /// Naive DFT: `n²` complex MACs.
    pub fn dft_naive(n: usize) -> u64 {
        (n as u64).saturating_mul(n as u64)
    }

    /// Radix-2: `5·n·log2 n` real flops-ish.
    pub fn fft_radix2(n: usize) -> u64 {
        (5.0 * n as f64 * log2f(n)) as u64 + 16
    }

    /// Radix-4: ~25 % fewer multiplies than radix-2.
    pub fn fft_radix4(n: usize) -> u64 {
        (4.25 * n as f64 * log2f(n)) as u64 + 24
    }

    /// Mixed radix: `n · Σfactors` butterflies with a generic-twiddle
    /// constant (~3×) that loses to the specialised radix-2/radix-4
    /// kernels on pure power-of-two sizes but wins on large smooth
    /// composite sizes.
    pub fn fft_mixed(n: usize) -> u64 {
        let mut m = n;
        let mut factor_sum = 0u64;
        while m > 1 {
            let p = smallest_factor(m);
            factor_sum += p as u64;
            m /= p;
        }
        (n as u64).saturating_mul(factor_sum.max(1)) * 3 + 64
    }

    /// Bluestein: three radix-2 FFTs of the padded size plus chirps.
    pub fn fft_bluestein(n: usize) -> u64 {
        let m = (2 * n - 1).next_power_of_two();
        3 * fft_radix2(m) + 6 * n as u64 + 48
    }

    /// Sanity helper for tests.
    pub fn cheapest_for(n: usize) -> &'static str {
        let mut best = ("naive", dft_naive(n));
        for (name, c) in [
            ("radix2", if is_pow2(n) { fft_radix2(n) } else { u64::MAX }),
            ("radix4", if is_pow4(n) { fft_radix4(n) } else { u64::MAX }),
            ("mixed", fft_mixed(n)),
            ("bluestein", fft_bluestein(n)),
        ] {
            if c < best.1 {
                best = (name, c);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_diff;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex64::new((0.3 * t).sin() + 0.1 * t, (0.7 * t).cos() * 0.5)
            })
            .collect()
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = dft_naive(&x, Direction::Forward);
        for v in y {
            assert!((v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dft_linearity_constant_signal() {
        let x = vec![Complex64::ONE; 16];
        let y = dft_naive(&x, Direction::Forward);
        assert!((y[0].re - 16.0).abs() < 1e-9);
        for v in &y[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn radix2_matches_naive() {
        for n in [2usize, 4, 8, 64, 256] {
            let x = signal(n);
            let a = dft_naive(&x, Direction::Forward);
            let b = fft_radix2(&x, Direction::Forward);
            assert!(max_diff(&a, &b) < 1e-6, "n={n}: {}", max_diff(&a, &b));
        }
    }

    #[test]
    fn radix4_matches_naive() {
        for n in [4usize, 16, 64, 256] {
            let x = signal(n);
            let a = dft_naive(&x, Direction::Forward);
            let b = fft_radix4(&x, Direction::Forward);
            assert!(max_diff(&a, &b) < 1e-6, "n={n}");
        }
    }

    #[test]
    fn mixed_matches_naive_any_length() {
        for n in [1usize, 2, 3, 6, 12, 15, 30, 60, 100, 120, 13, 17] {
            let x = signal(n);
            let a = dft_naive(&x, Direction::Forward);
            let b = fft_mixed(&x, Direction::Forward);
            assert!(max_diff(&a, &b) < 1e-6, "n={n}: {}", max_diff(&a, &b));
        }
    }

    #[test]
    fn bluestein_matches_naive_any_length() {
        for n in [1usize, 2, 5, 7, 11, 13, 16, 31, 100] {
            let x = signal(n);
            let a = dft_naive(&x, Direction::Forward);
            let b = fft_bluestein(&x, Direction::Forward);
            assert!(max_diff(&a, &b) < 1e-6, "n={n}: {}", max_diff(&a, &b));
        }
    }

    #[test]
    fn inverse_recovers_signal_all_impls() {
        let x = signal(64);
        for (name, fwd, inv) in [
            (
                "radix2",
                fft_radix2(&x, Direction::Forward),
                fft_radix2 as fn(&[Complex64], Direction) -> Vec<Complex64>,
            ),
            ("radix4", fft_radix4(&x, Direction::Forward), fft_radix4),
            ("mixed", fft_mixed(&x, Direction::Forward), fft_mixed),
            (
                "bluestein",
                fft_bluestein(&x, Direction::Forward),
                fft_bluestein,
            ),
            ("naive", dft_naive(&x, Direction::Forward), dft_naive),
        ] {
            let back = inv(&fwd, Direction::Inverse);
            assert!(max_diff(&back, &x) < 1e-6, "{name}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let x = signal(128);
        let y = fft_radix2(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|v| v.abs() * v.abs()).sum();
        let ey: f64 = y.iter().map(|v| v.abs() * v.abs()).sum::<f64>() / 128.0;
        assert!((ex - ey).abs() / ex < 1e-9);
    }

    #[test]
    #[should_panic]
    fn radix2_rejects_non_pow2() {
        fft_radix2(&signal(12), Direction::Forward);
    }

    #[test]
    #[should_panic]
    fn radix4_rejects_non_pow4() {
        fft_radix4(&signal(8), Direction::Forward);
    }

    #[test]
    fn size_predicates() {
        assert!(is_pow2(1) && is_pow2(2) && is_pow2(1024));
        assert!(!is_pow2(0) && !is_pow2(12));
        assert!(is_pow4(1) && is_pow4(4) && is_pow4(256) && is_pow4(1024));
        assert!(!is_pow4(2) && !is_pow4(8) && !is_pow4(512));
    }

    #[test]
    fn op_models_have_figure1_shape() {
        // Tiny sizes: naive cheapest; large pow-4: radix-4 cheapest; large
        // prime: bluestein beats naive.
        assert_eq!(ops::cheapest_for(4), "naive");
        assert_eq!(ops::cheapest_for(1024), "radix4");
        assert!(ops::fft_bluestein(1009) < ops::dft_naive(1009));
        // Radix-2-only sizes pick radix2 over mixed at scale.
        assert_eq!(ops::cheapest_for(2048), "radix2");
    }

    #[test]
    fn empty_input_ok() {
        assert!(dft_naive(&[], Direction::Forward).is_empty());
        assert!(fft_bluestein(&[], Direction::Forward).is_empty());
        assert!(fft_mixed(&[], Direction::Forward).is_empty());
    }
}
