//! The code library (paper Algorithm 1, `loadCodeLibrary`): a one-to-many
//! map from intensive computing actor type to candidate implementations,
//! each with its input filters (`canHandleDataType` / `canHandleDataSize`),
//! an executable body, and an analytic operation count.

use crate::complex::{from_interleaved, to_interleaved, Complex64};
use crate::conv::{conv2d_direct, conv_direct, conv_fft, conv_generic};
use crate::dct::{dct2_2d, dct2_fft, dct2_naive, dct3_fft, dct3_naive};
use crate::fft::{
    dft_naive, fft_bluestein, fft_mixed, fft_radix2, fft_radix4, is_pow2, is_pow4, Direction,
};
use crate::matrix::{
    det_analytic, det_lu, inv_analytic, inv_gauss, matmul_general, matmul_unrolled,
};
use crate::{conv, dct, fft, matrix};
use hcg_model::{ActorKind, DataType, Shape, SignalType, Tensor};
use std::fmt;

/// Error from running a kernel implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelError(pub String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel error: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

fn kerr(msg: impl Into<String>) -> KernelError {
    KernelError(msg.into())
}

/// The size signature of an intensive actor instance — the `DataSize` input
/// of Algorithm 1. One entry per dimension that affects implementation
/// choice:
///
/// * `FFT`/`IFFT`/`DCT`/`IDCT`: `[n]`
/// * `Conv`: `[n, k]`
/// * `MatMul`: `[r, k, c]`
/// * `MatInv`/`MatDet`: `[n]`
/// * `FFT2D`/`DCT2D`: `[rows, cols]`
/// * `Conv2D`: `[r1, c1, r2, c2]`
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelSize(pub Vec<usize>);

impl KernelSize {
    /// Derive the size signature from an actor's resolved input types.
    ///
    /// Returns `None` for non-intensive kinds or shape mismatches (which
    /// model validation rejects anyway).
    pub fn from_inputs(kind: ActorKind, inputs: &[SignalType]) -> Option<KernelSize> {
        use ActorKind::*;
        Some(KernelSize(match kind {
            Fft | Dct | Idct => vec![inputs.first()?.len()],
            Ifft => vec![inputs.first()?.len() / 2],
            Conv => vec![inputs.first()?.len(), inputs.get(1)?.len()],
            MatMul => {
                let (r, k) = mat_dims(inputs.first()?)?;
                let (_, c) = mat_dims(inputs.get(1)?)?;
                vec![r, k, c]
            }
            MatInv | MatDet => {
                let (r, _) = mat_dims(inputs.first()?)?;
                vec![r]
            }
            Fft2d | Dct2d => {
                let (r, c) = mat_dims(inputs.first()?)?;
                vec![r, c]
            }
            Conv2d => {
                let (r1, c1) = mat_dims(inputs.first()?)?;
                let (r2, c2) = mat_dims(inputs.get(1)?)?;
                vec![r1, c1, r2, c2]
            }
            _ => return None,
        }))
    }
}

fn mat_dims(t: &SignalType) -> Option<(usize, usize)> {
    match t.shape {
        Shape::Matrix(r, c) => Some((r, c)),
        _ => None,
    }
}

impl fmt::Display for KernelSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("x")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// One implementation in the code library.
#[derive(Clone)]
pub struct Kernel {
    /// Implementation name, unique within its actor kind (e.g. `radix4`).
    pub name: &'static str,
    /// Actor type implemented.
    pub actor: ActorKind,
    /// `true` for the fallback that handles every size (Algorithm 1 line 8,
    /// `getGeneralImplementation`).
    pub general: bool,
    can_size: fn(&KernelSize) -> bool,
    run_fn: fn(&[Tensor]) -> Result<Tensor, KernelError>,
    ops_fn: fn(&KernelSize) -> u64,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel({}::{})", self.actor, self.name)
    }
}

impl Kernel {
    /// `canHandleDataType` of Algorithm 1: intensive kernels operate on
    /// floating-point signals.
    pub fn can_handle_dtype(&self, dtype: DataType) -> bool {
        dtype.is_float()
    }

    /// `canHandleDataSize` of Algorithm 1.
    pub fn can_handle_size(&self, size: &KernelSize) -> bool {
        (self.can_size)(size)
    }

    /// Execute on runtime inputs.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] on malformed inputs (wrong arity/shape) or
    /// numerically impossible requests (singular matrix inversion).
    pub fn run(&self, inputs: &[Tensor]) -> Result<Tensor, KernelError> {
        (self.run_fn)(inputs)
    }

    /// Analytic operation count at a given size (the deterministic cost
    /// measure).
    pub fn op_count(&self, size: &KernelSize) -> u64 {
        (self.ops_fn)(size)
    }
}

// ---- tensor plumbing shared by the kernel bodies ----

fn one_input(inputs: &[Tensor]) -> Result<&Tensor, KernelError> {
    match inputs {
        [x] => Ok(x),
        other => Err(kerr(format!("expected 1 input, got {}", other.len()))),
    }
}

fn two_inputs(inputs: &[Tensor]) -> Result<(&Tensor, &Tensor), KernelError> {
    match inputs {
        [x, y] => Ok((x, y)),
        other => Err(kerr(format!("expected 2 inputs, got {}", other.len()))),
    }
}

fn out_tensor(dtype: DataType, data: Vec<f64>) -> Result<Tensor, KernelError> {
    let n = data.len();
    let ty = if n == 1 {
        SignalType::scalar(dtype)
    } else {
        SignalType::vector(dtype, n)
    };
    Tensor::from_f64(ty, data).map_err(|e| kerr(e.to_string()))
}

fn out_matrix(
    dtype: DataType,
    rows: usize,
    cols: usize,
    data: Vec<f64>,
) -> Result<Tensor, KernelError> {
    Tensor::from_f64(SignalType::matrix(dtype, rows, cols), data).map_err(|e| kerr(e.to_string()))
}

fn real_to_complex(x: &Tensor) -> Vec<Complex64> {
    x.as_f64()
        .into_iter()
        .map(|r| Complex64::new(r, 0.0))
        .collect()
}

/// An error unless `accepts` takes length `n`: a kernel run outside its
/// size filter returns this instead of reaching the transform's assert.
fn check_len(accepts: fn(usize) -> bool, n: usize) -> Result<(), KernelError> {
    if accepts(n) {
        Ok(())
    } else {
        Err(kerr(format!("length {n} is outside this kernel's sizes")))
    }
}

fn fft_body(
    f: fn(&[Complex64], Direction) -> Vec<Complex64>,
    accepts: fn(usize) -> bool,
) -> impl Fn(&[Tensor]) -> Result<Tensor, KernelError> {
    move |inputs| {
        let x = one_input(inputs)?;
        check_len(accepts, x.len())?;
        let spec = f(&real_to_complex(x), Direction::Forward);
        out_tensor(x.ty.dtype, to_interleaved(&spec))
    }
}

fn ifft_body(
    f: fn(&[Complex64], Direction) -> Vec<Complex64>,
    accepts: fn(usize) -> bool,
) -> impl Fn(&[Tensor]) -> Result<Tensor, KernelError> {
    move |inputs| {
        let x = one_input(inputs)?;
        let data = x.as_f64();
        if data.len() % 2 != 0 {
            return Err(kerr("IFFT input must be interleaved complex"));
        }
        check_len(accepts, data.len() / 2)?;
        let time = f(&from_interleaved(&data), Direction::Inverse);
        out_tensor(x.ty.dtype, time.iter().map(|c| c.re).collect())
    }
}

// Monomorphic wrappers (fn pointers can't capture, so each implementation
// gets a thin named function).
macro_rules! fft_kernels {
    ($(($fwd:ident, $inv:ident, $core:path, $accepts:path)),* $(,)?) => {
        $(
            fn $fwd(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
                fft_body($core, $accepts)(inputs)
            }
            fn $inv(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
                ifft_body($core, $accepts)(inputs)
            }
        )*
    };
}

fn any_len(_: usize) -> bool {
    true
}

fft_kernels!(
    (run_fft_naive, run_ifft_naive, dft_naive, any_len),
    (run_fft_radix2, run_ifft_radix2, fft_radix2, is_pow2),
    (run_fft_radix4, run_ifft_radix4, fft_radix4, is_pow4),
    (run_fft_mixed, run_ifft_mixed, fft_mixed, any_len),
    (
        run_fft_bluestein,
        run_ifft_bluestein,
        fft_bluestein,
        any_len
    ),
);

fn run_dct_naive(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    out_tensor(x.ty.dtype, dct2_naive(&x.as_f64()))
}

fn run_dct_fft(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    out_tensor(x.ty.dtype, dct2_fft(&x.as_f64()))
}

fn run_idct_naive(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    out_tensor(x.ty.dtype, dct3_naive(&x.as_f64()))
}

fn run_idct_fft(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    out_tensor(x.ty.dtype, dct3_fft(&x.as_f64()))
}

fn run_conv_generic(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let (x, h) = two_inputs(inputs)?;
    out_tensor(x.ty.dtype, conv_generic(&x.as_f64(), &h.as_f64()))
}

fn run_conv_direct(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let (x, h) = two_inputs(inputs)?;
    out_tensor(x.ty.dtype, conv_direct(&x.as_f64(), &h.as_f64()))
}

fn run_conv_fft(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let (x, h) = two_inputs(inputs)?;
    out_tensor(x.ty.dtype, conv_fft(&x.as_f64(), &h.as_f64()))
}

fn tensor_mat_dims(t: &Tensor) -> Result<(usize, usize), KernelError> {
    match t.ty.shape {
        Shape::Matrix(r, c) => Ok((r, c)),
        other => Err(kerr(format!("expected matrix, got {other}"))),
    }
}

fn run_conv2d_direct(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let (x, h) = two_inputs(inputs)?;
    let d1 = tensor_mat_dims(x)?;
    let d2 = tensor_mat_dims(h)?;
    let out = conv2d_direct(&x.as_f64(), d1, &h.as_f64(), d2);
    out_matrix(x.ty.dtype, d1.0 + d2.0 - 1, d1.1 + d2.1 - 1, out)
}

#[allow(clippy::needless_range_loop)] // j indexes the transposed dimension
fn run_fft2d_rowcol(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    let (r, c) = tensor_mat_dims(x)?;
    let data = x.as_f64();
    // Rows: real → complex.
    let mut rows: Vec<Vec<Complex64>> = (0..r)
        .map(|i| {
            let row: Vec<Complex64> = data[i * c..(i + 1) * c]
                .iter()
                .map(|&v| Complex64::new(v, 0.0))
                .collect();
            fft_mixed(&row, Direction::Forward)
        })
        .collect();
    // Columns on the complex intermediate.
    for j in 0..c {
        let col: Vec<Complex64> = (0..r).map(|i| rows[i][j]).collect();
        let t = fft_mixed(&col, Direction::Forward);
        for i in 0..r {
            rows[i][j] = t[i];
        }
    }
    let mut out = Vec::with_capacity(r * 2 * c);
    for row in &rows {
        out.extend(to_interleaved(row));
    }
    out_matrix(x.ty.dtype, r, 2 * c, out)
}

#[allow(clippy::needless_range_loop)] // j indexes the transposed dimension
fn run_fft2d_rowcol_radix2(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    let (r, c) = tensor_mat_dims(x)?;
    check_len(is_pow2, r)?;
    check_len(is_pow2, c)?;
    let data = x.as_f64();
    let mut rows: Vec<Vec<Complex64>> = (0..r)
        .map(|i| {
            let row: Vec<Complex64> = data[i * c..(i + 1) * c]
                .iter()
                .map(|&v| Complex64::new(v, 0.0))
                .collect();
            fft_radix2(&row, Direction::Forward)
        })
        .collect();
    for j in 0..c {
        let col: Vec<Complex64> = (0..r).map(|i| rows[i][j]).collect();
        let t = fft_radix2(&col, Direction::Forward);
        for i in 0..r {
            rows[i][j] = t[i];
        }
    }
    let mut out = Vec::with_capacity(r * 2 * c);
    for row in &rows {
        out.extend(to_interleaved(row));
    }
    out_matrix(x.ty.dtype, r, 2 * c, out)
}

#[allow(clippy::needless_range_loop)] // j indexes the transposed dimension
fn run_dct2d_rowcol_naive(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    let (r, c) = tensor_mat_dims(x)?;
    let data = x.as_f64();
    // Rows then columns with the naive 1-D transform.
    let mut tmp = vec![0.0; r * c];
    for i in 0..r {
        tmp[i * c..(i + 1) * c].copy_from_slice(&crate::dct::dct2_naive(&data[i * c..(i + 1) * c]));
    }
    let mut out = vec![0.0; r * c];
    for j in 0..c {
        let col: Vec<f64> = (0..r).map(|i| tmp[i * c + j]).collect();
        let t = crate::dct::dct2_naive(&col);
        for i in 0..r {
            out[i * c + j] = t[i];
        }
    }
    out_matrix(x.ty.dtype, r, c, out)
}

fn run_dct2d_rowcol(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    let (r, c) = tensor_mat_dims(x)?;
    out_matrix(x.ty.dtype, r, c, dct2_2d(&x.as_f64(), r, c))
}

fn run_matmul_general(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let (a, b) = two_inputs(inputs)?;
    let (r, k) = tensor_mat_dims(a)?;
    let (k2, c) = tensor_mat_dims(b)?;
    if k != k2 {
        return Err(kerr("inner dimension mismatch"));
    }
    let out = matmul_general(&a.as_f64(), &b.as_f64(), r, k, c).map_err(|e| kerr(e.to_string()))?;
    out_matrix(a.ty.dtype, r, c, out)
}

fn run_matmul_unrolled(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let (a, b) = two_inputs(inputs)?;
    let (r, _) = tensor_mat_dims(a)?;
    let out = matmul_unrolled(&a.as_f64(), &b.as_f64(), r).map_err(|e| kerr(e.to_string()))?;
    out_matrix(a.ty.dtype, r, r, out)
}

fn run_inv_analytic(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    let (n, _) = tensor_mat_dims(x)?;
    let out = inv_analytic(&x.as_f64(), n).map_err(|e| kerr(e.to_string()))?;
    out_matrix(x.ty.dtype, n, n, out)
}

fn run_inv_gauss(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    let (n, _) = tensor_mat_dims(x)?;
    let out = inv_gauss(&x.as_f64(), n).map_err(|e| kerr(e.to_string()))?;
    out_matrix(x.ty.dtype, n, n, out)
}

fn run_det_analytic(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    let (n, _) = tensor_mat_dims(x)?;
    let d = det_analytic(&x.as_f64(), n).map_err(|e| kerr(e.to_string()))?;
    out_tensor(x.ty.dtype, vec![d])
}

fn run_det_lu(inputs: &[Tensor]) -> Result<Tensor, KernelError> {
    let x = one_input(inputs)?;
    let (n, _) = tensor_mat_dims(x)?;
    let d = det_lu(&x.as_f64(), n).map_err(|e| kerr(e.to_string()))?;
    out_tensor(x.ty.dtype, vec![d])
}

// ---- size filters ----

fn any_size(_: &KernelSize) -> bool {
    true
}

fn size_pow2(s: &KernelSize) -> bool {
    s.0.first().is_some_and(|&n| is_pow2(n))
}

fn size_pow4(s: &KernelSize) -> bool {
    s.0.first().is_some_and(|&n| is_pow4(n))
}

fn size_dims_pow2(s: &KernelSize) -> bool {
    s.0.iter().take(2).all(|&d| is_pow2(d))
}

fn size_square_2_to_4(s: &KernelSize) -> bool {
    matches!(s.0.as_slice(), [r, k, c] if r == k && k == c && (2..=4).contains(r))
}

fn size_n_1_to_4(s: &KernelSize) -> bool {
    s.0.first().is_some_and(|&n| (1..=4).contains(&n))
}

// ---- op-count adapters ----

fn size_dim(s: &KernelSize, i: usize) -> usize {
    s.0.get(i).copied().unwrap_or(1)
}

macro_rules! ops1 {
    ($name:ident, $f:path) => {
        fn $name(s: &KernelSize) -> u64 {
            $f(size_dim(s, 0))
        }
    };
}

ops1!(ops_fft_generic, fft::ops::fft_generic);
ops1!(ops_fft_naive, fft::ops::dft_naive);
ops1!(ops_fft_radix2, fft::ops::fft_radix2);
ops1!(ops_fft_radix4, fft::ops::fft_radix4);
ops1!(ops_fft_mixed, fft::ops::fft_mixed);
ops1!(ops_fft_bluestein, fft::ops::fft_bluestein);
ops1!(ops_dct_generic, dct::ops::dct_generic);
ops1!(ops_dct_naive, dct::ops::dct_naive);
ops1!(ops_dct_fft, dct::ops::dct_fft);
ops1!(ops_inv_analytic, matrix::ops::inv_analytic);
ops1!(ops_inv_gauss, matrix::ops::inv_gauss);
ops1!(ops_det_analytic, matrix::ops::det_analytic);
ops1!(ops_det_lu, matrix::ops::det_lu);

fn ops_conv_generic(s: &KernelSize) -> u64 {
    conv::ops::conv_generic(size_dim(s, 0), size_dim(s, 1))
}

fn ops_conv_direct(s: &KernelSize) -> u64 {
    conv::ops::conv_direct(size_dim(s, 0), size_dim(s, 1))
}

fn ops_conv_fft(s: &KernelSize) -> u64 {
    conv::ops::conv_fft(size_dim(s, 0), size_dim(s, 1))
}

fn ops_conv2d(s: &KernelSize) -> u64 {
    conv::ops::conv2d_direct(
        size_dim(s, 0),
        size_dim(s, 1),
        size_dim(s, 2),
        size_dim(s, 3),
    )
}

fn ops_matmul_general(s: &KernelSize) -> u64 {
    matrix::ops::matmul_general(size_dim(s, 0), size_dim(s, 1), size_dim(s, 2))
}

fn ops_matmul_unrolled(s: &KernelSize) -> u64 {
    matrix::ops::matmul_unrolled(size_dim(s, 0))
}

fn ops_fft2d(s: &KernelSize) -> u64 {
    let (r, c) = (size_dim(s, 0), size_dim(s, 1));
    r as u64 * fft::ops::fft_mixed(c) + c as u64 * fft::ops::fft_mixed(r)
}

fn ops_fft2d_radix2(s: &KernelSize) -> u64 {
    let (r, c) = (size_dim(s, 0), size_dim(s, 1));
    r as u64 * fft::ops::fft_radix2(c) + c as u64 * fft::ops::fft_radix2(r)
}

fn ops_dct2d_naive(s: &KernelSize) -> u64 {
    let (r, c) = (size_dim(s, 0), size_dim(s, 1));
    r as u64 * dct::ops::dct_naive(c) + c as u64 * dct::ops::dct_naive(r)
}

fn ops_dct2d(s: &KernelSize) -> u64 {
    dct::ops::dct_2d(size_dim(s, 0), size_dim(s, 1))
}

/// The complete code library: every implementation for every intensive
/// computing actor kind.
#[derive(Debug, Clone)]
pub struct CodeLibrary {
    kernels: Vec<Kernel>,
}

impl Default for CodeLibrary {
    fn default() -> Self {
        Self::new()
    }
}

impl CodeLibrary {
    /// Build the built-in library.
    pub fn new() -> Self {
        use ActorKind::*;
        let k = |name, actor, general, can_size, run_fn, ops_fn| Kernel {
            name,
            actor,
            general,
            can_size,
            run_fn,
            ops_fn,
        };
        let kernels = vec![
            // FFT family (Figure 1 of the paper). The *generic* entry is
            // the any-length library function a template-based generator
            // links in (Algorithm 1's general implementation); the others
            // are the scale-specialised choices. The FFT/IFFT generic entry
            // runs the same body as `mixed`, and the DCT/IDCT one the same
            // as `via_fft`; each differs from its twin only in its op model.
            k(
                "generic",
                Fft,
                true,
                any_size as fn(&KernelSize) -> bool,
                run_fft_mixed as fn(&[Tensor]) -> Result<Tensor, KernelError>,
                ops_fft_generic as fn(&KernelSize) -> u64,
            ),
            k(
                "naive_dft",
                Fft,
                false,
                any_size,
                run_fft_naive,
                ops_fft_naive,
            ),
            k(
                "radix2",
                Fft,
                false,
                size_pow2,
                run_fft_radix2,
                ops_fft_radix2,
            ),
            k(
                "radix4",
                Fft,
                false,
                size_pow4,
                run_fft_radix4,
                ops_fft_radix4,
            ),
            k("mixed", Fft, false, any_size, run_fft_mixed, ops_fft_mixed),
            k(
                "bluestein",
                Fft,
                false,
                any_size,
                run_fft_bluestein,
                ops_fft_bluestein,
            ),
            // IFFT family.
            k(
                "generic",
                Ifft,
                true,
                any_size,
                run_ifft_mixed,
                ops_fft_generic,
            ),
            k(
                "naive_dft",
                Ifft,
                false,
                any_size,
                run_ifft_naive,
                ops_fft_naive,
            ),
            k(
                "radix2",
                Ifft,
                false,
                size_pow2,
                run_ifft_radix2,
                ops_fft_radix2,
            ),
            k(
                "radix4",
                Ifft,
                false,
                size_pow4,
                run_ifft_radix4,
                ops_fft_radix4,
            ),
            k(
                "mixed",
                Ifft,
                false,
                any_size,
                run_ifft_mixed,
                ops_fft_mixed,
            ),
            k(
                "bluestein",
                Ifft,
                false,
                any_size,
                run_ifft_bluestein,
                ops_fft_bluestein,
            ),
            // DCT / IDCT.
            k("generic", Dct, true, any_size, run_dct_fft, ops_dct_generic),
            k("naive", Dct, false, any_size, run_dct_naive, ops_dct_naive),
            k("via_fft", Dct, false, any_size, run_dct_fft, ops_dct_fft),
            k(
                "generic",
                Idct,
                true,
                any_size,
                run_idct_fft,
                ops_dct_generic,
            ),
            k(
                "naive",
                Idct,
                false,
                any_size,
                run_idct_naive,
                ops_dct_naive,
            ),
            k("via_fft", Idct, false, any_size, run_idct_fft, ops_dct_fft),
            // Convolution.
            k(
                "generic",
                Conv,
                true,
                any_size,
                run_conv_generic,
                ops_conv_generic,
            ),
            k(
                "direct",
                Conv,
                false,
                any_size,
                run_conv_direct,
                ops_conv_direct,
            ),
            k("via_fft", Conv, false, any_size, run_conv_fft, ops_conv_fft),
            k(
                "direct",
                Conv2d,
                true,
                any_size,
                run_conv2d_direct,
                ops_conv2d,
            ),
            // 2-D transforms: a generic row-column pass plus
            // size-specialised variants, so Algorithm 1 has real choices in
            // two dimensions as well.
            k(
                "rowcol_mixed",
                Fft2d,
                true,
                any_size,
                run_fft2d_rowcol,
                ops_fft2d,
            ),
            k(
                "rowcol_radix2",
                Fft2d,
                false,
                size_dims_pow2,
                run_fft2d_rowcol_radix2,
                ops_fft2d_radix2,
            ),
            k(
                "rowcol_fft",
                Dct2d,
                true,
                any_size,
                run_dct2d_rowcol,
                ops_dct2d,
            ),
            k(
                "rowcol_naive",
                Dct2d,
                false,
                any_size,
                run_dct2d_rowcol_naive,
                ops_dct2d_naive,
            ),
            // Matrix algebra.
            k(
                "general",
                MatMul,
                true,
                any_size,
                run_matmul_general,
                ops_matmul_general,
            ),
            k(
                "unrolled",
                MatMul,
                false,
                size_square_2_to_4,
                run_matmul_unrolled,
                ops_matmul_unrolled,
            ),
            k(
                "gauss",
                MatInv,
                true,
                any_size,
                run_inv_gauss,
                ops_inv_gauss,
            ),
            k(
                "analytic",
                MatInv,
                false,
                size_n_1_to_4,
                run_inv_analytic,
                ops_inv_analytic,
            ),
            k("lu", MatDet, true, any_size, run_det_lu, ops_det_lu),
            k(
                "analytic",
                MatDet,
                false,
                size_n_1_to_4,
                run_det_analytic,
                ops_det_analytic,
            ),
        ];
        CodeLibrary { kernels }
    }

    /// `loadCodeLibrary(ActorType)`: the implementation list for one actor
    /// kind.
    pub fn for_actor(&self, kind: ActorKind) -> Vec<&Kernel> {
        self.kernels.iter().filter(|k| k.actor == kind).collect()
    }

    /// `getGeneralImplementation()`: the fallback implementation.
    pub fn general_for(&self, kind: ActorKind) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.actor == kind && k.general)
    }

    /// Find one implementation by actor kind and name.
    pub fn find(&self, kind: ActorKind, name: &str) -> Option<&Kernel> {
        self.kernels
            .iter()
            .find(|k| k.actor == kind && k.name == name)
    }

    /// All kernels.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }
}

#[cfg(test)]
impl CodeLibrary {
    /// A copy whose `actor`/`name` kernel runs `run_fn` instead.
    pub(crate) fn with_run(
        mut self,
        actor: ActorKind,
        name: &str,
        run_fn: fn(&[Tensor]) -> Result<Tensor, KernelError>,
    ) -> Self {
        for k in self.kernels.iter_mut() {
            if k.actor == actor && k.name == name {
                k.run_fn = run_fn;
            }
        }
        self
    }

    /// A copy whose `actor`/`name` kernel counts ops with `ops_fn` instead.
    pub(crate) fn with_ops(
        mut self,
        actor: ActorKind,
        name: &str,
        ops_fn: fn(&KernelSize) -> u64,
    ) -> Self {
        for k in self.kernels.iter_mut() {
            if k.actor == actor && k.name == name {
                k.ops_fn = ops_fn;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_f32(vals: Vec<f64>) -> Tensor {
        let n = vals.len();
        Tensor::from_f64(SignalType::vector(DataType::F32, n), vals).unwrap()
    }

    #[test]
    fn library_has_general_impl_for_every_intensive_kind() {
        let lib = CodeLibrary::new();
        for kind in ActorKind::ALL {
            if kind.class() == hcg_model::KindClass::Intensive {
                assert!(lib.general_for(kind).is_some(), "{kind}");
                assert!(!lib.for_actor(kind).is_empty(), "{kind}");
            }
        }
    }

    #[test]
    fn fft_family_is_one_to_many() {
        let lib = CodeLibrary::new();
        assert!(lib.for_actor(ActorKind::Fft).len() >= 5);
    }

    #[test]
    fn size_filters_match_algorithm1_description() {
        let lib = CodeLibrary::new();
        let r2 = lib.find(ActorKind::Fft, "radix2").unwrap();
        // "the Radix-2 FFT implementation aims to speed up the FFT with the
        // input size of 2^n" (paper §3.2.1).
        assert!(r2.can_handle_size(&KernelSize(vec![1024])));
        assert!(!r2.can_handle_size(&KernelSize(vec![1000])));
        let r4 = lib.find(ActorKind::Fft, "radix4").unwrap();
        assert!(r4.can_handle_size(&KernelSize(vec![1024])));
        assert!(!r4.can_handle_size(&KernelSize(vec![512])));
    }

    #[test]
    fn dtype_filter_rejects_integers() {
        let lib = CodeLibrary::new();
        let k = lib.general_for(ActorKind::Fft).unwrap();
        assert!(k.can_handle_dtype(DataType::F32));
        assert!(!k.can_handle_dtype(DataType::I32));
    }

    #[test]
    fn all_fft_impls_agree_on_shared_sizes() {
        let lib = CodeLibrary::new();
        let x = vec_f32((0..16).map(|i| (i as f64 * 0.4).sin()).collect());
        let reference = lib
            .find(ActorKind::Fft, "naive_dft")
            .unwrap()
            .run(std::slice::from_ref(&x))
            .unwrap();
        for k in lib.for_actor(ActorKind::Fft) {
            if k.can_handle_size(&KernelSize(vec![16])) {
                let out = k.run(std::slice::from_ref(&x)).unwrap();
                assert!(out.max_abs_diff(&reference) < 1e-6, "{} diverges", k.name);
            }
        }
    }

    #[test]
    fn fft_output_is_interleaved_double_length() {
        let lib = CodeLibrary::new();
        let x = vec_f32(vec![1.0, 0.0, 0.0, 0.0]);
        let out = lib.general_for(ActorKind::Fft).unwrap().run(&[x]).unwrap();
        assert_eq!(out.len(), 8);
        // Impulse: flat spectrum (1 + 0i per bin).
        let v = out.as_f64();
        for b in 0..4 {
            assert!((v[2 * b] - 1.0).abs() < 1e-9);
            assert!(v[2 * b + 1].abs() < 1e-9);
        }
    }

    #[test]
    fn ifft_inverts_fft_via_library() {
        let lib = CodeLibrary::new();
        let x = vec_f32((0..8).map(|i| i as f64 * 0.25 - 1.0).collect());
        let spec = lib
            .find(ActorKind::Fft, "radix2")
            .unwrap()
            .run(std::slice::from_ref(&x))
            .unwrap();
        let back = lib
            .find(ActorKind::Ifft, "radix2")
            .unwrap()
            .run(&[spec])
            .unwrap();
        assert!(back.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn matdet_returns_scalar() {
        let lib = CodeLibrary::new();
        let m = Tensor::from_f64(
            SignalType::matrix(DataType::F64, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        let d = lib
            .find(ActorKind::MatDet, "analytic")
            .unwrap()
            .run(&[m])
            .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.as_f64()[0], -2.0);
    }

    #[test]
    fn kernel_size_from_inputs() {
        use hcg_model::SignalType as ST;
        assert_eq!(
            KernelSize::from_inputs(ActorKind::Fft, &[ST::vector(DataType::F32, 256)]),
            Some(KernelSize(vec![256]))
        );
        assert_eq!(
            KernelSize::from_inputs(ActorKind::Ifft, &[ST::vector(DataType::F32, 512)]),
            Some(KernelSize(vec![256]))
        );
        assert_eq!(
            KernelSize::from_inputs(
                ActorKind::Conv,
                &[ST::vector(DataType::F32, 100), ST::vector(DataType::F32, 9)]
            ),
            Some(KernelSize(vec![100, 9]))
        );
        assert_eq!(
            KernelSize::from_inputs(
                ActorKind::MatMul,
                &[
                    ST::matrix(DataType::F64, 3, 4),
                    ST::matrix(DataType::F64, 4, 2)
                ]
            ),
            Some(KernelSize(vec![3, 4, 2]))
        );
        assert_eq!(KernelSize::from_inputs(ActorKind::Add, &[]), None);
    }

    #[test]
    fn wrong_arity_is_an_error_not_a_panic() {
        let lib = CodeLibrary::new();
        let x = vec_f32(vec![1.0, 2.0]);
        assert!(lib
            .general_for(ActorKind::Conv)
            .unwrap()
            .run(std::slice::from_ref(&x))
            .is_err());
    }
}
