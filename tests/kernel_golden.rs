//! Golden digests of the kernel library's output, bit for bit.
//!
//! FNV-1a over the `f64` bits of every `CodeLibrary::new()` kernel's `run`
//! output, on `generate_test_input` at every size of a fixed spread that
//! the kernel's `can_handle_size` accepts, and of the transform functions
//! themselves in both directions. The kernel unit tests check agreement
//! within 1e-6; these digests check that a rewrite of a kernel computes the
//! same bits. A change to what a kernel computes moves a digest; a change
//! to how it indexes or lays out memory must not.
//!
//! The kernels call the platform's `sin`/`cos`, so the digests hold for
//! x86-64 Linux (glibc's libm); another libm may round differently.
//!
//! The same spread checks the rest of `Kernel::run`'s contract, in both
//! directions: a size the kernel's own filter accepts runs, for `f32` and
//! `f64`, and a size it rejects is an `Err`, never a panic. Algorithm 1's
//! op-count selection runs no candidate, so this contract is what keeps a
//! kernel that cannot run from winning.

use hcg::fuzz::report::fnv1a;
use hcg::kernels::fft::{self, Direction};
use hcg::kernels::{
    dct, from_interleaved, generate_test_input, CodeLibrary, Complex64, KernelSize,
};
use hcg::model::{ActorKind, DataType};

/// The 1-D lengths of the spread.
const LENGTHS: [usize; 11] = [1, 2, 3, 7, 12, 64, 100, 1000, 1021, 1024, 2048];

const SEED: u64 = 7;

/// The sizes tried for one actor kind; `KernelSize` lists their layout.
fn spread(kind: ActorKind) -> Vec<KernelSize> {
    use ActorKind::*;
    let dims: Vec<Vec<usize>> = match kind {
        Fft | Ifft | Dct | Idct => LENGTHS.iter().map(|&n| vec![n]).collect(),
        MatInv | MatDet => [1, 2, 3, 4, 5, 8, 12].iter().map(|&n| vec![n]).collect(),
        MatMul => [
            [1, 1, 1],
            [2, 2, 2],
            [3, 3, 3],
            [4, 4, 4],
            [5, 5, 5],
            [3, 4, 2],
        ]
        .map(Vec::from)
        .into(),
        Fft2d | Dct2d => [[1, 1], [4, 4], [8, 16], [6, 12], [3, 5], [16, 16]]
            .map(Vec::from)
            .into(),
        Conv => [[1, 1], [12, 3], [64, 9], [100, 7], [7, 7], [1000, 31]]
            .map(Vec::from)
            .into(),
        Conv2d => [[1, 1, 1, 1], [8, 8, 3, 3], [5, 7, 2, 4]]
            .map(Vec::from)
            .into(),
        _ => Vec::new(),
    };
    dims.into_iter().map(KernelSize).collect()
}

fn hash_f64s(values: impl IntoIterator<Item = f64>, mut h: u64) -> u64 {
    for v in values {
        h = fnv1a(&v.to_bits().to_le_bytes(), h);
    }
    h
}

fn hash_len(n: usize, h: u64) -> u64 {
    fnv1a(&(n as u64).to_le_bytes(), h)
}

/// One digest per library kernel, labelled `actor::name`.
fn kernel_digests() -> Vec<(String, u64)> {
    let lib = CodeLibrary::new();
    lib.kernels()
        .iter()
        .map(|k| {
            let mut h = 0;
            for size in spread(k.actor) {
                if !k.can_handle_size(&size) {
                    continue;
                }
                let inputs = generate_test_input(k.actor, DataType::F64, &size, SEED);
                h = fnv1a(size.to_string().as_bytes(), h);
                h = match k.run(&inputs) {
                    Ok(out) => hash_f64s(out.as_f64(), h),
                    Err(e) => fnv1a(e.0.as_bytes(), h),
                };
            }
            (format!("{}::{}", k.actor, k.name), h)
        })
        .collect()
}

/// Lengths for the any-length transforms: every length to 130, the
/// spread, and a few larger smooth, prime-power and power-of-four ones.
fn any_lengths() -> Vec<usize> {
    let mut ns: Vec<usize> = (0..=130).collect();
    ns.extend(LENGTHS.iter().filter(|&&n| n > 130));
    ns.extend([210, 243, 256, 360, 625, 4096]);
    ns
}

/// One digest per transform function and direction.
fn transform_digests() -> Vec<(String, u64)> {
    type Transform = fn(&[Complex64], Direction) -> Vec<Complex64>;
    let complex_input = |n: usize| {
        let t = &generate_test_input(ActorKind::Ifft, DataType::F64, &KernelSize(vec![n]), SEED)[0];
        from_interleaved(&t.as_f64())
    };
    let real_input = |n: usize| {
        generate_test_input(ActorKind::Dct, DataType::F64, &KernelSize(vec![n]), SEED)[0].as_f64()
    };
    let pow4: Vec<usize> = (0..7).map(|e| 1 << (2 * e)).collect();
    let pow2: Vec<usize> = (0..13).map(|e| 1 << e).collect();
    let naive: Vec<usize> = (0..=64).chain([100, 1000, 1021, 1024]).collect();
    let cases: [(&str, Transform, Vec<usize>); 5] = [
        ("fft_mixed", fft::fft_mixed, any_lengths()),
        ("fft_radix4", fft::fft_radix4, pow4),
        ("fft_radix2", fft::fft_radix2, pow2),
        ("dft_naive", fft::dft_naive, naive),
        ("fft_bluestein", fft::fft_bluestein, any_lengths()),
    ];
    let mut digests = Vec::new();
    for (name, f, lengths) in &cases {
        for (dir, tag) in [
            (Direction::Forward, "forward"),
            (Direction::Inverse, "inverse"),
        ] {
            let h = lengths.iter().fold(0, |h, &n| {
                let out = f(&complex_input(n), dir);
                hash_f64s(out.iter().flat_map(|c| [c.re, c.im]), hash_len(n, h))
            });
            digests.push((format!("{name}::{tag}"), h));
        }
    }
    let dct2: fn(&[f64]) -> Vec<f64> = dct::dct2_fft;
    for (name, f) in [("dct2_fft", dct2), ("dct3_fft", dct::dct3_fft)] {
        let h = (0..=64)
            .chain(LENGTHS.iter().copied().filter(|&n| n > 64))
            .fold(0, |h, n| hash_f64s(f(&real_input(n)), hash_len(n, h)));
        digests.push((name.to_string(), h));
    }
    digests
}

/// The digests, recorded before the transforms were rewritten to use
/// twiddle tables.
const GOLDEN: &[(&str, u64)] = &[
    ("FFT::generic", 0xfda0_b951_ff3c_7c90),
    ("FFT::naive_dft", 0xc6c3_537e_ba6c_ccfc),
    ("FFT::radix2", 0xea4a_7c71_7c0b_2a7d),
    ("FFT::radix4", 0x6a78_d5ba_1bd6_2569),
    ("FFT::mixed", 0xfda0_b951_ff3c_7c90),
    ("FFT::bluestein", 0xccd2_5e94_2353_a02b),
    ("IFFT::generic", 0x3109_5f40_1615_86d0),
    ("IFFT::naive_dft", 0x6d85_9f24_8394_718e),
    ("IFFT::radix2", 0xc3fa_8bfa_7214_932a),
    ("IFFT::radix4", 0x4ed2_2663_6623_7b6c),
    ("IFFT::mixed", 0x3109_5f40_1615_86d0),
    ("IFFT::bluestein", 0xaa72_3a39_92ab_abb2),
    ("DCT::generic", 0xc552_fd2a_861e_845e),
    ("DCT::naive", 0x1e5d_2dc2_57d6_16f1),
    ("DCT::via_fft", 0xc552_fd2a_861e_845e),
    ("IDCT::generic", 0x3fc7_0f58_9e8c_d208),
    ("IDCT::naive", 0x24a0_d555_7ef8_96bd),
    ("IDCT::via_fft", 0x3fc7_0f58_9e8c_d208),
    ("Conv::generic", 0x4e32_a8cd_1b56_2dcd),
    ("Conv::direct", 0xe092_abb7_1692_b56d),
    ("Conv::via_fft", 0x1a5d_839d_56ca_b7e4),
    ("Conv2D::direct", 0x64c6_affe_2333_746d),
    ("FFT2D::rowcol_mixed", 0xc66c_8b1f_0490_30d3),
    ("FFT2D::rowcol_radix2", 0x2839_7e89_bbdb_3914),
    ("DCT2D::rowcol_fft", 0xff29_103d_797e_e319),
    ("DCT2D::rowcol_naive", 0x74a4_42e0_6d68_78e3),
    ("MatMul::general", 0x5af7_1629_9317_d982),
    ("MatMul::unrolled", 0x9053_7f4d_0fe5_be28),
    ("MatInv::gauss", 0xa32d_774a_b242_98cf),
    ("MatInv::analytic", 0x1669_3932_4b6d_2412),
    ("MatDet::lu", 0xc643_9e87_ddc2_af44),
    ("MatDet::analytic", 0xf3c8_816b_9b84_8dd2),
    ("fft_mixed::forward", 0xe035_72da_e6fa_8cb1),
    ("fft_mixed::inverse", 0xba35_1c3f_1320_42fa),
    ("fft_radix4::forward", 0x0d98_d911_37d6_d32b),
    ("fft_radix4::inverse", 0xa608_8a18_5784_e316),
    ("fft_radix2::forward", 0x4c49_4cdd_4b0d_68cc),
    ("fft_radix2::inverse", 0x5a95_dcfe_65e9_9c7f),
    ("dft_naive::forward", 0x94c5_34ff_1ae1_d229),
    ("dft_naive::inverse", 0x4fbb_99d1_4295_4e4d),
    ("fft_bluestein::forward", 0x97a0_1c63_e132_8337),
    ("fft_bluestein::inverse", 0xb0e7_977b_db46_9f58),
    ("dct2_fft", 0x8364_e0c2_a6ca_347a),
    ("dct3_fft", 0xc2a0_72b7_f8a7_5c39),
];

#[test]
fn kernel_outputs_match_the_golden_digests() {
    let actual: Vec<(String, u64)> = kernel_digests()
        .into_iter()
        .chain(transform_digests())
        .collect();
    let moved: Vec<&str> = actual
        .iter()
        .filter(|(label, h)| !GOLDEN.contains(&(label.as_str(), *h)))
        .map(|(label, _)| label.as_str())
        .collect();
    let table: String = actual
        .iter()
        .map(|(label, h)| {
            let [a, b, c, d] = [48, 32, 16, 0].map(|s| (h >> s) & 0xffff);
            format!("    (\"{label}\", 0x{a:04x}_{b:04x}_{c:04x}_{d:04x}),\n")
        })
        .collect();
    assert!(
        moved.is_empty() && actual.len() == GOLDEN.len(),
        "kernel output digests moved for {moved:?}; current table:\n{table}"
    );
}

#[test]
fn accepted_sizes_run_and_rejected_sizes_are_errors() {
    let lib = CodeLibrary::new();
    let (mut accepted, mut rejected) = (0, 0);
    for k in lib.kernels() {
        for size in spread(k.actor) {
            if !k.can_handle_size(&size) {
                let inputs = generate_test_input(k.actor, DataType::F64, &size, SEED);
                assert!(k.run(&inputs).is_err(), "{k:?} ran at rejected size {size}");
                rejected += 1;
                continue;
            }
            for dtype in [DataType::F32, DataType::F64] {
                if !k.can_handle_dtype(dtype) {
                    continue;
                }
                let inputs = generate_test_input(k.actor, dtype, &size, SEED);
                if let Err(e) = k.run(&inputs) {
                    panic!("{k:?} failed at accepted size {size} {dtype}: {e}");
                }
                accepted += 1;
            }
        }
    }
    assert!(accepted > 0, "the spread covers no accepted size");
    assert!(rejected > 0, "the spread covers no rejected size");
}
