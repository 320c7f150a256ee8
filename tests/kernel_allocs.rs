//! The transform kernels allocate per call, not per recursion node: a few
//! buffers and twiddle tables, whatever the length. A fresh op-count
//! `Autotuner::select` runs no kernel and builds no test input, so its
//! allocations (the history key and entry, the implementation list, the
//! winner's name) do not grow with the declared size either. Counted by a
//! global allocator, so the checks are deterministic and gate in
//! `cargo test`.

mod counting;

use counting::allocs_of;
use hcg::kernels::fft::{self, Direction};
use hcg::kernels::{dct, Autotuner, CodeLibrary, Complex64, KernelSize, Meter};
use hcg::model::{ActorKind, DataType};

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i % 7) as f64 - 3.0, (i % 5) as f64 * 0.5))
        .collect()
}

#[test]
fn transforms_allocate_per_call_not_per_node() {
    let x = signal(2048);
    let real: Vec<f64> = x.iter().map(|c| c.re).collect();
    for dir in [Direction::Forward, Direction::Inverse] {
        let mixed = allocs_of(|| fft::fft_mixed(&x, dir)).1;
        assert!(mixed <= 32, "fft_mixed(2048, {dir:?}): {mixed} allocations");
        let radix4 = allocs_of(|| fft::fft_radix4(&x[..1024], dir)).1;
        assert!(
            radix4 <= 16,
            "fft_radix4(1024, {dir:?}): {radix4} allocations"
        );
    }
    let dct2 = allocs_of(|| dct::dct2_fft(&real[..1024])).1;
    assert!(dct2 <= 32, "dct2_fft(1024): {dct2} allocations");
}

#[test]
fn a_fresh_select_of_a_transform_allocates_the_same_at_every_size() {
    let lib = CodeLibrary::new();
    for kind in [ActorKind::Fft, ActorKind::Dct] {
        let counts: Vec<usize> = [1024, 4099, 1 << 20]
            .into_iter()
            .map(|n| {
                allocs_of(|| {
                    let mut tuner = Autotuner::new(Meter::OpCount);
                    let name = tuner
                        .select(&lib, kind, DataType::F32, &KernelSize(vec![n]))
                        .map(|(k, _)| k.name);
                    (tuner, name)
                })
                .1
            })
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0] && c <= 7),
            "select {kind} at 1024, 4099, 2^20: {counts:?} allocations"
        );
    }
}
