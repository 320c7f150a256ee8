//! Algorithm 1 of the paper: adaptive pre-calculation that selects the
//! optimal implementation for an intensive computing actor at its concrete
//! input scale, with a selection history for quick re-synthesis.
//!
//! Pre-calculation costs every candidate that passes the dtype and size
//! filters and keeps the first of minimum cost. Under the deterministic
//! [`Meter::OpCount`] a candidate's cost is its analytic op count, known
//! before it runs, so nothing executes and no test input is built: the
//! plan comes from the op model alone, as in FFTW's estimate mode. Under
//! [`Meter::WallClock`] (the paper's methodology) cost is only known by
//! running, so a random test input is generated and every candidate is
//! timed on it; a candidate that fails to run never wins.
//!
//! That a kernel runs at every size its filter accepts is a contract of
//! the library, checked once by `tests/kernel_golden.rs` rather than on
//! every compile.

use crate::registry::{CodeLibrary, Kernel, KernelError, KernelSize};
use hcg_model::{ActorKind, DataType, SignalType, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// How implementation cost is measured during pre-calculation (Algorithm 1
/// line 14, `runImplementation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meter {
    /// Deterministic analytic operation counts — reproducible across
    /// machines, used by tests and the default benchmark harness. Read from
    /// each candidate's op model: no candidate runs and no test input is
    /// generated.
    OpCount,
    /// Wall-clock execution of the implementation on the generated test
    /// input, repeated `reps` times and summed — the paper's methodology.
    /// Every candidate is timed, after one untimed run that rejects a
    /// candidate that fails.
    WallClock {
        /// Number of timed repetitions.
        reps: u32,
    },
}

/// One remembered decision (`storeSelection` of Algorithm 1 line 18).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Actor type.
    pub actor: ActorKind,
    /// Input data type.
    pub dtype: DataType,
    /// Input size signature.
    pub size: KernelSize,
    /// Winning implementation name.
    pub impl_name: String,
    /// Measured cost of the winner.
    pub cost: u64,
}

/// Error from implementation selection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// The library has no implementation at all for the actor kind.
    NoImplementation(ActorKind),
    /// No candidate passed the filters, or (under [`Meter::WallClock`])
    /// every candidate failed to execute on the test input.
    AllFailed {
        /// Actor kind that failed.
        actor: ActorKind,
        /// Last execution error.
        last: KernelError,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::NoImplementation(k) => {
                write!(f, "code library has no implementation for {k}")
            }
            SelectError::AllFailed { actor, last } => {
                write!(
                    f,
                    "every {actor} implementation failed pre-calculation: {last}"
                )
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// The Algorithm 1 engine: selection history plus pre-calculation.
#[derive(Debug, Clone)]
pub struct Autotuner {
    history: BTreeMap<(ActorKind, DataType, KernelSize), Selection>,
    /// Cost measurement strategy.
    pub meter: Meter,
    /// Seed for `generateTestInput` (line 10) so runs are reproducible.
    /// Read only under [`Meter::WallClock`], the one meter that runs
    /// candidates.
    pub seed: u64,
}

impl Default for Autotuner {
    fn default() -> Self {
        Self::new(Meter::OpCount)
    }
}

impl Autotuner {
    /// A fresh tuner with an empty history.
    pub fn new(meter: Meter) -> Self {
        Autotuner {
            history: BTreeMap::new(),
            meter,
            seed: 0x5eed_c0de,
        }
    }

    /// Number of remembered selections.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// `loadSelectionHistory(ActorType)` (line 1): the remembered
    /// selections for one actor kind.
    pub fn history_for(&self, actor: ActorKind) -> Vec<&Selection> {
        self.history.values().filter(|s| s.actor == actor).collect()
    }

    /// Adopt every selection of `other` that this tuner has not decided
    /// itself. Existing entries win, so a caller's own history is never
    /// clobbered. Used by incremental sessions to carry quick-search
    /// results across compiles with fresh generator instances — sound
    /// whenever both tuners measure deterministically with the same meter
    /// and seed, because a remembered selection then equals what a fresh
    /// pre-calculation would pick.
    pub fn adopt_history(&mut self, other: &Autotuner) {
        for (key, sel) in &other.history {
            self.history
                .entry(key.clone())
                .or_insert_with(|| sel.clone());
        }
    }

    /// Algorithm 1 in full: history lookup (lines 3–6), then
    /// pre-calculation over the filtered implementation list (lines 7–17),
    /// then `storeSelection` (line 18).
    ///
    /// Every filtered candidate is costed by the tuner's [`Meter`] and the
    /// first of minimum cost wins, ties going to the kernel earlier in the
    /// library list. Under [`Meter::OpCount`] the cost is the op model and
    /// nothing runs; under [`Meter::WallClock`] the test input of line 10
    /// is generated and each candidate is timed on it.
    ///
    /// Returns the chosen kernel and whether it was served from history.
    ///
    /// # Errors
    ///
    /// Returns [`SelectError`] when the library has no implementation for
    /// the kind, no candidate passes the filters, or every candidate fails
    /// to execute.
    pub fn select<'lib>(
        &mut self,
        lib: &'lib CodeLibrary,
        actor: ActorKind,
        dtype: DataType,
        size: &KernelSize,
    ) -> Result<(&'lib Kernel, bool), SelectError> {
        // Lines 3–6: history lookup. A remembered kernel passes the
        // lines 12–13 filters again, so a stale or hand-edited history
        // entry is dropped instead of selecting a kernel that cannot run.
        let key = (actor, dtype, size.clone());
        if let Some(sel) = self.history.get(&key) {
            match lib.find(actor, &sel.impl_name) {
                Some(k) if k.can_handle_dtype(dtype) && k.can_handle_size(size) => {
                    return Ok((k, true));
                }
                _ => {
                    self.history.remove(&key);
                }
            }
        }

        // Line 7: load the implementation list.
        let impls = lib.for_actor(actor);
        if impls.is_empty() {
            return Err(SelectError::NoImplementation(actor));
        }
        // Line 8: the general implementation.
        let general = lib
            .general_for(actor)
            .ok_or(SelectError::NoImplementation(actor))?;
        // Line 10: random test input at the actor's input size, needed only
        // by the meter that runs candidates.
        let test_input = match self.meter {
            Meter::OpCount => Vec::new(),
            Meter::WallClock { .. } => generate_test_input(actor, dtype, size, self.seed),
        };
        // Lines 12–13: dtype/size filters, library order kept.
        let candidates = impls
            .into_iter()
            .filter(|imp| imp.can_handle_dtype(dtype) && imp.can_handle_size(size));
        // Lines 14–17: cost, keep the minimum.
        let (best, cost) = self
            .scan(candidates, size, &test_input)
            .map_err(|last| SelectError::AllFailed { actor, last })?;
        // Line 8's general implementation stands unless a candidate costs
        // less than the initial `u64::MAX`.
        let best = if cost == u64::MAX { general } else { best };
        // Line 18: store.
        self.history.insert(
            key,
            Selection {
                actor,
                dtype,
                size: size.clone(),
                impl_name: best.name.to_owned(),
                cost,
            },
        );
        Ok((best, false))
    }

    /// Lines 14–17 as the paper writes them: measure every candidate and
    /// keep the first of minimum cost. When none can be measured, the error
    /// is that of the last failing candidate.
    fn scan<'lib>(
        &self,
        candidates: impl IntoIterator<Item = &'lib Kernel>,
        size: &KernelSize,
        input: &[Tensor],
    ) -> Result<(&'lib Kernel, u64), KernelError> {
        let mut best: Option<(&Kernel, u64)> = None;
        let mut last_err = None;
        for imp in candidates {
            match self.measure(imp, size, input) {
                Ok(cost) => {
                    if best.is_none_or(|(_, min)| cost < min) {
                        best = Some((imp, cost));
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        best.ok_or_else(|| {
            last_err.unwrap_or_else(|| KernelError("no candidate passed filters".into()))
        })
    }

    /// `runImplementation` (line 14): the candidate's cost under this
    /// tuner's meter.
    fn measure(
        &self,
        imp: &Kernel,
        size: &KernelSize,
        input: &[Tensor],
    ) -> Result<u64, KernelError> {
        match self.meter {
            Meter::OpCount => Ok(imp.op_count(size)),
            Meter::WallClock { reps } => {
                // An untimed run first: a kernel that cannot run must
                // never win.
                imp.run(input)?;
                let start = Instant::now();
                for _ in 0..reps.max(1) {
                    imp.run(input)?;
                }
                Ok(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            }
        }
    }

    /// Serialise the history to a line-oriented text form (one selection per
    /// line) for persistence across runs.
    pub fn history_to_text(&self) -> String {
        let mut out = String::new();
        for s in self.history.values() {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                s.actor, s.dtype, s.size, s.impl_name, s.cost
            ));
        }
        out
    }

    /// Persist the selection history to a file (the paper stores history
    /// "for a quick search" across code-generation runs).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save_history_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.history_to_text())
    }

    /// Load and merge a history file written by
    /// [`Autotuner::save_history_file`]. A missing file is not an error
    /// (first run); malformed lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than `NotFound`.
    pub fn load_history_file(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                self.load_history_text(&text);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Load history lines written by [`Autotuner::history_to_text`],
    /// merging into the current history (malformed lines are skipped).
    pub fn load_history_text(&mut self, text: &str) {
        for line in text.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            let [actor, dtype, size, name, cost] = parts.as_slice() else {
                continue;
            };
            let (Ok(actor), Ok(dtype)) = (actor.parse::<ActorKind>(), dtype.parse::<DataType>())
            else {
                continue;
            };
            let dims: Option<Vec<usize>> = size.split('x').map(|d| d.parse().ok()).collect();
            let (Some(dims), Ok(cost)) = (dims, cost.parse::<u64>()) else {
                continue;
            };
            let size = KernelSize(dims);
            self.history.insert(
                (actor, dtype, size.clone()),
                Selection {
                    actor,
                    dtype,
                    size,
                    impl_name: (*name).to_owned(),
                    cost,
                },
            );
        }
    }
}

/// `generateTestInput(DataSize)` (Algorithm 1 line 10): random input
/// tensors matching the actor's input contract at the given size.
pub fn generate_test_input(
    actor: ActorKind,
    dtype: DataType,
    size: &KernelSize,
    seed: u64,
) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vec_t = |n: usize, rng: &mut StdRng| {
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Tensor::from_f64(SignalType::vector(dtype, n), data).expect("sized data")
    };
    let mat_t = |r: usize, c: usize, diag_boost: f64, rng: &mut StdRng| {
        let data: Vec<f64> = (0..r * c)
            .map(|i| {
                let base: f64 = rng.gen_range(-1.0..1.0);
                // Diagonal dominance keeps inversion test inputs regular.
                if r == c && i / c == i % c {
                    base + diag_boost
                } else {
                    base
                }
            })
            .collect();
        Tensor::from_f64(SignalType::matrix(dtype, r, c), data).expect("sized data")
    };
    use ActorKind::*;
    match actor {
        Fft | Dct | Idct => vec![vec_t(size.0[0], &mut rng)],
        Ifft => vec![vec_t(size.0[0] * 2, &mut rng)],
        Conv => vec![vec_t(size.0[0], &mut rng), vec_t(size.0[1], &mut rng)],
        MatMul => {
            let (r, k, c) = (size.0[0], size.0[1], size.0[2]);
            vec![mat_t(r, k, 0.0, &mut rng), mat_t(k, c, 0.0, &mut rng)]
        }
        MatInv | MatDet => {
            let n = size.0[0];
            vec![mat_t(n, n, n as f64 + 1.0, &mut rng)]
        }
        Fft2d | Dct2d => vec![mat_t(size.0[0], size.0[1], 0.0, &mut rng)],
        Conv2d => vec![
            mat_t(size.0[0], size.0[1], 0.0, &mut rng),
            mat_t(size.0[2], size.0[3], 0.0, &mut rng),
        ],
        other => panic!("{other} is not an intensive computing actor"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_radix4_for_1024_like_the_paper() {
        // Paper §3: "the FFT actor … with 1024 floating point data as input
        // will be translated into the Radix-4 butterfly FFT implementation".
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::OpCount);
        let (k, from_history) = t
            .select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![1024]))
            .unwrap();
        assert_eq!(k.name, "radix4");
        assert!(!from_history);
    }

    #[test]
    fn second_select_hits_history() {
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::OpCount);
        let size = KernelSize(vec![256]);
        let (first, h1) = t
            .select(&lib, ActorKind::Fft, DataType::F32, &size)
            .unwrap();
        let (second, h2) = t
            .select(&lib, ActorKind::Fft, DataType::F32, &size)
            .unwrap();
        assert!(!h1);
        assert!(h2);
        assert_eq!(first.name, second.name);
        assert_eq!(t.history_len(), 1);
    }

    #[test]
    fn adopt_history_keeps_own_entries_and_fills_gaps() {
        let lib = CodeLibrary::new();
        let mut donor = Autotuner::new(Meter::OpCount);
        donor
            .select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![1024]))
            .unwrap();
        donor
            .select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![4]))
            .unwrap();

        let mut t = Autotuner::new(Meter::OpCount);
        t.select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![4]))
            .unwrap();
        t.adopt_history(&donor);
        assert_eq!(t.history_len(), 2, "gap filled, own entry kept");
        let (k, from_history) = t
            .select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![1024]))
            .unwrap();
        assert!(from_history, "adopted selection serves without measuring");
        assert_eq!(k.name, "radix4");
    }

    #[test]
    fn tiny_sizes_prefer_naive() {
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::OpCount);
        let (k, _) = t
            .select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![4]))
            .unwrap();
        assert_eq!(k.name, "naive_dft");
    }

    #[test]
    fn non_pow2_excludes_radix_kernels() {
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::OpCount);
        let (k, _) = t
            .select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![1000]))
            .unwrap();
        assert!(k.name == "mixed" || k.name == "bluestein" || k.name == "naive_dft");
        assert_ne!(k.name, "radix2");
    }

    #[test]
    fn conv_crossover_short_vs_long_kernel() {
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::OpCount);
        let (short, _) = t
            .select(
                &lib,
                ActorKind::Conv,
                DataType::F32,
                &KernelSize(vec![1024, 4]),
            )
            .unwrap();
        assert_eq!(short.name, "direct");
        let (long, _) = t
            .select(
                &lib,
                ActorKind::Conv,
                DataType::F32,
                &KernelSize(vec![1024, 512]),
            )
            .unwrap();
        assert_eq!(long.name, "via_fft");
    }

    #[test]
    fn matrix_kernels_prefer_specialised_small_sizes() {
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::OpCount);
        let (mm, _) = t
            .select(
                &lib,
                ActorKind::MatMul,
                DataType::F64,
                &KernelSize(vec![4, 4, 4]),
            )
            .unwrap();
        assert_eq!(mm.name, "unrolled");
        let (inv, _) = t
            .select(&lib, ActorKind::MatInv, DataType::F64, &KernelSize(vec![3]))
            .unwrap();
        assert_eq!(inv.name, "analytic");
        let (big, _) = t
            .select(&lib, ActorKind::MatInv, DataType::F64, &KernelSize(vec![8]))
            .unwrap();
        assert_eq!(big.name, "gauss");
    }

    #[test]
    fn wall_clock_meter_selects_a_working_impl() {
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::WallClock { reps: 2 });
        let size = KernelSize(vec![64]);
        let (k, _) = t
            .select(&lib, ActorKind::Fft, DataType::F32, &size)
            .unwrap();
        assert!(k.can_handle_size(&size));
        // Whatever won must be recorded.
        assert_eq!(t.history_for(ActorKind::Fft).len(), 1);
    }

    #[test]
    fn history_roundtrips_through_text() {
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::OpCount);
        t.select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![1024]))
            .unwrap();
        t.select(
            &lib,
            ActorKind::Conv,
            DataType::F32,
            &KernelSize(vec![100, 9]),
        )
        .unwrap();
        let text = t.history_to_text();
        let mut t2 = Autotuner::new(Meter::OpCount);
        t2.load_history_text(&text);
        assert_eq!(t2.history_len(), 2);
        // A select on the restored tuner is a pure history hit.
        let (k, from_history) = t2
            .select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![1024]))
            .unwrap();
        assert!(from_history);
        assert_eq!(k.name, "radix4");
    }

    #[test]
    fn malformed_history_lines_skipped() {
        let mut t = Autotuner::new(Meter::OpCount);
        t.load_history_text("garbage\nFFT f32 1024 radix4\nFFT f32 1024 radix4 12 extra\n");
        assert_eq!(t.history_len(), 0);
    }

    #[test]
    fn test_input_respects_contract() {
        let inp = generate_test_input(ActorKind::Conv, DataType::F32, &KernelSize(vec![10, 3]), 1);
        assert_eq!(inp.len(), 2);
        assert_eq!(inp[0].len(), 10);
        assert_eq!(inp[1].len(), 3);
        let ifft = generate_test_input(ActorKind::Ifft, DataType::F32, &KernelSize(vec![8]), 1);
        assert_eq!(ifft[0].len(), 16);
        // Deterministic with the same seed.
        let a = generate_test_input(ActorKind::Fft, DataType::F32, &KernelSize(vec![8]), 7);
        let b = generate_test_input(ActorKind::Fft, DataType::F32, &KernelSize(vec![8]), 7);
        assert_eq!(a[0], b[0]);
    }

    /// 1-D sizes: everything up to 64, every larger power of two (and so of
    /// four) up to 2048, and some primes and composites in between.
    fn one_d_sizes() -> Vec<usize> {
        let mut sizes: Vec<usize> = (1..=64).collect();
        sizes.extend((7..=11).map(|p| 1usize << p));
        sizes.extend([97, 100, 251, 509, 1000, 1021, 1500, 2039]);
        sizes
    }

    fn size_grid(kind: ActorKind) -> Vec<KernelSize> {
        use ActorKind::*;
        let pairs = |a: &[usize], b: &[usize]| -> Vec<KernelSize> {
            a.iter()
                .flat_map(|&x| b.iter().map(move |&y| KernelSize(vec![x, y])))
                .collect()
        };
        match kind {
            Fft | Ifft | Dct | Idct => one_d_sizes()
                .into_iter()
                .map(|n| KernelSize(vec![n]))
                .collect(),
            // Both sides of the direct/via_fft crossover.
            Conv => pairs(
                &[1, 7, 64, 256, 1024],
                &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            ),
            MatMul => (1..=5)
                .flat_map(|r| {
                    (1..=5).flat_map(move |k| (1..=5).map(move |c| KernelSize(vec![r, k, c])))
                })
                .collect(),
            MatInv | MatDet => (1..=8).map(|n| KernelSize(vec![n])).collect(),
            Fft2d | Dct2d => pairs(&[1, 2, 3, 4, 5, 8, 16], &[1, 2, 3, 4, 5, 8, 16]),
            Conv2d => [(1, 1), (3, 4), (8, 8)]
                .iter()
                .flat_map(|&(r1, c1)| {
                    [(1, 1), (2, 3), (3, 3)]
                        .iter()
                        .map(move |&(r2, c2)| KernelSize(vec![r1, c1, r2, c2]))
                })
                .collect(),
            other => panic!("{other}: intensive kind without a size grid"),
        }
    }

    fn outcome(
        r: Result<(&Kernel, bool), SelectError>,
    ) -> Result<(&'static str, bool), SelectError> {
        r.map(|(k, from_history)| (k.name, from_history))
    }

    #[test]
    fn op_count_selection_runs_no_kernel() {
        // Every kernel body refuses, so any run would change the outcome:
        // the same winners and history as on the real library show that
        // op-count selection executes nothing.
        let lib = CodeLibrary::new();
        let refusing = lib
            .kernels()
            .iter()
            .fold(lib.clone(), |l, k| l.with_run(k.actor, k.name, refuse_any));
        let mut kinds = 0;
        for actor in ActorKind::ALL {
            if actor.class() != hcg_model::KindClass::Intensive {
                continue;
            }
            kinds += 1;
            let grid = size_grid(actor);
            let mut cases: Vec<(DataType, KernelSize)> =
                grid.iter().map(|s| (DataType::F32, s.clone())).collect();
            // Integer inputs pass no filter: both report `AllFailed`.
            cases.push((DataType::I32, grid[0].clone()));
            // A repeated size is a history hit on both.
            cases.push((DataType::F32, grid[grid.len() - 1].clone()));
            let mut real = Autotuner::new(Meter::OpCount);
            let mut refused = Autotuner::new(Meter::OpCount);
            for (dtype, size) in &cases {
                let want = outcome(real.select(&lib, actor, *dtype, size));
                let got = outcome(refused.select(&refusing, actor, *dtype, size));
                assert_eq!(got, want, "{actor} {dtype} {size}");
            }
            assert_eq!(refused.history_to_text(), real.history_to_text(), "{actor}");
        }
        assert!(kinds >= 10, "covered {kinds} intensive kinds");
    }

    macro_rules! refusing {
        ($($f:ident),*) => {
            $(fn $f(_: &[Tensor]) -> Result<Tensor, KernelError> {
                Err(KernelError(stringify!($f).into()))
            })*
        };
    }
    refusing!(
        refuse_any,
        refuse_generic,
        refuse_naive_dft,
        refuse_radix2,
        refuse_radix4,
        refuse_mixed,
        refuse_bluestein
    );

    fn ops_max(_: &KernelSize) -> u64 {
        u64::MAX
    }

    #[test]
    fn wall_clock_never_picks_a_failing_candidate() {
        let lib = CodeLibrary::new().with_run(ActorKind::Fft, "radix4", refuse_radix4);
        let mut t = Autotuner::new(Meter::WallClock { reps: 1 });
        for n in [16, 64, 256, 1024, 1000] {
            let size = KernelSize(vec![n]);
            let (k, _) = t
                .select(&lib, ActorKind::Fft, DataType::F32, &size)
                .unwrap();
            assert_ne!(k.name, "radix4", "radix4 cannot run, at {n}");
            assert!(k.can_handle_size(&size), "{} at {n}", k.name);
        }
        assert_eq!(t.history_len(), 5);
    }

    #[test]
    fn wall_clock_all_failing_reports_last_failure_in_library_order() {
        let lib = CodeLibrary::new()
            .with_run(ActorKind::Fft, "generic", refuse_generic)
            .with_run(ActorKind::Fft, "naive_dft", refuse_naive_dft)
            .with_run(ActorKind::Fft, "radix2", refuse_radix2)
            .with_run(ActorKind::Fft, "radix4", refuse_radix4)
            .with_run(ActorKind::Fft, "mixed", refuse_mixed)
            .with_run(ActorKind::Fft, "bluestein", refuse_bluestein);
        let mut t = Autotuner::new(Meter::WallClock { reps: 1 });
        for n in [1, 4, 16, 1000, 1024] {
            // bluestein is listed last and accepts every length.
            let err = t
                .select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![n]))
                .unwrap_err();
            assert_eq!(
                err,
                SelectError::AllFailed {
                    actor: ActorKind::Fft,
                    last: KernelError("refuse_bluestein".into())
                },
                "at {n}"
            );
        }
        assert_eq!(t.history_len(), 0);
    }

    fn ops_one(_: &KernelSize) -> u64 {
        1
    }

    #[test]
    fn cost_ties_go_to_the_kernel_listed_first() {
        let lib = CodeLibrary::new()
            .with_ops(ActorKind::Fft, "bluestein", ops_one)
            .with_ops(ActorKind::Fft, "mixed", ops_one)
            .with_ops(ActorKind::Fft, "radix2", ops_one);
        let mut t = Autotuner::new(Meter::OpCount);
        let pick = |t: &mut Autotuner, n| {
            t.select(&lib, ActorKind::Fft, DataType::F32, &KernelSize(vec![n]))
                .unwrap()
                .0
                .name
        };
        assert_eq!(pick(&mut t, 1024), "radix2");
        assert_eq!(pick(&mut t, 1000), "mixed");
    }

    #[test]
    fn unmeasurable_candidates_leave_the_general_implementation() {
        let mut lib = CodeLibrary::new();
        for k in [
            "generic",
            "naive_dft",
            "radix2",
            "radix4",
            "mixed",
            "bluestein",
        ] {
            lib = lib.with_ops(ActorKind::Fft, k, ops_max);
        }
        let size = KernelSize(vec![64]);
        let mut t = Autotuner::new(Meter::OpCount);
        let (k, _) = t
            .select(&lib, ActorKind::Fft, DataType::F32, &size)
            .unwrap();
        assert_eq!(k.name, "generic");
        assert_eq!(t.history_for(ActorKind::Fft)[0].cost, u64::MAX);
    }

    #[test]
    fn history_hit_reapplies_the_filters() {
        let lib = CodeLibrary::new();
        let size = KernelSize(vec![1000]);
        let mut fresh = Autotuner::new(Meter::OpCount);
        let (want, _) = fresh
            .select(&lib, ActorKind::Fft, DataType::F32, &size)
            .unwrap();
        for stale in ["FFT f32 1000 radix4 1\n", "FFT f32 1000 no_such_kernel 1\n"] {
            let mut t = Autotuner::new(Meter::OpCount);
            t.load_history_text(stale);
            let (k, from_history) = t
                .select(&lib, ActorKind::Fft, DataType::F32, &size)
                .unwrap();
            assert!(!from_history, "{stale}");
            assert_eq!(k.name, want.name, "{stale}");
            assert_eq!(t.history_to_text(), fresh.history_to_text(), "{stale}");
        }
        // A stale entry that no kernel can replace is dropped, not kept.
        let mut t = Autotuner::new(Meter::OpCount);
        t.load_history_text("FFT i32 1024 radix4 1\n");
        assert!(t
            .select(&lib, ActorKind::Fft, DataType::I32, &KernelSize(vec![1024]))
            .is_err());
        assert_eq!(t.history_len(), 0);
    }

    #[test]
    fn non_intensive_select_errors() {
        let lib = CodeLibrary::new();
        let mut t = Autotuner::new(Meter::OpCount);
        assert!(matches!(
            t.select(&lib, ActorKind::Add, DataType::I32, &KernelSize(vec![4])),
            Err(SelectError::NoImplementation(_))
        ));
    }
}
