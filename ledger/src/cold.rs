//! `paper-cold` and `corpus-cold`: cold compiles from XML bytes to C text,
//! one fresh session and generator per compile, as hcg-serve compiles.

use crate::compile::{self, Work};
use crate::oracle::{self, fnv};
use crate::run::{twin, Outcome, Timings, Window, DIGEST_OPS, TAIL_OPS, TRACE_EVENT_OPS};
use crate::streams;
use crate::trace::Tracer;
use hcg_core::emit::to_c_source;
use hcg_core::{CodeGenerator, HcgGen};
use hcg_isa::Arch;
use hcg_model::parser::model_from_xml;
use hcg_model::Model;
use std::time::Instant;

/// The six paper benchmarks as committed XML, by short name.
pub const PAPER: [(&str, &str); 6] = [
    ("FFT", include_str!("../../examples/models/FFT_1024.xml")),
    ("DCT", include_str!("../../examples/models/DCT_1024.xml")),
    (
        "Conv",
        include_str!("../../examples/models/Conv_1024x64.xml"),
    ),
    (
        "HighPass",
        include_str!("../../examples/models/HighPass_1024.xml"),
    ),
    (
        "LowPass",
        include_str!("../../examples/models/LowPass_1024.xml"),
    ),
    ("FIR", include_str!("../../examples/models/FIR_1024t4.xml")),
];

/// The two evaluated targets (ARM NEON and Intel AVX).
pub const ARCHES: [Arch; 2] = [Arch::Neon128, Arch::Avx256];

/// Generated models in the `corpus-cold` corpus.
const CORPUS_MODELS: usize = 10_000;
/// Every this-many-th corpus compile is re-run on the VM against the
/// reference interpreter.
const CORPUS_CHECK_EVERY: u64 = 100;
/// Corpus models whose code quality the traced run reports.
const CORPUS_QUALITY_MODELS: usize = 50;

/// The paper models, parsed.
pub fn paper_models() -> Vec<(&'static str, Model)> {
    PAPER
        .iter()
        .map(|(name, xml)| {
            (
                *name,
                model_from_xml(xml).expect("committed paper models parse"),
            )
        })
        .collect()
}

/// Inputs of one cold workload.
pub struct Cold {
    paper: bool,
    seed: u64,
    xml: Vec<String>,
    /// Paper only: the C digest of every `(model, arch)` pair, which every
    /// timed compile of that pair must reproduce.
    expected: Vec<u64>,
}

/// A compile to re-check after the window: op index, input, arch, digest.
struct Check {
    input: usize,
    arch: Arch,
    digest: u64,
}

impl Cold {
    /// Build the inputs and compile once per warm-up input, so lazy
    /// process-wide state (interned instruction sets, metric names) is
    /// filled before the window opens.
    pub fn setup(paper: bool, seed: u64) -> Result<Cold, String> {
        let xml: Vec<String> = if paper {
            PAPER.iter().map(|(_, x)| (*x).to_owned()).collect()
        } else {
            streams::corpus(seed, 0, CORPUS_MODELS)
        };
        let warm = if paper { xml.len() } else { 1 };
        let mut expected = Vec::new();
        for x in &xml[..warm] {
            for arch in ARCHES {
                expected.push(fnv(compile::plain(x, arch)?.as_bytes()));
            }
        }
        Ok(Cold {
            paper,
            seed,
            xml,
            expected,
        })
    }

    /// Input and arch of op `i`: every twelve paper ops visit the twelve
    /// pairs in a seeded order; the corpus is swept model by model, both
    /// arches each.
    fn job(&self, i: u64) -> (usize, Arch) {
        let pair = if self.paper {
            let n = 2 * PAPER.len() as u64;
            streams::permutation(streams::mix(self.seed, i / n), n as usize)[(i % n) as usize]
        } else {
            (i % (2 * self.xml.len() as u64)) as usize
        };
        (pair / 2, ARCHES[pair % 2])
    }

    /// Judge op `i`'s output: digest it, compare paper outputs with their
    /// expected text, and queue every 100th corpus output for the VM.
    fn judge(
        &self,
        i: u64,
        input: usize,
        arch: Arch,
        result: Result<String, String>,
        out: &mut Outcome,
        checks: &mut Vec<Check>,
    ) {
        let c = match result {
            Ok(c) => c,
            Err(e) => return out.verdicts.fail(format!("op {i}: {e}")),
        };
        let digest = fnv(c.as_bytes());
        if i < DIGEST_OPS {
            out.digests.push((i, digest));
        }
        if self.paper {
            let pair = 2 * input + usize::from(arch == ARCHES[1]);
            if digest != self.expected[pair] {
                out.verdicts.fail(format!(
                    "op {i}: {} on {arch} changed C text",
                    PAPER[input].0
                ));
            }
        } else if i.is_multiple_of(CORPUS_CHECK_EVERY) {
            checks.push(Check {
                input,
                arch,
                digest,
            });
        }
    }

    /// After the window: run each checked program on the VM against the
    /// reference interpreter (every paper pair; every 100th corpus op).
    fn verify(&self, checks: Vec<Check>, out: &mut Outcome) {
        let checks = if self.paper {
            (0..2 * PAPER.len())
                .map(|pair| Check {
                    input: pair / 2,
                    arch: ARCHES[pair % 2],
                    digest: self.expected[pair],
                })
                .collect()
        } else {
            checks
        };
        for (k, check) in checks.iter().enumerate() {
            let verdict = model_from_xml(&self.xml[check.input])
                .map_err(|e| e.to_string())
                .and_then(|model| {
                    let program = HcgGen::new()
                        .generate(&model, check.arch)
                        .map_err(|e| e.to_string())?;
                    if fnv(to_c_source(&program).as_bytes()) != check.digest {
                        return Err("recompile differs from the timed compile".to_owned());
                    }
                    oracle::vm_matches_reference(&model, &program, self.seed ^ k as u64)
                });
            if let Err(e) = verdict {
                out.verdicts
                    .fail(format!("input {} on {}: {e}", check.input, check.arch));
            }
        }
    }

    /// The end-to-end run: plain compiles for the window, timed one by one.
    pub fn run(&self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let mut timings = Timings::new();
        let mut checks = Vec::new();
        let window = Window::open(seconds, TAIL_OPS);
        let mut i = 0;
        while !window.done(i) {
            let (input, arch) = self.job(i);
            let started = Instant::now();
            let result = compile::plain(&self.xml[input], arch);
            timings.record(&window, started, Instant::now());
            self.judge(i, input, arch, result, &mut out, &mut checks);
            i += 1;
        }
        out.attempted = i;
        out.set_end_to_end(&timings);
        self.verify(checks, &mut out);
        out
    }

    /// One traced op: compiled traced and plain (alternating which goes
    /// first); the two C texts must match. Returns the plain form's µs.
    fn traced_op(
        &self,
        i: u64,
        t: &mut Tracer,
        work: &mut Work,
        out: &mut Outcome,
        checks: &mut Vec<Check>,
    ) -> f64 {
        let (input, arch) = self.job(i);
        let xml = &self.xml[input];
        let ((traced, _), plain, plain_us) = twin(
            i,
            || t.op(|t| compile::traced(t, xml, arch, work)),
            || compile::plain(xml, arch),
        );
        let result = traced.and_then(|(c, pending)| {
            pending.settle(t)?;
            if plain.as_ref() != Ok(&c) {
                return Err("traced C text differs from the untraced compile".to_owned());
            }
            Ok(c)
        });
        self.judge(i, input, arch, result, out, checks);
        plain_us
    }

    /// The traced run.
    pub fn run_traced(&self, seconds: f64) -> (Outcome, Tracer) {
        crate::alloc::set_counting(true);
        let mut out = Outcome::default();
        let mut t = Tracer::new(TRACE_EVENT_OPS);
        let mut work = Work::default();
        let mut checks = Vec::new();
        let mut plain_us = 0.0;
        let window = Window::open(seconds, DIGEST_OPS);
        let mut i = 0;
        while !window.done(i) {
            plain_us += self.traced_op(i, &mut t, &mut work, &mut out, &mut checks);
            i += 1;
        }
        out.attempted = i;
        out.set_layers(&t, &work, plain_us);
        self.verify(checks, &mut out);
        let sample: Vec<(Model, Arch)> = if self.paper {
            paper_models()
                .into_iter()
                .flat_map(|(_, m)| ARCHES.map(|a| (m.clone(), a)))
                .collect()
        } else {
            self.xml[..CORPUS_QUALITY_MODELS]
                .iter()
                .filter_map(|x| model_from_xml(x).ok())
                .flat_map(|m| ARCHES.map(|a| (m.clone(), a)))
                .collect()
        };
        crate::run::set_code_quality(&mut out, &sample);
        (out, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus(seed: u64) -> Cold {
        Cold {
            paper: false,
            seed,
            xml: streams::corpus(seed, 0, 12),
            expected: Vec::new(),
        }
    }

    #[test]
    fn corrupted_output_counts_as_failed() {
        let paper = Cold::setup(true, 1).unwrap();
        let c = compile::plain(PAPER[0].1, ARCHES[0]).unwrap();
        let (mut out, mut checks) = (Outcome::default(), Vec::new());
        paper.judge(0, 0, ARCHES[0], Ok(c.clone()), &mut out, &mut checks);
        assert_eq!(out.verdicts.failed, 0);
        let corrupted = c.replacen(';', ",", 1);
        paper.judge(
            1,
            0,
            ARCHES[0],
            Ok(corrupted.clone()),
            &mut out,
            &mut checks,
        );
        assert_eq!(out.verdicts.failed, 1, "a corrupted paper output fails");

        // Corpus outputs are judged after the window, against the VM.
        let corpus = small_corpus(2);
        let mut out = Outcome::default();
        let (input, arch) = corpus.job(0);
        let c = compile::plain(&corpus.xml[input], arch).unwrap();
        corpus.judge(
            0,
            input,
            arch,
            Ok(c.replacen(';', ",", 1)),
            &mut out,
            &mut checks,
        );
        corpus.judge(100, input, arch, Ok(c), &mut out, &mut checks);
        corpus.verify(checks, &mut out);
        assert_eq!(out.verdicts.failed, 1, "{:?}", out.verdicts.notes);
    }

    #[test]
    fn traced_corpus_runs_count_identical_allocations() {
        crate::alloc::set_counting(true);
        let corpus = small_corpus(3);
        let run = || {
            let mut t = Tracer::new(0);
            let (mut work, mut out, mut checks) = (Work::default(), Outcome::default(), Vec::new());
            for i in 0..2 * corpus.xml.len() as u64 {
                corpus.traced_op(i, &mut t, &mut work, &mut out, &mut checks);
            }
            assert_eq!(out.verdicts.failed, 0, "{:?}", out.verdicts.notes);
            (t.alloc_counts(), work)
        };
        // The first pass fills process-wide lazy state (as set-up does
        // before a real run); from then on every pass counts the same.
        run();
        let first = run();
        let second = run();
        assert_eq!(first, second);
        for layer in [
            "model.parser",
            "core.regions",
            "core.mapping",
            "core.compose",
            "core.emit",
        ] {
            assert!(first.0[layer].0 > 0, "{layer} allocates");
        }
    }
}
