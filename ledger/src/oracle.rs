//! Correctness oracles and generated-code measurements.
//!
//! Every check here is independent of the compile it judges: generated
//! programs run on the hcg-vm against `hcg_core::Reference` (a separate
//! interpreter of the model semantics), and C text is compared byte for
//! byte against a second, independently driven compile.

use hcg_baselines::SimulinkCoderGen;
use hcg_core::{CodeGenerator, CompileSession, HcgGen, Reference};
use hcg_isa::Arch;
use hcg_kernels::CodeLibrary;
use hcg_model::Model;
use hcg_vm::{Compiler, CostModel, Machine, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a, the digest printed for C text.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One digest over many C text digests, each tagged with its op index:
/// order-sensitive in the op index, whatever order they were collected in
/// (serve clients finish requests concurrently).
pub fn digest_of(mut digests: Vec<(u64, u64)>) -> u64 {
    digests.sort_unstable();
    digests.iter().fold(0xcbf2_9ce4_8422_2325, |h, &(_, d)| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17)
    })
}

/// Tally of oracle verdicts. `failed` counts ops whose output a check
/// rejected; a failed compile counts too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdicts {
    pub failed: u64,
    /// The first few failure descriptions, for the transcript.
    pub notes: Vec<String>,
}

impl Verdicts {
    pub fn fail(&mut self, note: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    pub fn merge(&mut self, other: Verdicts) {
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// Run `program` for two steps on seeded inputs and compare every outport
/// with the reference interpreter: integer outputs exactly, float outputs
/// within 1e-4 relative (intensive kernels differ from the reference's
/// direct formulas by rounding).
pub fn vm_matches_reference(model: &Model, program: &Program, seed: u64) -> Result<(), String> {
    let lib = CodeLibrary::new();
    let mut reference = Reference::new(model).map_err(|e| format!("reference: {e}"))?;
    let mut machine = Machine::new(program, &lib);
    let types = model.infer_types().map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..2 {
        let inputs = hcg_fuzz::oracle::random_inputs(model, &mut rng);
        let expected = reference
            .step(&inputs)
            .map_err(|e| format!("reference step {step}: {e}"))?;
        for (name, value) in &inputs {
            machine
                .set_input(name, value)
                .map_err(|e| format!("set {name}: {e}"))?;
        }
        machine.step().map_err(|e| format!("vm step {step}: {e}"))?;
        for (name, want) in &expected {
            let got = machine
                .read_buffer(name)
                .map_err(|e| format!("read {name}: {e}"))?;
            let is_float = model
                .actor_by_name(name)
                .and_then(|a| {
                    types
                        .inputs_of(model, a.id)
                        .first()
                        .map(|t| t.dtype.is_float())
                })
                .unwrap_or(true);
            let scale = want.as_f64().iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
            let diff = got.max_abs_diff(want) / scale;
            let tolerance = if is_float { 1e-4 } else { 0.0 };
            if diff.is_nan() || diff > tolerance {
                return Err(format!(
                    "outport {name} step {step}: relative diff {diff:e}"
                ));
            }
        }
    }
    Ok(())
}

/// Modeled cycles of one step on the paper's primary compiler model.
pub fn cycles(program: &Program) -> u64 {
    CostModel::new(program.arch, Compiler::GccLike).cycles(program, &CodeLibrary::new())
}

/// Generated-code measurements over a sample of `(model, arch)` compiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeQuality {
    pub hcg_cycles_geomean: f64,
    pub speedup_vs_coder_geomean: f64,
    pub hcg_data_bytes: u64,
}

/// HCG and Simulink-Coder-like programs for every sample entry: geomean
/// HCG cycles, geomean Coder/HCG cycle ratio and summed HCG data bytes.
pub fn code_quality(sample: &[(Model, Arch)]) -> Result<CodeQuality, String> {
    let (mut hcg, mut ratio, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for (model, arch) in sample {
        let session = CompileSession::new(model.clone());
        let compile = |g: &dyn CodeGenerator| {
            session
                .generate(g, *arch)
                .map_err(|e| format!("{} on {arch}: {e}", model.name))
        };
        let h = compile(&HcgGen::new())?;
        let coder = compile(&SimulinkCoderGen::new())?;
        let hc = cycles(&h).max(1) as f64;
        hcg.push(hc);
        ratio.push(cycles(&coder).max(1) as f64 / hc);
        bytes += h.memory_footprint() as u64;
    }
    if hcg.is_empty() {
        return Err("empty generated-code sample".to_owned());
    }
    Ok(CodeQuality {
        hcg_cycles_geomean: crate::stats::geomean(&hcg),
        speedup_vs_coder_geomean: crate::stats::geomean(&ratio),
        hcg_data_bytes: bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::library;

    #[test]
    fn vm_oracle_accepts_real_and_rejects_broken_programs() {
        let model = library::fig4_model();
        let mut program = HcgGen::new().generate(&model, Arch::Neon128).unwrap();
        vm_matches_reference(&model, &program, 1).unwrap();
        // Dropping the last statement leaves an outport unwritten.
        program.body.pop();
        assert!(vm_matches_reference(&model, &program, 1).is_err());
    }

    #[test]
    fn digest_follows_op_order_not_arrival_order() {
        let a = digest_of(vec![(0, 1), (1, 2)]);
        assert_eq!(a, digest_of(vec![(1, 2), (0, 1)]));
        assert_ne!(a, digest_of(vec![(0, 2), (1, 1)]));
    }
}
