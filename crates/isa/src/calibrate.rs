//! Profile-guided cost-table calibration.
//!
//! The built-in `.isa` cost tables are issue-count estimates. The VM
//! execution profiler (`hcg_vm::profile`) reports what each instruction
//! *actually* costs under a concrete platform model — including effects
//! the static table cannot see, such as the extra latency an in-order
//! core pays on a fused multiply-accumulate's accumulator chain. A
//! [`CostCalibrator`] takes that per-instruction evidence through
//! [`CostCalibrator::record`] and produces a [`CostOverlay`]: a
//! per-architecture map of calibrated per-issue costs that
//! [`CostOverlay::apply`] patches over an [`InstrSet`] before the mapping
//! stage runs.
//!
//! This closes the loop the paper leaves open: profile the greedy
//! program, calibrate the table, re-map with the beam search
//! (`hcg_core::MappingSearch`) — the search then sees fused instructions
//! at their observed price and splits the ones that no longer pay.
//!
//! Calibration is deliberately separate from the deterministic
//! `Meter::OpCount` path used by the kernel autotuner — reproducible
//! tests keep their op-count costs; calibration is an opt-in overlay.

use crate::arch::Arch;
use crate::instr::InstrSet;
use std::collections::BTreeMap;

/// Calibrated per-issue costs, keyed by (architecture, instruction name).
///
/// Entries for other architectures are ignored by [`CostOverlay::apply`],
/// so one overlay can carry a whole multi-arch calibration run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostOverlay {
    entries: BTreeMap<(Arch, String), u32>,
}

impl CostOverlay {
    /// An empty overlay (applying it is the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the calibrated per-issue cost of one instruction.
    pub fn set_cost(&mut self, arch: Arch, name: &str, cost: u32) {
        self.entries.insert((arch, name.to_owned()), cost.max(1));
    }

    /// The calibrated cost for an instruction, when one was recorded.
    pub fn cost(&self, arch: Arch, name: &str) -> Option<u32> {
        self.entries.get(&(arch, name.to_owned())).copied()
    }

    /// Number of calibrated entries (across all architectures).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A copy of `set` with every calibrated cost patched in. Instructions
    /// without an entry (and entries for other architectures) are left
    /// untouched; patterns and code templates are never modified, so the
    /// overlaid set selects among the same instructions — only the cost
    /// ranking changes.
    pub fn apply(&self, set: &InstrSet) -> InstrSet {
        let mut out = set.clone();
        for instr in &mut out.instrs {
            if let Some(cost) = self.cost(set.arch, &instr.name) {
                instr.cost = cost;
            }
        }
        out
    }

    /// A stable textual fingerprint of this overlay's content: entries in
    /// sorted `(arch, name)` order as `arch:name=cost` segments. Equal
    /// overlays fingerprint identically, so the fingerprint works as a
    /// cache key for per-`(arch, overlay)` shared artifacts (see
    /// [`crate::sets::shared_indexed`]).
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for ((arch, name), cost) in &self.entries {
            if !out.is_empty() {
                out.push(';');
            }
            out.push_str(&format!("{arch}:{name}={cost}"));
        }
        out
    }

    /// Entries that differ from the costs in `set` — the interesting rows
    /// of a calibration report, as `(name, table cost, calibrated cost)`.
    pub fn deltas(&self, set: &InstrSet) -> Vec<(String, u32, u32)> {
        set.instrs
            .iter()
            .filter_map(|i| {
                self.cost(set.arch, &i.name)
                    .filter(|&c| c != i.cost)
                    .map(|c| (i.name.clone(), i.cost, c))
            })
            .collect()
    }
}

/// One aggregated per-instruction observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Observation {
    count: u64,
    cycles: u64,
}

/// Aggregates per-instruction cycle observations and derives a
/// [`CostOverlay`] (observed per-issue cost = `ceil(cycles / count)`).
///
/// # Examples
///
/// ```
/// use hcg_isa::{sets, Arch, CostCalibrator};
///
/// let mut cal = CostCalibrator::new();
/// // 256 fused multiply-accumulates cost 1024 cycles → 4 cycles/issue.
/// cal.record(Arch::Neon128, "vmlaq_s32", 256, 1024);
/// let overlay = cal.overlay();
/// assert_eq!(overlay.cost(Arch::Neon128, "vmlaq_s32"), Some(4));
/// let calibrated = overlay.apply(&sets::builtin(Arch::Neon128));
/// assert_eq!(calibrated.find("vmlaq_s32").unwrap().cost, 4);
/// // Unobserved instructions keep their table cost.
/// assert_eq!(calibrated.find("vaddq_s32").unwrap().cost, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostCalibrator {
    observed: BTreeMap<(Arch, String), Observation>,
}

impl CostCalibrator {
    /// An empty calibrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `count` issues of `name` on `arch` costing `cycles` total.
    /// Repeated records for one instruction accumulate.
    pub fn record(&mut self, arch: Arch, name: &str, count: u64, cycles: u64) {
        let slot = self.observed.entry((arch, name.to_owned())).or_default();
        slot.count += count;
        slot.cycles += cycles;
    }

    /// Number of distinct (arch, instruction) observations.
    pub fn len(&self) -> usize {
        self.observed.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty()
    }

    /// Derive the calibrated overlay: for every observed instruction, the
    /// per-issue cost rounded up (`ceil(cycles / count)`, floor 1).
    pub fn overlay(&self) -> CostOverlay {
        let mut out = CostOverlay::new();
        for ((arch, name), obs) in &self.observed {
            if obs.count == 0 {
                continue;
            }
            let per_issue = obs.cycles.div_ceil(obs.count).clamp(1, u32::MAX as u64);
            out.set_cost(*arch, name, per_issue as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets;

    #[test]
    fn overlay_applies_only_to_its_arch_and_named_instrs() {
        let mut ov = CostOverlay::new();
        ov.set_cost(Arch::Neon128, "vmlaq_s32", 4);
        ov.set_cost(Arch::Avx256, "_mm256_fmadd_ps", 5);
        assert_eq!(ov.len(), 2);

        let neon = ov.apply(&sets::builtin(Arch::Neon128));
        assert_eq!(neon.find("vmlaq_s32").unwrap().cost, 4);
        assert_eq!(neon.find("vaddq_s32").unwrap().cost, 1);
        assert_eq!(
            ov.deltas(&sets::builtin(Arch::Neon128)),
            vec![("vmlaq_s32".to_owned(), 2, 4)]
        );

        // The AVX entry does not leak into the NEON set and vice versa.
        let avx = ov.apply(&sets::builtin(Arch::Avx256));
        assert_eq!(avx.find("_mm256_fmadd_ps").unwrap().cost, 5);
        assert!(avx.find("vmlaq_s32").is_none());
    }

    #[test]
    fn calibrator_accumulates_and_rounds_up() {
        let mut cal = CostCalibrator::new();
        cal.record(Arch::Neon128, "vmlaq_s32", 100, 250);
        cal.record(Arch::Neon128, "vmlaq_s32", 100, 250);
        // 500 cycles over 200 issues → ceil(2.5) = 3.
        assert_eq!(cal.overlay().cost(Arch::Neon128, "vmlaq_s32"), Some(3));
        // Zero-count observations never produce an entry.
        cal.record(Arch::Avx256, "ghost", 0, 10);
        assert_eq!(cal.overlay().cost(Arch::Avx256, "ghost"), None);
    }
}
