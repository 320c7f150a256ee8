//! Built-in instruction sets, loaded from the external `.isa` files shipped
//! with the crate (paper §3.3: instruction-set information lives in external
//! files so that supporting a new architecture only means writing a new
//! file).

use crate::arch::Arch;
use crate::calibrate::CostOverlay;
use crate::index::InstrIndex;
use crate::instr::InstrSet;
use crate::parse::instr_set_from_text;

/// Source text of the ARM NEON instruction-set file.
pub const NEON128_TEXT: &str = include_str!("../data/neon128.isa");
/// Source text of the Intel SSE4 instruction-set file.
pub const SSE128_TEXT: &str = include_str!("../data/sse128.isa");
/// Source text of the Intel AVX2+FMA instruction-set file.
pub const AVX256_TEXT: &str = include_str!("../data/avx256.isa");

/// Load the built-in instruction set of an architecture.
///
/// # Panics
///
/// Panics if a bundled `.isa` file fails to parse — that is a packaging bug,
/// covered by tests.
///
/// # Examples
///
/// ```
/// use hcg_isa::{sets, Arch};
/// let neon = sets::builtin(Arch::Neon128);
/// assert!(neon.find("vmlaq_s32").is_some());
/// assert!(neon.find("vhaddq_s32").is_some());
/// ```
pub fn builtin(arch: Arch) -> InstrSet {
    let text = match arch {
        Arch::Neon128 => NEON128_TEXT,
        Arch::Sse128 => SSE128_TEXT,
        Arch::Avx256 => AVX256_TEXT,
    };
    let set = instr_set_from_text(text).expect("bundled .isa files are valid");
    debug_assert_eq!(set.arch, arch);
    set
}

/// The built-in instruction set of an architecture together with its
/// [`InstrIndex`], parsed and bucketed once per process and shared behind a
/// `'static` reference.
///
/// [`builtin`] re-parses the `.isa` text on every call, which is fine for a
/// single compile but wasteful when a fleet of jobs (or an incremental
/// session recompiling after every edit) all want the same set. Call sites
/// that need ownership can still clone the pieces cheaply relative to a
/// re-parse.
pub fn builtin_indexed(arch: Arch) -> (&'static InstrSet, &'static InstrIndex) {
    use std::sync::OnceLock;
    static NEON: OnceLock<(InstrSet, InstrIndex)> = OnceLock::new();
    static SSE: OnceLock<(InstrSet, InstrIndex)> = OnceLock::new();
    static AVX: OnceLock<(InstrSet, InstrIndex)> = OnceLock::new();
    let cell = match arch {
        Arch::Neon128 => &NEON,
        Arch::Sse128 => &SSE,
        Arch::Avx256 => &AVX,
    };
    let pair = cell.get_or_init(|| {
        let set = builtin(arch);
        let index = InstrIndex::build(&set);
        (set, index)
    });
    (&pair.0, &pair.1)
}

/// The process-wide registry of `(arch, cost-overlay)` → shared
/// `(InstrSet, InstrIndex)` pairs.
///
/// [`builtin_indexed`] covers the common no-overlay case, but calibrated
/// compiles (`HcgOptions.cost_overlay`) used to re-patch the set and
/// rebuild the index *per compile* — per job on the fleet, per request in
/// a compile service. `shared_indexed` interns each distinct key once:
///
/// * `overlay == None` (or an empty overlay) delegates straight to the
///   [`builtin_indexed`] statics;
/// * a non-empty overlay is keyed by `(arch, overlay.fingerprint())`; the
///   first request patches a copy of the shared builtin set, builds its
///   index, and leaks the pair into a `'static` registry entry every later
///   request borrows.
///
/// Entries live for the rest of the process (they are deliberately leaked
/// — the registry is meant for the handful of calibration overlays a
/// process ever sees, exactly like the builtin statics). One registry
/// entry is built per key no matter how many threads race on it: the
/// build runs under the registry lock, so every caller of a key gets the
/// same `'static` pair.
pub fn shared_indexed(
    arch: Arch,
    overlay: Option<&CostOverlay>,
) -> (&'static InstrSet, &'static InstrIndex) {
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    let overlay = match overlay {
        Some(ov) if !ov.is_empty() => ov,
        _ => return builtin_indexed(arch),
    };

    type Registry = BTreeMap<(Arch, String), &'static (InstrSet, InstrIndex)>;
    static REGISTRY: Mutex<Registry> = Mutex::new(BTreeMap::new());
    let key = (arch, overlay.fingerprint());
    let mut registry = REGISTRY.lock().expect("isa registry lock poisoned");
    let pair = registry.entry(key).or_insert_with(|| {
        let set = overlay.apply(builtin_indexed(arch).0);
        let index = InstrIndex::build(&set);
        Box::leak(Box::new((set, index)))
    });
    (&pair.0, &pair.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::op::ElemOp;
    use hcg_model::DataType;

    #[test]
    fn builtin_indexed_is_shared_and_matches_fresh_build() {
        for arch in Arch::ALL {
            let (set1, idx1) = builtin_indexed(arch);
            let (set2, idx2) = builtin_indexed(arch);
            assert!(std::ptr::eq(set1, set2), "one parse per process");
            assert!(std::ptr::eq(idx1, idx2));
            assert_eq!(*set1, builtin(arch));
            assert_eq!(*idx1, crate::index::InstrIndex::build(set1));
        }
    }

    #[test]
    fn shared_indexed_without_overlay_is_the_builtin_static() {
        for arch in Arch::ALL {
            let (set, idx) = shared_indexed(arch, None);
            let (bset, bidx) = builtin_indexed(arch);
            assert!(std::ptr::eq(set, bset), "{arch}");
            assert!(std::ptr::eq(idx, bidx), "{arch}");
            // An empty overlay is the identity and must not mint a key.
            let (eset, _) = shared_indexed(arch, Some(&CostOverlay::new()));
            assert!(std::ptr::eq(eset, bset), "{arch}");
        }
    }

    #[test]
    fn shared_indexed_builds_once_per_arch_overlay_key() {
        let mut ov = CostOverlay::new();
        ov.set_cost(Arch::Neon128, "vmlaq_s32", 91);
        ov.set_cost(Arch::Avx256, "_mm256_fmadd_ps", 91);

        // Every request of one key borrows the same leaked entry …
        let (s1, i1) = shared_indexed(Arch::Neon128, Some(&ov));
        let (s2, i2) = shared_indexed(Arch::Neon128, Some(&ov));
        let (s3, _) = shared_indexed(Arch::Neon128, Some(&ov));
        assert!(std::ptr::eq(s1, s2) && std::ptr::eq(s1, s3));
        assert!(std::ptr::eq(i1, i2));
        // … and a second key (same overlay, different arch) gets its own.
        let (s4, i4) = shared_indexed(Arch::Avx256, Some(&ov));
        assert!(!std::ptr::eq(s1, s4) && !std::ptr::eq(i1, i4));
        assert_eq!(s4.arch, Arch::Avx256);
        // The entries really carry the patched costs.
        assert_eq!(s1.find("vmlaq_s32").unwrap().cost, 91);
        assert_eq!(s4.find("_mm256_fmadd_ps").unwrap().cost, 91);
        assert_eq!(*s1, ov.apply(&builtin(Arch::Neon128)));
        assert_eq!(*s4, ov.apply(&builtin(Arch::Avx256)));
        assert_eq!(*i1, crate::index::InstrIndex::build(s1));
    }

    #[test]
    fn overlay_fingerprints_are_stable_and_content_keyed() {
        let mut a = CostOverlay::new();
        a.set_cost(Arch::Neon128, "vaddq_s32", 3);
        a.set_cost(Arch::Sse128, "padd_w", 2);
        let mut b = CostOverlay::new();
        // Insertion order must not matter.
        b.set_cost(Arch::Sse128, "padd_w", 2);
        b.set_cost(Arch::Neon128, "vaddq_s32", 3);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), "neon128:vaddq_s32=3;sse128:padd_w=2");
        b.set_cost(Arch::Neon128, "vaddq_s32", 4);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(CostOverlay::new().fingerprint(), "");
    }

    #[test]
    fn all_builtin_sets_parse() {
        for arch in Arch::ALL {
            let set = builtin(arch);
            assert_eq!(set.arch, arch);
            assert!(!set.is_empty(), "{arch}");
        }
    }

    #[test]
    fn lane_counts_match_arch() {
        for arch in Arch::ALL {
            for i in &builtin(arch).instrs {
                assert_eq!(
                    i.lanes,
                    arch.lanes(i.dtype),
                    "{arch}: {} has {} lanes, register fits {}",
                    i.name,
                    i.lanes,
                    arch.lanes(i.dtype)
                );
            }
        }
    }

    #[test]
    fn patterns_respect_dtype_rules() {
        for arch in Arch::ALL {
            for i in &builtin(arch).instrs {
                for op in i.pattern.ops() {
                    assert!(
                        op.supports(i.dtype),
                        "{arch}: {} uses {op} on {}",
                        i.name,
                        i.dtype
                    );
                }
            }
        }
    }

    #[test]
    fn neon_has_paper_instructions() {
        let neon = builtin(Arch::Neon128);
        // Listing 1 of the paper.
        for name in ["vsubq_s32", "vhaddq_s32", "vmlaq_s32", "vaddq_s32"] {
            assert!(neon.find(name).is_some(), "{name}");
        }
        let vhadd = neon.find("vhaddq_s32").unwrap();
        assert_eq!(vhadd.pattern.op, ElemOp::Shr(1));
        assert_eq!(vhadd.pattern.node_count(), 2);
    }

    #[test]
    fn sse_has_no_compound_instructions() {
        let sse = builtin(Arch::Sse128);
        assert!(sse.instrs.iter().all(|i| i.pattern.node_count() == 1));
    }

    #[test]
    fn avx_has_fma_only_for_floats() {
        let avx = builtin(Arch::Avx256);
        let compounds: Vec<_> = avx
            .instrs
            .iter()
            .filter(|i| i.pattern.node_count() > 1)
            .collect();
        assert!(!compounds.is_empty());
        assert!(compounds.iter().all(|i| i.dtype.is_float()));
    }

    #[test]
    fn integer_division_absent_everywhere() {
        for arch in Arch::ALL {
            for i in &builtin(arch).instrs {
                if i.pattern.ops().contains(&ElemOp::Div) {
                    assert!(i.dtype.is_float(), "{arch}: {}", i.name);
                }
            }
        }
    }

    #[test]
    fn builtin_sets_roundtrip_through_text() {
        use crate::parse::{instr_set_from_text, instr_set_to_text};
        for arch in Arch::ALL {
            let set = builtin(arch);
            let back = instr_set_from_text(&instr_set_to_text(&set)).unwrap();
            assert_eq!(set, back, "{arch}");
        }
    }

    #[test]
    fn max_graph_bounds() {
        let neon = builtin(Arch::Neon128);
        assert_eq!(neon.max_depth(DataType::I32, 4), 2);
        assert_eq!(neon.max_nodes(DataType::I32, 4), 2);
        let sse = builtin(Arch::Sse128);
        assert_eq!(sse.max_depth(DataType::I32, 4), 1);
    }
}
