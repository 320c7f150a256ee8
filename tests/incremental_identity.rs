//! Workspace gate for incremental recompilation: an [`EditSession`] must
//! produce a program identical to a from-scratch compile after *any* edit,
//! for every generator × architecture pair. Programs are compared whole,
//! constant initialisers included, which the C text does not show.
//!
//! Two layers of evidence:
//!
//! 1. targeted unit tests, one per [`EditOp`] family (parameter change,
//!    retype, rewire, actor addition, actor removal), on a hand-built
//!    model where the expected dirty region is known;
//! 2. the metamorphic edit oracle fanned over the [`hcg_exec`] pool:
//!    seeded random edit sequences against seeded random models, every
//!    intermediate model compiled both ways. Release builds run the full
//!    thousand-sequence sweep; debug builds run a fast subset so
//!    `cargo test` stays quick.

use hcg_core::EditSession;
use hcg_fuzz::oracle::{generator_named, ORACLE_ARCHES, ORACLE_GENERATORS};
use hcg_fuzz::{case_seed, run_edit_case, EditOracleConfig, GenConfig};
use hcg_model::delta::EditOp;
use hcg_model::{ActorKind, DataType, Model, ModelBuilder, ModelDelta, Param, SignalType};

/// Two chains sharing nothing: `a + b → neg → out1` and `c >> 1 → out2`.
/// Every edit family below touches exactly one chain, so the other
/// chain's cached region plan must survive — and the output program must
/// still match scratch exactly.
fn edit_bed() -> Model {
    let ty = SignalType::vector(DataType::I32, 8);
    let mut b = ModelBuilder::new("EditBed");
    let a = b.inport("a", ty);
    let b_in = b.inport("b", ty);
    let add = b.add_actor("add", ActorKind::Add);
    let neg = b.add_actor("neg", ActorKind::Neg);
    let o1 = b.outport("out1");
    b.connect(a, 0, add, 0);
    b.connect(b_in, 0, add, 1);
    b.connect(add, 0, neg, 0);
    b.connect(neg, 0, o1, 0);
    let c = b.inport("c", ty);
    let sh = b.shift("sh", ActorKind::Shr, 1);
    let o2 = b.outport("out2");
    b.connect(c, 0, sh, 0);
    b.connect(sh, 0, o2, 0);
    b.build().expect("edit bed is valid")
}

/// Compile the session's current model incrementally and from scratch for
/// every oracle generator × architecture, asserting program identity.
fn assert_matches_scratch(session: &mut EditSession, label: &str) {
    for g in ORACLE_GENERATORS {
        for arch in ORACLE_ARCHES {
            let generator = generator_named(g);
            let inc = session
                .generate(generator.as_ref(), arch)
                .unwrap_or_else(|e| panic!("{label}: incremental {g} on {arch}: {e}"));
            // A fresh generator on the scratch side: autotuner history
            // must neither mask nor cause a divergence.
            let fresh = generator_named(g)
                .generate(session.model(), arch)
                .unwrap_or_else(|e| panic!("{label}: scratch {g} on {arch}: {e}"));
            assert_eq!(inc, fresh, "{label}: {g} on {arch} diverged from scratch");
        }
    }
}

/// Warm a session on the edit bed, apply one delta, and check identity.
fn check_single_edit(delta: ModelDelta, label: &str) {
    let mut session = EditSession::new(edit_bed());
    assert_matches_scratch(&mut session, "cold");
    session
        .apply_delta(&delta)
        .unwrap_or_else(|e| panic!("{label}: apply: {e}"));
    assert_matches_scratch(&mut session, label);
}

#[test]
fn set_param_edit_matches_scratch() {
    check_single_edit(
        ModelDelta::single(EditOp::SetParam {
            name: "sh".into(),
            param: "amount".into(),
            value: Param::Int(3),
        }),
        "set-param",
    );
}

#[test]
fn set_kind_edit_matches_scratch() {
    // Retype the binary op; arity is unchanged but the delta is
    // structural, so the schedule is rebuilt.
    check_single_edit(
        ModelDelta::single(EditOp::SetKind {
            name: "add".into(),
            kind: ActorKind::Sub,
        }),
        "set-kind",
    );
}

#[test]
fn rewire_edit_matches_scratch() {
    // `neg` now consumes the shift chain's value instead of `add`'s.
    check_single_edit(
        ModelDelta::single(EditOp::Connect {
            from: ("sh".into(), 0),
            to: ("neg".into(), 0),
        }),
        "rewire",
    );
}

#[test]
fn add_actor_edit_matches_scratch() {
    // Tap the shift output into a new unary actor and outport.
    check_single_edit(
        ModelDelta {
            ops: vec![
                EditOp::AddActor {
                    name: "tap".into(),
                    kind: ActorKind::Neg,
                    params: Default::default(),
                },
                EditOp::AddActor {
                    name: "tap_out".into(),
                    kind: ActorKind::Outport,
                    params: Default::default(),
                },
                EditOp::Connect {
                    from: ("sh".into(), 0),
                    to: ("tap".into(), 0),
                },
                EditOp::Connect {
                    from: ("tap".into(), 0),
                    to: ("tap_out".into(), 0),
                },
            ],
        },
        "add-actor",
    );
}

#[test]
fn remove_actor_edit_matches_scratch() {
    // Bypass `neg`: route its driver straight to the consumer, then drop
    // the actor. ActorIds shift on removal — names must stay the key.
    check_single_edit(
        ModelDelta {
            ops: vec![
                EditOp::Connect {
                    from: ("add".into(), 0),
                    to: ("out1".into(), 0),
                },
                EditOp::RemoveActor { name: "neg".into() },
            ],
        },
        "remove-actor",
    );
}

#[test]
fn edit_sequence_accumulates_without_divergence() {
    // Several edits in a row on one session: identity must hold at every
    // intermediate model, not just the final one.
    let mut session = EditSession::new(edit_bed());
    assert_matches_scratch(&mut session, "cold");
    let edits = [
        ModelDelta::single(EditOp::SetParam {
            name: "sh".into(),
            param: "amount".into(),
            value: Param::Int(2),
        }),
        ModelDelta::single(EditOp::SetKind {
            name: "add".into(),
            kind: ActorKind::Max,
        }),
        ModelDelta::single(EditOp::SetParam {
            name: "sh".into(),
            param: "amount".into(),
            value: Param::Int(1),
        }),
    ];
    for (i, delta) in edits.iter().enumerate() {
        session
            .apply_delta(delta)
            .unwrap_or_else(|e| panic!("edit {i}: {e}"));
        assert_matches_scratch(&mut session, &format!("sequence edit {i}"));
    }
}

/// The headline gate: seeded random edit sequences, every intermediate
/// compiled incrementally and from scratch across all generators × ISAs,
/// zero divergences. Release builds sweep ≥1,000 sequences (the ISSUE
/// acceptance bar); debug builds run a 24-sequence smoke of the same
/// property so plain `cargo test` still exercises the path.
#[test]
fn random_edit_sequences_never_diverge() {
    const BASE_SEED: u64 = 0x1DE0_7E57;
    let sequences: usize = if cfg!(debug_assertions) { 24 } else { 1000 };
    let gen_cfg = GenConfig::default();
    let edit_cfg = EditOracleConfig::default();
    let jobs: Vec<_> = (0..sequences)
        .map(|i| {
            let gen_cfg = gen_cfg.clone();
            move || {
                let seed = case_seed(BASE_SEED, i);
                (seed, run_edit_case(seed, &gen_cfg, &edit_cfg))
            }
        })
        .collect();
    let mut failures = Vec::new();
    for result in hcg_exec::run_jobs(0, jobs) {
        let (seed, divergences) = result.unwrap_or_else(|p| panic!("edit case panicked: {p}"));
        for d in divergences {
            failures.push(format!("seed {seed:#018x}: [{}] {}", d.check, d.detail));
        }
    }
    assert!(
        failures.is_empty(),
        "{} divergence(s) across {sequences} edit sequences:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
