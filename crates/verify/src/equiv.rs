//! Translation validation: prove a generated program equivalent to its
//! model, or produce a first-divergence witness.

use crate::expr::ExprArena;
use crate::model_sem::model_semantics;
use crate::prog::eval_program;
use crate::VerifyError;
use hcg_model::Model;
use hcg_vm::{BufferKind, Program};

/// A first-divergence witness: the earliest checked element (outports in
/// declaration order, then delay states, elements ascending) whose symbolic
/// value differs from the model's reference semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Name of the diverging outport (or unit-delay state).
    pub port: String,
    /// `true` when the divergence is in a latched delay state rather than
    /// an outport.
    pub is_state: bool,
    /// Diverging element index.
    pub elem: usize,
    /// Index into `Program::body` of the top-level statement that last
    /// wrote the element — the statement to blame. `None` when no statement
    /// ever wrote it (e.g. a dropped statement left the initial zero).
    pub stmt: Option<usize>,
    /// Rendered reference tree (what the model computes).
    pub expected: String,
    /// Rendered program tree (what the generated code computes).
    pub actual: String,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = if self.is_state { "state" } else { "outport" };
        let at = match self.stmt {
            Some(s) => format!("statement {s}"),
            None => "no writing statement".to_owned(),
        };
        write!(
            f,
            "{what} {:?} element {} diverges at {at}: model computes {}, program computes {}",
            self.port, self.elem, self.expected, self.actual
        )
    }
}

/// Result of statically verifying one generated program.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// `true` when every outport element and every latched state matches
    /// the model's symbolic semantics.
    pub equivalent: bool,
    /// First divergence when not equivalent.
    pub witness: Option<Witness>,
    /// Number of outports checked.
    pub outports: usize,
    /// Number of delay states checked.
    pub states: usize,
    /// Total elements compared.
    pub elems: usize,
    /// Distinct expression nodes interned while proving (a size measure of
    /// the symbolic step).
    pub exprs: usize,
}

/// Statically prove that `prog` implements one step of `model`, without
/// executing either.
///
/// Both sides are interned into one shared [`ExprArena`], so equivalence is
/// an id comparison per element: the program side abstractly interprets the
/// statement list (unrolling loops, tracking registers), the model side
/// walks the scheduled dataflow graph. A structural match is a proof — both
/// trees describe the same arithmetic over the same symbolic leaves in the
/// same element types, so they evaluate identically on every input and
/// state. A mismatch yields the first-divergence [`Witness`].
///
/// The walk runs inside a `verify` tracing span; what it proved and how
/// much it interned is the returned [`VerifyOutcome`].
///
/// # Errors
///
/// Returns [`VerifyError`] when the model itself is invalid or the program
/// violates IR contracts (nested loops, out-of-range accesses) — conditions
/// that make the question "equivalent?" ill-posed rather than answer it.
pub fn verify_program(model: &Model, prog: &Program) -> Result<VerifyOutcome, VerifyError> {
    let _span = hcg_obs::span_with("verify", || {
        format!("{}/{}@{}", prog.generator, prog.name, prog.arch)
    });
    let mut arena = ExprArena::new();
    let semantics = model_semantics(&mut arena, model)?;
    let summary = eval_program(&mut arena, prog)?;

    let out_bufs = prog.buffers_of(BufferKind::Output);
    let state_bufs = prog.buffers_of(BufferKind::State);
    if out_bufs.len() != semantics.outports.len() {
        return Err(VerifyError::Unsupported(format!(
            "program has {} output buffer(s), model has {} outport(s)",
            out_bufs.len(),
            semantics.outports.len()
        )));
    }
    if state_bufs.len() != semantics.states.len() {
        return Err(VerifyError::Unsupported(format!(
            "program has {} state buffer(s), model has {} delay(s)",
            state_bufs.len(),
            semantics.states.len()
        )));
    }

    let mut elems = 0usize;
    let mut witness = None;
    let sides = semantics
        .outports
        .iter()
        .zip(&out_bufs)
        .map(|((name, trees), buf)| (name, trees, *buf, false))
        .chain(
            semantics
                .states
                .iter()
                .zip(&state_bufs)
                .map(|((name, trees), buf)| (name, trees, *buf, true)),
        );
    'outer: for (name, expected, buf, is_state) in sides {
        let actual = &summary.bufs[buf.0];
        if expected.len() != actual.len() {
            return Err(VerifyError::Unsupported(format!(
                "{:?}: model computes {} element(s), buffer holds {}",
                name,
                expected.len(),
                actual.len()
            )));
        }
        for (i, (&e, &a)) in expected.iter().zip(actual).enumerate() {
            elems += 1;
            if e != a {
                witness = Some(Witness {
                    port: name.clone(),
                    is_state,
                    elem: i,
                    stmt: summary.writer[buf.0][i],
                    expected: arena.render(e),
                    actual: arena.render(a),
                });
                break 'outer;
            }
        }
    }

    Ok(VerifyOutcome {
        equivalent: witness.is_none(),
        witness,
        outports: out_bufs.len(),
        states: state_bufs.len(),
        elems,
        exprs: arena.len(),
    })
}
