//! Model-level lints: every violation of the model checker
//! ([`Model::check`], the walk [`Model::infer_types`] also reads) plus the
//! lint-only passes — sanitized-name collisions, dangling outputs,
//! algebraic loops and reachability.
//!
//! The checker records every violation rather than the first, so one bad
//! wire does not hide another, and a model lints with an error exactly
//! when the compiler rejects it.

use crate::diagnostics::{LintCode, LintReport, Location};
use hcg_model::{Actor, ActorKind, Model, ModelFault, ModelViolation, Param, ParamFault, PortRef};
use std::collections::{BTreeMap, BTreeSet};

/// Run every model lint and collect the findings.
pub fn lint_model(model: &Model) -> LintReport {
    let mut r = LintReport::new(&model.name);
    let drivers = drivers(model);
    for v in &model.check() {
        push_model_violation(&mut r, model, v, &drivers);
    }
    if model.actors.is_empty() {
        return r;
    }
    lint_sanitized_collisions(model, &mut r);
    lint_dangling_outputs(model, &mut r);
    lint_cycles(model, &mut r);
    lint_reachability(model, &mut r);
    r
}

fn at(actor: &Actor) -> Location {
    Location::Actor {
        name: actor.name.clone(),
        port: None,
    }
}

/// Render a port end with the actor name when the id resolves.
fn port_label(model: &Model, p: PortRef) -> String {
    match model.actors.get(p.actor.0) {
        Some(a) => format!("{}:{}", a.name, p.port),
        None => format!("{}:{}", p.actor, p.port),
    }
}

/// One checker violation as a diagnostic: its code, where it points, and a
/// message naming the values at fault.
fn push_model_violation(
    r: &mut LintReport,
    model: &Model,
    v: &ModelViolation,
    drivers: &BTreeMap<PortRef, Vec<PortRef>>,
) {
    use LintCode as C;
    use ModelFault::*;
    let code = match v.fault {
        Empty => C::EmptyModel,
        DuplicateName => C::DuplicateActorName,
        MissingParam(_) => C::MissingParam,
        UnknownActor { .. } => C::UnknownActorId,
        PortOutOfRange { .. } => C::PortOutOfRange,
        DuplicateWire(_) => C::DuplicateConnection,
        SecondDriver(_) => C::DuplicateInputDriver,
        UnconnectedInput => C::UnconnectedInput,
        BadParam(..) | ValueLength(..) => C::BadParam,
        NotFloat(_) | NotInt(_) | MixedDtypes(..) => C::DtypeMismatch,
        Unresolved => C::UnresolvedType,
        _ => C::ScaleMismatch,
    };
    let a = v.actor.map(|id| model.actor(id));
    let location = match (v.fault, a) {
        (UnknownActor { wire, .. } | PortOutOfRange { wire, .. } | DuplicateWire(wire), _) => {
            let c = model.connections[wire];
            Location::Connection {
                from: port_label(model, c.from),
                to: port_label(model, c.to),
            }
        }
        (_, Some(a)) => Location::Actor {
            name: a.name.clone(),
            port: v.port,
        },
        (_, None) => Location::Global,
    };
    let name = a.map_or("", |a| a.name.as_str());
    let kind = a.map_or("", |a| a.kind.name());
    let message = match v.fault {
        Empty => "model contains no actors".to_owned(),
        DuplicateName => format!("actor name {name:?} is used more than once"),
        MissingParam(p) => format!("{kind} requires parameter {p:?}"),
        UnknownActor { id, .. } => format!("references unknown actor {id}"),
        PortOutOfRange { output, .. } => {
            let (side, limit) = match a.map(|a| a.kind) {
                Some(k) if output => ("output", k.output_count()),
                k => ("input", k.map_or(0, ActorKind::input_count)),
            };
            let port = v.port.unwrap_or(0);
            format!("{side} port {port} out of range on {name} ({kind} has {limit})")
        }
        DuplicateWire(_) => "the same wire appears more than once".to_owned(),
        SecondDriver(wire) => {
            let froms = &drivers[&model.connections[wire].to];
            let labels: Vec<String> = froms.iter().map(|f| port_label(model, *f)).collect();
            format!(
                "input driven by {} different outputs: {}",
                froms.len(),
                labels.join(", ")
            )
        }
        UnconnectedInput => format!("input port {} of {kind} has no driver", v.port.unwrap_or(0)),
        BadParam(param, why) => format!("parameter {param:?}: {}", param_fault(a, why)),
        ValueLength(len, ty) => format!(
            "parameter \"value\": has {len} elements, type {ty} needs {} (or 1)",
            ty.len()
        ),
        NotFloat(d) => format!("{kind} requires floating-point input, got {d}"),
        NotInt(d) => format!("{kind} requires integer input, got {d}"),
        MixedDtypes(x, y) if kind == "Switch" => {
            format!("Switch data inputs mix dtypes {x} and {y}")
        }
        MixedDtypes(x, y) => format!("{kind} inputs mix dtypes {x} and {y}"),
        ShapeMismatch(x, y) if kind == "Switch" => {
            format!("Switch data input scales differ: {x} vs {y}")
        }
        ShapeMismatch(x, y) => {
            format!("{kind} input scales differ: {x} vs {y} (only scalar broadcast allowed)")
        }
        ControlShape(control, data) => {
            format!("Switch control scale {control} is neither scalar nor the data scale {data}")
        }
        NeedsMatrix(got) => format!("{kind} needs a matrix input, got {got}"),
        NeedsMatrices(x, y) => format!("{kind} needs matrix inputs, got {x} and {y}"),
        InnerDims(k1, k2) => format!("{kind} inner dimensions differ: {k1} vs {k2}"),
        NotSquare(rows, cols) => format!("{kind} needs a square matrix, got {rows}x{cols}"),
        NeedsVector(got) => format!("{kind} needs a vector input, got {got}"),
        NeedsVectors(x, y) => format!("{kind} needs vector inputs, got {x} and {y}"),
        EmptyInput => format!("{kind} input is empty"),
        SizeOverflow => format!("{kind} output has more elements than fit a usize"),
        OddLength(len) => {
            format!("IFFT input is interleaved complex and must have even length, got {len}")
        }
        Unresolved => format!(
            "{kind} output type cannot be inferred; an untyped loop needs a UnitDelay \"type\""
        ),
    };
    r.push(code, location, message);
}

/// Why a parameter is rejected, in words.
fn param_fault(a: Option<&Actor>, why: ParamFault) -> String {
    match why {
        ParamFault::NotSignalType => {
            "not a valid signal type (expected e.g. \"f32*1024\")".to_owned()
        }
        ParamFault::NotNumber => "not a number".to_owned(),
        ParamFault::NotNumeric => "not numeric".to_owned(),
        ParamFault::NotInteger => "not an integer".to_owned(),
        ParamFault::ShiftRange(v) => format!("shift amount {v} outside 0..=63"),
        ParamFault::InvertedBounds(min, max) => {
            format!("lower bound {min} exceeds upper bound {max}")
        }
        ParamFault::UnknownDtype => match a.and_then(|a| a.param("to")) {
            Some(Param::Str(s)) => format!("unknown data type {s:?}"),
            _ => "unknown data type".to_owned(),
        },
        ParamFault::NotDtypeName => "expected a data type name".to_owned(),
    }
}

/// The distinct sources wired into each input, in wire order, counting
/// only wires whose ends both name real ports.
fn drivers(model: &Model) -> BTreeMap<PortRef, Vec<PortRef>> {
    let real = |p: PortRef, output: bool| {
        model.actors.get(p.actor.0).is_some_and(|a| match output {
            true => p.port < a.kind.output_count(),
            false => p.port < a.kind.input_count(),
        })
    };
    let mut seen = BTreeSet::new();
    let mut drivers: BTreeMap<PortRef, Vec<PortRef>> = BTreeMap::new();
    for c in &model.connections {
        if real(c.from, true) && real(c.to, false) && seen.insert((c.from, c.to)) {
            drivers.entry(c.to).or_default().push(c.from);
        }
    }
    drivers
}

/// Distinct actor names that sanitize to the same C identifier would fight
/// over one buffer name; code generation deduplicates with a numeric suffix,
/// but the model author should know the generated names won't match the
/// model names. Exact duplicates are already [`LintCode::DuplicateActorName`].
fn lint_sanitized_collisions(model: &Model, r: &mut LintReport) {
    let mut groups: BTreeMap<String, Vec<&Actor>> = BTreeMap::new();
    for a in &model.actors {
        groups
            .entry(hcg_model::naming::sanitize_identifier(&a.name).into_owned())
            .or_default()
            .push(a);
    }
    for (ident, actors) in groups {
        let mut distinct: Vec<&str> = actors.iter().map(|a| a.name.as_str()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() > 1 {
            r.push(
                LintCode::SanitizedNameCollision,
                at(actors[0]),
                format!(
                    "actor names {} all sanitize to identifier {ident:?}; generated buffer names get numeric suffixes",
                    distinct
                        .iter()
                        .map(|n| format!("{n:?}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
        }
    }
}

/// Outputs no wire reads: the value is computed and thrown away.
fn lint_dangling_outputs(model: &Model, r: &mut LintReport) {
    for a in &model.actors {
        for p in 0..a.kind.output_count() {
            let port = PortRef::new(a.id, p);
            if !model.connections.iter().any(|c| c.from == port) {
                let at = Location::Actor {
                    name: a.name.clone(),
                    port: Some(p),
                };
                let message = format!("output port {p} of {} drives nothing", a.kind);
                r.push(LintCode::DanglingOutput, at, message);
            }
        }
    }
}

/// Cycle detection matching the scheduler's convention: edges leaving a
/// `UnitDelay` carry last step's value and do not order execution, so only
/// cycles with no `UnitDelay` source are algebraic.
fn lint_cycles(model: &Model, r: &mut LintReport) {
    let n = model.actors.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in &model.connections {
        let (f, t) = (c.from.actor.0, c.to.actor.0);
        if f < n && t < n && model.actors[f].kind != ActorKind::UnitDelay {
            succ[f].push(t);
        }
    }
    // Iterative DFS three-colour cycle detection; every distinct back edge
    // yields one diagnostic naming the cycle's actors.
    let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    for root in 0..n {
        if colour[root] != 0 {
            continue;
        }
        // Stack of (node, next-successor-index); `path` mirrors the grey chain.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        let mut path: Vec<usize> = vec![root];
        colour[root] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < succ[node].len() {
                let s = succ[node][*next];
                *next += 1;
                match colour[s] {
                    0 => {
                        colour[s] = 1;
                        stack.push((s, 0));
                        path.push(s);
                    }
                    1 => {
                        // Back edge: the cycle is the path suffix from `s`.
                        let start = path.iter().position(|&p| p == s).unwrap_or(0);
                        let mut cycle: Vec<usize> = path[start..].to_vec();
                        cycle.sort_unstable();
                        if reported.insert(cycle.clone()) {
                            let names: Vec<&str> = cycle
                                .iter()
                                .map(|&i| model.actors[i].name.as_str())
                                .collect();
                            r.push(
                                LintCode::AlgebraicLoop,
                                at(&model.actors[s]),
                                format!(
                                    "combinational cycle through {} (insert a UnitDelay)",
                                    names.join(" -> ")
                                ),
                            );
                        }
                    }
                    _ => {}
                }
            } else {
                colour[node] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
}

fn lint_reachability(model: &Model, r: &mut LintReport) {
    let outports: Vec<usize> = model
        .actors
        .iter()
        .filter(|a| a.kind == ActorKind::Outport)
        .map(|a| a.id.0)
        .collect();
    if outports.is_empty() {
        r.push(
            LintCode::NoOutput,
            Location::Global,
            "model has no Outport; generated code would compute nothing observable",
        );
        // Without sinks every actor would be "unreachable" — skip the sweep
        // rather than flood the report.
        return;
    }
    let n = model.actors.len();
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in &model.connections {
        let (f, t) = (c.from.actor.0, c.to.actor.0);
        if f < n && t < n {
            pred[t].push(f);
        }
    }
    let mut live = vec![false; n];
    let mut queue = outports;
    while let Some(i) = queue.pop() {
        if std::mem::replace(&mut live[i], true) {
            continue;
        }
        queue.extend(pred[i].iter().copied());
    }
    for a in &model.actors {
        if !live[a.id.0] {
            r.push(
                LintCode::UnreachableActor,
                at(a),
                format!("{} feeds no Outport and is dead code", a.kind),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::{DataType, ModelBuilder, SignalType};

    fn f32v(n: usize) -> SignalType {
        SignalType::vector(DataType::F32, n)
    }

    /// `x -> a -> y`, with `x` of type `ty` and `a` of `kind`.
    fn unary(kind: ActorKind, ty: SignalType, params: &[(&str, Param)]) -> LintReport {
        let mut b = ModelBuilder::new("unary");
        let x = b.inport("x", ty);
        let a = b.add_actor("a", kind);
        for (name, value) in params {
            b.set_param(a, *name, value.clone());
        }
        let y = b.outport("y");
        b.connect(x, 0, a, 0);
        b.connect(a, 0, y, 0);
        lint_model(&b.build_unchecked())
    }

    /// `x, h -> a -> y`.
    fn binary(kind: ActorKind, x_ty: SignalType, h_ty: SignalType) -> LintReport {
        let mut b = ModelBuilder::new("binary");
        let x = b.inport("x", x_ty);
        let h = b.inport("h", h_ty);
        let a = b.add_actor("a", kind);
        let y = b.outport("y");
        b.connect(x, 0, a, 0);
        b.connect(h, 0, a, 1);
        b.connect(a, 0, y, 0);
        lint_model(&b.build_unchecked())
    }

    fn clean_chain() -> Model {
        let mut b = ModelBuilder::new("chain");
        let x = b.inport("x", SignalType::vector(DataType::I32, 8));
        let c = b.constant("k", SignalType::vector(DataType::I32, 8), vec![1.0; 8]);
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("y");
        b.connect(x, 0, add, 0);
        b.connect(c, 0, add, 1);
        b.connect(add, 0, o, 0);
        b.build().unwrap()
    }

    #[test]
    fn clean_model_has_no_findings() {
        let r = lint_model(&clean_chain());
        assert!(r.diagnostics.is_empty(), "unexpected: {}", r.render());
    }

    #[test]
    fn empty_model() {
        let m = Model {
            name: "empty".into(),
            actors: vec![],
            connections: vec![],
        };
        let r = lint_model(&m);
        assert!(r.has(LintCode::EmptyModel));
    }

    #[test]
    fn duplicate_actor_name() {
        let mut b = ModelBuilder::new("dup");
        let x = b.inport("same", SignalType::scalar(DataType::F32));
        let o = b.add_actor("same", ActorKind::Outport);
        b.connect(x, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::DuplicateActorName));
    }

    #[test]
    fn unknown_actor_id() {
        let mut m = clean_chain();
        m.connections.push(hcg_model::Connection {
            from: PortRef::new(hcg_model::ActorId(99), 0),
            to: PortRef::new(m.actors[3].id, 0),
        });
        let r = lint_model(&m);
        assert!(r.has(LintCode::UnknownActorId));
    }

    #[test]
    fn port_out_of_range() {
        let mut b = ModelBuilder::new("port");
        let x = b.inport("x", SignalType::scalar(DataType::F32));
        let o = b.outport("y");
        b.connect(x, 0, o, 0);
        b.connect(x, 5, o, 0); // Inport has 1 output port
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::PortOutOfRange));
    }

    #[test]
    fn duplicate_input_driver_vs_duplicate_connection() {
        // Same wire twice: a repeated wire, not a second driver.
        let mut b = ModelBuilder::new("dupconn");
        let x = b.inport("x", SignalType::scalar(DataType::F32));
        let o = b.outport("y");
        b.connect(x, 0, o, 0);
        b.connect(x, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::DuplicateConnection));
        assert!(!r.has(LintCode::DuplicateInputDriver));

        // Two different drivers: error.
        let mut b = ModelBuilder::new("two-drivers");
        let x = b.inport("x", SignalType::scalar(DataType::F32));
        let z = b.inport("z", SignalType::scalar(DataType::F32));
        let o = b.outport("y");
        b.connect(x, 0, o, 0);
        b.connect(z, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::DuplicateInputDriver));
        assert!(!r.has(LintCode::DuplicateConnection));
    }

    #[test]
    fn unconnected_input_and_dangling_output() {
        let mut b = ModelBuilder::new("loose");
        let _x = b.inport("x", SignalType::scalar(DataType::F32)); // dangles
        let add = b.add_actor("sum", ActorKind::Add); // both inputs loose
        let o = b.outport("y");
        b.connect(add, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.code == LintCode::UnconnectedInput)
                .count(),
            2
        );
        assert!(r.has(LintCode::DanglingOutput));
    }

    #[test]
    fn missing_param() {
        // No "gain" parameter.
        assert!(unary(ActorKind::Gain, f32v(4), &[]).has(LintCode::MissingParam));
    }

    #[test]
    fn bad_param_values() {
        let i32v = SignalType::vector(DataType::I32, 4);
        let shift = unary(ActorKind::Shr, i32v, &[("amount", Param::Int(99))]);
        assert!(shift.has(LintCode::BadParam));
        let bounds = [("min", Param::Float(2.0)), ("max", Param::Float(-2.0))];
        assert!(unary(ActorKind::Saturate, f32v(4), &bounds).has(LintCode::BadParam));
    }

    #[test]
    fn dtype_mismatch_across_connection() {
        let i32v = SignalType::vector(DataType::I32, 4);
        assert!(binary(ActorKind::Add, i32v, f32v(4)).has(LintCode::DtypeMismatch));
    }

    #[test]
    fn scale_mismatch_across_connection() {
        let r = binary(ActorKind::Add, f32v(4), f32v(8));
        assert!(r.has(LintCode::ScaleMismatch));
        assert!(!r.has(LintCode::DtypeMismatch));
    }

    #[test]
    fn scalar_broadcast_is_not_a_scale_mismatch() {
        let r = binary(ActorKind::Mul, f32v(16), SignalType::scalar(DataType::F32));
        assert!(r.diagnostics.is_empty(), "unexpected: {}", r.render());
    }

    #[test]
    fn float_only_actor_with_int_input() {
        let i32v = SignalType::vector(DataType::I32, 8);
        assert!(unary(ActorKind::Fft, i32v, &[]).has(LintCode::DtypeMismatch));
    }

    #[test]
    fn algebraic_loop_detected() {
        // add -> abs -> add with no delay: combinational cycle.
        let mut b = ModelBuilder::new("loop");
        let x = b.inport("x", SignalType::vector(DataType::F32, 4));
        let add = b.add_actor("sum", ActorKind::Add);
        let abs = b.add_actor("mag", ActorKind::Abs);
        let o = b.outport("y");
        b.connect(x, 0, add, 0);
        b.connect(add, 0, abs, 0);
        b.connect(abs, 0, add, 1);
        b.connect(add, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::AlgebraicLoop));
    }

    #[test]
    fn delay_broken_loop_is_fine() {
        let mut b = ModelBuilder::new("acc");
        let x = b.inport("x", SignalType::vector(DataType::F32, 8));
        let add = b.add_actor("sum", ActorKind::Add);
        let d = b.add_actor("z1", ActorKind::UnitDelay);
        let o = b.outport("y");
        b.connect(x, 0, add, 0);
        b.connect(d, 0, add, 1);
        b.connect(add, 0, d, 0);
        b.connect(add, 0, o, 0);
        let r = lint_model(&b.build().unwrap());
        assert!(!r.has(LintCode::AlgebraicLoop), "got: {}", r.render());
        assert!(!r.has_errors(), "got: {}", r.render());
    }

    #[test]
    fn unreachable_actor_detected() {
        let mut b = ModelBuilder::new("dead");
        let x = b.inport("x", SignalType::vector(DataType::F32, 4));
        let o = b.outport("y");
        b.connect(x, 0, o, 0);
        // A side chain feeding nothing.
        let z = b.inport("z", SignalType::vector(DataType::F32, 4));
        let n = b.add_actor("negate", ActorKind::Neg);
        b.connect(z, 0, n, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::UnreachableActor));
    }

    #[test]
    fn no_output_detected() {
        let mut b = ModelBuilder::new("sink-less");
        let x = b.inport("x", SignalType::vector(DataType::F32, 4));
        let n = b.add_actor("negate", ActorKind::Neg);
        b.connect(x, 0, n, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::NoOutput));
        // No unreachable flood without sinks.
        assert!(!r.has(LintCode::UnreachableActor));
    }

    #[test]
    fn one_run_collects_all_findings() {
        // Algebraic loop AND a dtype-mismatched connection in one model —
        // both must appear in one report (first-error APIs show only one).
        let mut b = ModelBuilder::new("malformed");
        let x = b.inport("x", SignalType::vector(DataType::I32, 4));
        let y = b.inport("y", SignalType::vector(DataType::F32, 4));
        let mix = b.add_actor("mix", ActorKind::Add);
        let add = b.add_actor("sum", ActorKind::Add);
        let abs = b.add_actor("mag", ActorKind::Abs);
        let o = b.outport("o");
        b.connect(x, 0, mix, 0);
        b.connect(y, 0, mix, 1); // dtype mismatch
        b.connect(mix, 0, add, 0);
        b.connect(add, 0, abs, 0);
        b.connect(abs, 0, add, 1); // algebraic loop
        b.connect(add, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::DtypeMismatch), "report: {}", r.render());
        assert!(r.has(LintCode::AlgebraicLoop), "report: {}", r.render());
    }
}
