//! Model-level lints: structural problems, parameter contracts, connection
//! type/scale consistency, algebraic loops and reachability.
//!
//! Unlike [`Model::validate_structure`] and [`Model::infer_types`], which
//! stop at the first error, every pass here records all findings. Type
//! checking uses a tolerant local propagation that keeps going past
//! inconsistencies so that one bad wire does not hide another.

use crate::diagnostics::{LintCode, LintReport, Location};
use hcg_model::{Actor, ActorKind, DataType, Model, Param, PortRef, Shape, SignalType};
use std::collections::{BTreeMap, BTreeSet};

/// Run every model lint and collect the findings.
pub fn lint_model(model: &Model) -> LintReport {
    let mut r = LintReport::new(&model.name);
    if model.actors.is_empty() {
        r.push(
            LintCode::EmptyModel,
            Location::Global,
            "model contains no actors",
        );
        return r;
    }
    lint_names_and_params(model, &mut r);
    lint_sanitized_collisions(model, &mut r);
    lint_connections(model, &mut r);
    lint_types(model, &mut r);
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

fn at_port(actor: &Actor, port: usize) -> Location {
    Location::Actor {
        name: actor.name.clone(),
        port: Some(port),
    }
}

/// Render a port end with the actor name when the id resolves.
fn port_label(model: &Model, p: PortRef) -> String {
    match model.actors.get(p.actor.0) {
        Some(a) => format!("{}:{}", a.name, p.port),
        None => format!("{}:{}", p.actor, p.port),
    }
}

fn conn_location(model: &Model, from: PortRef, to: PortRef) -> Location {
    Location::Connection {
        from: port_label(model, from),
        to: port_label(model, to),
    }
}

fn lint_names_and_params(model: &Model, r: &mut LintReport) {
    let mut seen: BTreeMap<&str, ()> = BTreeMap::new();
    for a in &model.actors {
        if seen.insert(&a.name, ()).is_some() {
            r.push(
                LintCode::DuplicateActorName,
                at(a),
                format!("actor name {:?} is used more than once", a.name),
            );
        }
        for p in a.kind.required_params() {
            if !a.params.contains_key(*p) {
                r.push(
                    LintCode::MissingParam,
                    at(a),
                    format!("{} requires parameter {p:?}", a.kind),
                );
            }
        }
        lint_param_values(a, r);
    }
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

/// Value-level parameter checks, only for parameters that are present
/// (absence is [`LintCode::MissingParam`]).
fn lint_param_values(a: &Actor, r: &mut LintReport) {
    let mut bad = |param: &str, why: String| {
        r.push(
            LintCode::BadParam,
            at(a),
            format!("parameter {param:?}: {why}"),
        );
    };
    match a.kind {
        ActorKind::Inport | ActorKind::Constant | ActorKind::UnitDelay => {
            if a.params.contains_key("type") && a.type_param("type").is_none() {
                bad(
                    "type",
                    "not a valid signal type (expected e.g. \"f32*1024\")".into(),
                );
            }
            if a.kind == ActorKind::Constant {
                if let Some(p) = a.param("value") {
                    match p.as_float_vec() {
                        None => bad("value", "not numeric".into()),
                        Some(v) => {
                            if let Some(t) = a.type_param("type") {
                                if v.len() != t.len() && v.len() != 1 {
                                    bad(
                                        "value",
                                        format!(
                                            "has {} elements, type {t} needs {} (or 1)",
                                            v.len(),
                                            t.len()
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        ActorKind::Gain => {
            if let Some(p) = a.param("gain") {
                if p.as_float().is_none() {
                    bad("gain", "not a number".into());
                }
            }
        }
        ActorKind::Saturate => {
            let (lo, hi) = (
                a.param("min").and_then(Param::as_float),
                a.param("max").and_then(Param::as_float),
            );
            if a.params.contains_key("min") && lo.is_none() {
                bad("min", "not a number".into());
            }
            if a.params.contains_key("max") && hi.is_none() {
                bad("max", "not a number".into());
            }
            if let (Some(lo), Some(hi)) = (lo, hi) {
                if lo > hi {
                    bad("min", format!("lower bound {lo} exceeds upper bound {hi}"));
                }
            }
        }
        ActorKind::Shr | ActorKind::Shl => {
            if let Some(p) = a.param("amount") {
                match p.as_int() {
                    Some(v) if (0..=63).contains(&v) => {}
                    Some(v) => bad("amount", format!("shift amount {v} outside 0..=63")),
                    None => bad("amount", "not an integer".into()),
                }
            }
        }
        ActorKind::Cast => {
            if let Some(Param::Str(s)) = a.param("to") {
                if s.parse::<DataType>().is_err() {
                    bad("to", format!("unknown data type {s:?}"));
                }
            } else if a.params.contains_key("to") {
                bad("to", "expected a data type name".into());
            }
        }
        _ => {}
    }
}

fn lint_connections(model: &Model, r: &mut LintReport) {
    let mut exact: BTreeSet<(PortRef, PortRef)> = BTreeSet::new();
    let mut drivers: BTreeMap<PortRef, Vec<PortRef>> = BTreeMap::new();
    for c in &model.connections {
        let mut ends_ok = true;
        for (end, is_output) in [(c.from, true), (c.to, false)] {
            match model.actors.get(end.actor.0) {
                None => {
                    r.push(
                        LintCode::UnknownActorId,
                        conn_location(model, c.from, c.to),
                        format!("references unknown actor {}", end.actor),
                    );
                    ends_ok = false;
                }
                Some(a) => {
                    let limit = if is_output {
                        a.kind.output_count()
                    } else {
                        a.kind.input_count()
                    };
                    if end.port >= limit {
                        r.push(
                            LintCode::PortOutOfRange,
                            conn_location(model, c.from, c.to),
                            format!(
                                "{} port {} out of range on {} ({} has {limit})",
                                if is_output { "output" } else { "input" },
                                end.port,
                                a.name,
                                a.kind
                            ),
                        );
                        ends_ok = false;
                    }
                }
            }
        }
        if !ends_ok {
            continue;
        }
        if !exact.insert((c.from, c.to)) {
            r.push(
                LintCode::DuplicateConnection,
                conn_location(model, c.from, c.to),
                "the same wire appears more than once",
            );
            continue; // exact duplicates are not a second driver
        }
        drivers.entry(c.to).or_default().push(c.from);
    }
    for (to, froms) in &drivers {
        if froms.len() > 1 {
            let a = &model.actors[to.actor.0];
            r.push(
                LintCode::DuplicateInputDriver,
                at_port(a, to.port),
                format!(
                    "input driven by {} different outputs: {}",
                    froms.len(),
                    froms
                        .iter()
                        .map(|f| port_label(model, *f))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
        }
    }
    for a in &model.actors {
        for p in 0..a.kind.input_count() {
            if !drivers.contains_key(&PortRef::new(a.id, p)) {
                r.push(
                    LintCode::UnconnectedInput,
                    at_port(a, p),
                    format!("input port {p} of {} has no driver", a.kind),
                );
            }
        }
        for p in 0..a.kind.output_count() {
            if model.consumers(PortRef::new(a.id, p)).is_empty() {
                r.push(
                    LintCode::DanglingOutput,
                    at_port(a, p),
                    format!("output port {p} of {} drives nothing", a.kind),
                );
            }
        }
    }
}

fn mat_dims(t: SignalType) -> Option<(usize, usize)> {
    match t.shape {
        Shape::Matrix(r, c) => Some((r, c)),
        _ => None,
    }
}

/// Tolerant fixed-point type propagation: like `Model::infer_types` but it
/// never bails — unknowable or inconsistent outputs stay `None` and checking
/// continues elsewhere.
fn propagate_types(model: &Model) -> Vec<Option<SignalType>> {
    let mut out: Vec<Option<SignalType>> = vec![None; model.actors.len()];
    loop {
        let mut progressed = false;
        for a in &model.actors {
            if a.kind.output_count() == 0 || out[a.id.0].is_some() {
                continue;
            }
            let ins: Vec<Option<SignalType>> = (0..a.kind.input_count())
                .map(|p| {
                    model
                        .driver(PortRef::new(a.id, p))
                        .filter(|s| s.actor.0 < model.actors.len())
                        .and_then(|s| out[s.actor.0])
                })
                .collect();
            if let Some(t) = propagate_one(a, &ins) {
                out[a.id.0] = Some(t);
                progressed = true;
            }
        }
        if !progressed {
            return out;
        }
    }
}

fn propagate_one(a: &Actor, ins: &[Option<SignalType>]) -> Option<SignalType> {
    use ActorKind::*;
    let first_known = ins.iter().flatten().next().copied();
    let array_known = ins
        .iter()
        .flatten()
        .find(|t| t.shape.is_array())
        .copied()
        .or(first_known);
    match a.kind {
        Inport | Constant => a.type_param("type"),
        Outport => None,
        Gain | Saturate | Neg | Abs | Recp | Sqrt | BitNot | Shr | Shl => first_known,
        UnitDelay => a.type_param("type").or(first_known),
        Cast => first_known.map(|t| {
            let to = match a.param("to") {
                Some(Param::Str(s)) => s.parse().unwrap_or(t.dtype),
                _ => t.dtype,
            };
            SignalType {
                dtype: to,
                shape: t.shape,
            }
        }),
        Add | Sub | Mul | Div | BitAnd | BitOr | BitXor | Min | Max | Abd => array_known,
        Switch => ins
            .get(1)
            .copied()
            .flatten()
            .or(ins.get(2).copied().flatten()),
        MatMul => {
            let (x, y) = (ins[0]?, ins[1]?);
            let (r, _) = mat_dims(x)?;
            let (_, c) = mat_dims(y)?;
            Some(SignalType::matrix(x.dtype, r, c))
        }
        MatInv | Dct2d => ins[0],
        MatDet => ins[0].map(|t| SignalType::scalar(t.dtype)),
        Fft => ins[0].map(|t| SignalType::vector(t.dtype, t.len() * 2)),
        Ifft => {
            let t = ins[0]?;
            (t.len() % 2 == 0).then(|| SignalType::vector(t.dtype, t.len() / 2))
        }
        Dct | Idct => ins[0].map(|t| SignalType::vector(t.dtype, t.len())),
        Conv => {
            let (x, y) = (ins[0]?, ins[1]?);
            Some(SignalType::vector(x.dtype, x.len() + y.len() - 1))
        }
        Fft2d => {
            let t = ins[0]?;
            let (r, c) = mat_dims(t)?;
            Some(SignalType::matrix(t.dtype, r, c * 2))
        }
        Conv2d => {
            let (x, y) = (ins[0]?, ins[1]?);
            let (r1, c1) = mat_dims(x)?;
            let (r2, c2) = mat_dims(y)?;
            Some(SignalType::matrix(x.dtype, r1 + r2 - 1, c1 + c2 - 1))
        }
    }
}

fn lint_types(model: &Model, r: &mut LintReport) {
    use ActorKind::*;
    let out = propagate_types(model);
    for a in &model.actors {
        let ins: Vec<Option<SignalType>> = (0..a.kind.input_count())
            .map(|p| {
                model
                    .driver(PortRef::new(a.id, p))
                    .filter(|s| s.actor.0 < model.actors.len())
                    .and_then(|s| out[s.actor.0])
            })
            .collect();
        if a.kind.float_only() {
            for (p, t) in ins.iter().enumerate() {
                if let Some(t) = t {
                    if !t.dtype.is_float() {
                        r.push(
                            LintCode::DtypeMismatch,
                            at_port(a, p),
                            format!("{} requires floating-point input, got {}", a.kind, t.dtype),
                        );
                    }
                }
            }
        }
        if a.kind.int_only() {
            for (p, t) in ins.iter().enumerate() {
                if let Some(t) = t {
                    if !t.dtype.is_int() {
                        r.push(
                            LintCode::DtypeMismatch,
                            at_port(a, p),
                            format!("{} requires integer input, got {}", a.kind, t.dtype),
                        );
                    }
                }
            }
        }
        match a.kind {
            Add | Sub | Mul | Div | BitAnd | BitOr | BitXor | Min | Max | Abd => {
                if let (Some(x), Some(y)) = (ins[0], ins[1]) {
                    if x.dtype != y.dtype {
                        r.push(
                            LintCode::DtypeMismatch,
                            at(a),
                            format!("{} inputs mix dtypes {} and {}", a.kind, x.dtype, y.dtype),
                        );
                    }
                    let shapes_ok =
                        x.shape == y.shape || x.shape == Shape::Scalar || y.shape == Shape::Scalar;
                    if !shapes_ok {
                        r.push(
                            LintCode::ScaleMismatch,
                            at(a),
                            format!(
                                "{} input scales differ: {} vs {} (only scalar broadcast allowed)",
                                a.kind, x.shape, y.shape
                            ),
                        );
                    }
                }
            }
            Switch => {
                if let (Some(x), Some(y)) = (ins[1], ins[2]) {
                    if x.dtype != y.dtype {
                        r.push(
                            LintCode::DtypeMismatch,
                            at(a),
                            format!("Switch data inputs mix dtypes {} and {}", x.dtype, y.dtype),
                        );
                    }
                    if x.shape != y.shape {
                        r.push(
                            LintCode::ScaleMismatch,
                            at(a),
                            format!(
                                "Switch data input scales differ: {} vs {}",
                                x.shape, y.shape
                            ),
                        );
                    }
                    if let Some(c) = ins[0] {
                        if c.shape != Shape::Scalar && c.shape != x.shape {
                            r.push(
                                LintCode::ScaleMismatch,
                                at_port(a, 0),
                                format!(
                                    "Switch control scale {} is neither scalar nor the data scale {}",
                                    c.shape, x.shape
                                ),
                            );
                        }
                    }
                }
            }
            Conv | Conv2d | MatMul => {
                if let (Some(x), Some(y)) = (ins[0], ins[1]) {
                    if x.dtype != y.dtype {
                        r.push(
                            LintCode::DtypeMismatch,
                            at(a),
                            format!("{} inputs mix dtypes {} and {}", a.kind, x.dtype, y.dtype),
                        );
                    }
                    if a.kind == MatMul {
                        match (mat_dims(x), mat_dims(y)) {
                            (Some((_, k1)), Some((k2, _))) if k1 != k2 => {
                                r.push(
                                    LintCode::ScaleMismatch,
                                    at(a),
                                    format!("MatMul inner dimensions differ: {k1} vs {k2}"),
                                );
                            }
                            (None, _) | (_, None) => {
                                r.push(
                                    LintCode::ScaleMismatch,
                                    at(a),
                                    format!(
                                        "MatMul needs matrix inputs, got {} and {}",
                                        x.shape, y.shape
                                    ),
                                );
                            }
                            _ => {}
                        }
                    }
                }
            }
            MatInv | MatDet => {
                if let Some(t) = ins[0] {
                    match mat_dims(t) {
                        Some((rr, cc)) if rr != cc => {
                            r.push(
                                LintCode::ScaleMismatch,
                                at(a),
                                format!("{} needs a square matrix, got {rr}x{cc}", a.kind),
                            );
                        }
                        None => {
                            r.push(
                                LintCode::ScaleMismatch,
                                at(a),
                                format!("{} needs a matrix input, got {}", a.kind, t.shape),
                            );
                        }
                        _ => {}
                    }
                }
            }
            Ifft => {
                if let Some(t) = ins[0] {
                    if t.len() % 2 != 0 {
                        r.push(
                            LintCode::ScaleMismatch,
                            at(a),
                            format!(
                                "IFFT input is interleaved complex and must have even length, got {}",
                                t.len()
                            ),
                        );
                    }
                }
            }
            _ => {}
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
    use hcg_model::{DataType, ModelBuilder};

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
        // Same wire twice: warning only.
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
        let mut b = ModelBuilder::new("noparam");
        let x = b.inport("x", SignalType::vector(DataType::F32, 4));
        let g = b.add_actor("g", ActorKind::Gain); // no "gain" param
        let o = b.outport("y");
        b.connect(x, 0, g, 0);
        b.connect(g, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::MissingParam));
    }

    #[test]
    fn bad_param_values() {
        // Shift amount out of range.
        let mut b = ModelBuilder::new("badshift");
        let x = b.inport("x", SignalType::vector(DataType::I32, 4));
        let s = b.add_actor("s", ActorKind::Shr);
        b.set_param(s, "amount", Param::Int(99));
        let o = b.outport("y");
        b.connect(x, 0, s, 0);
        b.connect(s, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::BadParam));

        // Saturate with inverted bounds.
        let mut b = ModelBuilder::new("badsat");
        let x = b.inport("x", SignalType::vector(DataType::F32, 4));
        let s = b.add_actor("s", ActorKind::Saturate);
        b.set_param(s, "min", Param::Float(2.0));
        b.set_param(s, "max", Param::Float(-2.0));
        let o = b.outport("y");
        b.connect(x, 0, s, 0);
        b.connect(s, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::BadParam));
    }

    #[test]
    fn dtype_mismatch_across_connection() {
        let mut b = ModelBuilder::new("mixed");
        let x = b.inport("x", SignalType::vector(DataType::I32, 4));
        let y = b.inport("y", SignalType::vector(DataType::F32, 4));
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("o");
        b.connect(x, 0, add, 0);
        b.connect(y, 0, add, 1);
        b.connect(add, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::DtypeMismatch));
    }

    #[test]
    fn scale_mismatch_across_connection() {
        let mut b = ModelBuilder::new("scales");
        let x = b.inport("x", SignalType::vector(DataType::F32, 4));
        let y = b.inport("y", SignalType::vector(DataType::F32, 8));
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("o");
        b.connect(x, 0, add, 0);
        b.connect(y, 0, add, 1);
        b.connect(add, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::ScaleMismatch));
        assert!(!r.has(LintCode::DtypeMismatch));
    }

    #[test]
    fn scalar_broadcast_is_not_a_scale_mismatch() {
        let mut b = ModelBuilder::new("bcast");
        let x = b.inport("x", SignalType::vector(DataType::F32, 16));
        let k = b.inport("k", SignalType::scalar(DataType::F32));
        let mul = b.add_actor("scale", ActorKind::Mul);
        let o = b.outport("o");
        b.connect(x, 0, mul, 0);
        b.connect(k, 0, mul, 1);
        b.connect(mul, 0, o, 0);
        let r = lint_model(&b.build().unwrap());
        assert!(r.diagnostics.is_empty(), "unexpected: {}", r.render());
    }

    #[test]
    fn float_only_actor_with_int_input() {
        let mut b = ModelBuilder::new("intfft");
        let x = b.inport("x", SignalType::vector(DataType::I32, 8));
        let f = b.add_actor("fft", ActorKind::Fft);
        let o = b.outport("o");
        b.connect(x, 0, f, 0);
        b.connect(f, 0, o, 0);
        let r = lint_model(&b.build_unchecked());
        assert!(r.has(LintCode::DtypeMismatch));
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
