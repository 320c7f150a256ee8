//! The model container: actors + connections, structural validation and
//! signal type inference (the "model parse" step ① of paper §2).

use crate::actor::{Actor, ActorId, ActorKind};
use crate::types::{DataType, Shape, SignalType};
use std::collections::BTreeMap;
use std::fmt;

/// A reference to one port of one actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRef {
    /// Owning actor.
    pub actor: ActorId,
    /// Port index on that actor (output index for sources, input index for
    /// destinations).
    pub port: usize,
}

impl PortRef {
    /// Convenience constructor.
    pub const fn new(actor: ActorId, port: usize) -> Self {
        PortRef { actor, port }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.actor, self.port)
    }
}

/// A directed wire from an output port to an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Connection {
    /// Source output port.
    pub from: PortRef,
    /// Destination input port.
    pub to: PortRef,
}

/// Errors produced while building, validating or type-checking a model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Two actors share a name.
    DuplicateName(String),
    /// A connection references an actor id not present in the model.
    UnknownActor(ActorId),
    /// A connection references a port index outside the kind's port count.
    PortOutOfRange {
        /// Offending actor name.
        actor: String,
        /// Offending port index.
        port: usize,
    },
    /// Two connections target the same input port.
    InputAlreadyConnected {
        /// Offending actor name.
        actor: String,
        /// Offending port index.
        port: usize,
    },
    /// An input port has no incoming connection.
    UnconnectedInput {
        /// Offending actor name.
        actor: String,
        /// Offending port index.
        port: usize,
    },
    /// A required parameter is missing or malformed.
    BadParam {
        /// Offending actor name.
        actor: String,
        /// Parameter name.
        param: String,
    },
    /// Signal types at an actor are inconsistent with its kind.
    TypeMismatch {
        /// Offending actor name.
        actor: String,
        /// Human-readable explanation.
        message: String,
    },
    /// Type inference could not resolve every signal (an untyped feedback
    /// loop without a `UnitDelay` `type` parameter).
    Unresolved {
        /// First unresolved actor name.
        actor: String,
    },
    /// An edit op referenced an actor name not present in the model.
    UnknownName(String),
    /// The model has no actors.
    Empty,
    /// A combinational cycle (not broken by a `UnitDelay`).
    Cycle {
        /// An actor on the cycle.
        actor: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateName(n) => write!(f, "duplicate actor name {n:?}"),
            ModelError::UnknownActor(id) => write!(f, "connection references unknown actor {id}"),
            ModelError::PortOutOfRange { actor, port } => {
                write!(f, "port {port} out of range on actor {actor:?}")
            }
            ModelError::InputAlreadyConnected { actor, port } => {
                write!(f, "input port {port} of actor {actor:?} has two drivers")
            }
            ModelError::UnconnectedInput { actor, port } => {
                write!(f, "input port {port} of actor {actor:?} is unconnected")
            }
            ModelError::BadParam { actor, param } => {
                write!(
                    f,
                    "actor {actor:?} is missing or has malformed parameter {param:?}"
                )
            }
            ModelError::TypeMismatch { actor, message } => {
                write!(f, "type error at actor {actor:?}: {message}")
            }
            ModelError::Unresolved { actor } => {
                write!(f, "could not infer signal types at actor {actor:?}")
            }
            ModelError::UnknownName(n) => write!(f, "no actor named {n:?}"),
            ModelError::Empty => f.write_str("model contains no actors"),
            ModelError::Cycle { actor } => {
                write!(
                    f,
                    "combinational cycle through actor {actor:?} (insert a UnitDelay)"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A complete block-diagram model: the in-memory result of model parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Model name.
    pub name: String,
    /// Actors, indexed by `ActorId(i) == actors[i].id`.
    pub actors: Vec<Actor>,
    /// Wires between actor ports.
    pub connections: Vec<Connection>,
}

/// Resolved signal types for every actor output port, produced by
/// [`Model::infer_types`].
#[derive(Debug, Clone, PartialEq)]
pub struct TypeMap {
    outputs: Vec<Vec<SignalType>>,
}

impl TypeMap {
    /// The resolved type of output `port` of `actor`.
    ///
    /// # Panics
    ///
    /// Panics if the actor id or port index is out of range.
    pub fn output(&self, actor: ActorId, port: usize) -> SignalType {
        self.outputs[actor.0][port]
    }

    /// All output types of one actor.
    pub fn outputs_of(&self, actor: ActorId) -> &[SignalType] {
        &self.outputs[actor.0]
    }

    /// The resolved types of every input port of `actor` in `model`.
    pub fn inputs_of(&self, model: &Model, actor: ActorId) -> Vec<SignalType> {
        (0..model.actors[actor.0].kind.input_count())
            .map(|p| {
                let src = model
                    .driver(PortRef::new(actor, p))
                    .expect("validated model has all inputs connected");
                self.output(src.actor, src.port)
            })
            .collect()
    }
}

impl Model {
    /// Access an actor by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.0]
    }

    /// Find an actor by name.
    pub fn actor_by_name(&self, name: &str) -> Option<&Actor> {
        self.actors.iter().find(|a| a.name == name)
    }

    /// The output port driving the given input port, if connected.
    pub fn driver(&self, input: PortRef) -> Option<PortRef> {
        self.connections
            .iter()
            .find(|c| c.to == input)
            .map(|c| c.from)
    }

    /// All input ports fed by the given output port.
    pub fn consumers(&self, output: PortRef) -> Vec<PortRef> {
        self.connections
            .iter()
            .filter(|c| c.from == output)
            .map(|c| c.to)
            .collect()
    }

    /// All `Inport` actors, in id order.
    pub fn inports(&self) -> Vec<&Actor> {
        self.actors
            .iter()
            .filter(|a| a.kind == ActorKind::Inport)
            .collect()
    }

    /// All `Outport` actors, in id order.
    pub fn outports(&self) -> Vec<&Actor> {
        self.actors
            .iter()
            .filter(|a| a.kind == ActorKind::Outport)
            .collect()
    }

    /// Structural validation: ids are dense, names unique, connections
    /// reference existing ports, every input is driven exactly once, and all
    /// required parameters are present.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] found.
    pub fn validate_structure(&self) -> Result<(), ModelError> {
        if self.actors.is_empty() {
            return Err(ModelError::Empty);
        }
        let mut names = BTreeMap::new();
        for (i, a) in self.actors.iter().enumerate() {
            debug_assert_eq!(a.id.0, i, "actor ids must be dense");
            if names.insert(a.name.clone(), a.id).is_some() {
                return Err(ModelError::DuplicateName(a.name.clone()));
            }
            for p in a.kind.required_params() {
                if !a.params.contains_key(*p) {
                    return Err(ModelError::BadParam {
                        actor: a.name.clone(),
                        param: (*p).to_owned(),
                    });
                }
            }
        }
        let mut driven: BTreeMap<PortRef, ()> = BTreeMap::new();
        for c in &self.connections {
            for (end, is_output) in [(c.from, true), (c.to, false)] {
                let a = self
                    .actors
                    .get(end.actor.0)
                    .ok_or(ModelError::UnknownActor(end.actor))?;
                let limit = if is_output {
                    a.kind.output_count()
                } else {
                    a.kind.input_count()
                };
                if end.port >= limit {
                    return Err(ModelError::PortOutOfRange {
                        actor: a.name.clone(),
                        port: end.port,
                    });
                }
            }
            if driven.insert(c.to, ()).is_some() {
                let a = &self.actors[c.to.actor.0];
                return Err(ModelError::InputAlreadyConnected {
                    actor: a.name.clone(),
                    port: c.to.port,
                });
            }
        }
        for a in &self.actors {
            for p in 0..a.kind.input_count() {
                if !driven.contains_key(&PortRef::new(a.id, p)) {
                    return Err(ModelError::UnconnectedInput {
                        actor: a.name.clone(),
                        port: p,
                    });
                }
            }
        }
        Ok(())
    }

    /// Infer the signal type of every output port.
    ///
    /// Runs fixed-point propagation so that feedback loops through
    /// `UnitDelay` actors resolve (the delay forwards its input type once
    /// known, or declares one via an optional `type` parameter). After the
    /// fixed point, every actor's inputs are checked against its kind's
    /// typing rule.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when validation fails, a type rule is violated
    /// or inference cannot resolve every signal.
    pub fn infer_types(&self) -> Result<TypeMap, ModelError> {
        crate::stats::note_type_inference();
        self.validate_structure()?;
        let mut out: Vec<Vec<Option<SignalType>>> = self
            .actors
            .iter()
            .map(|a| vec![None; a.kind.output_count()])
            .collect();

        // Fixed-point propagation.
        loop {
            let mut progressed = false;
            for a in &self.actors {
                if a.kind.output_count() == 0 || out[a.id.0][0].is_some() {
                    continue;
                }
                let ins: Vec<Option<SignalType>> = (0..a.kind.input_count())
                    .map(|p| {
                        self.driver(PortRef::new(a.id, p))
                            .and_then(|s| out[s.actor.0][s.port])
                    })
                    .collect();
                if let Some(t) = propagate(a, &ins)? {
                    out[a.id.0][0] = Some(t);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        // Everything must be resolved.
        for a in &self.actors {
            if out[a.id.0].iter().any(Option::is_none) {
                return Err(ModelError::Unresolved {
                    actor: a.name.clone(),
                });
            }
        }
        let map = TypeMap {
            outputs: out
                .into_iter()
                .map(|v| v.into_iter().map(Option::unwrap).collect())
                .collect(),
        };

        // Final consistency check with all inputs known.
        for a in &self.actors {
            let ins = map.inputs_of(self, a.id);
            check_actor(a, &ins, map.outputs_of(a.id))?;
        }
        Ok(map)
    }
}

fn type_err(a: &Actor, message: impl Into<String>) -> ModelError {
    ModelError::TypeMismatch {
        actor: a.name.clone(),
        message: message.into(),
    }
}

fn bad_param(a: &Actor, param: &str) -> ModelError {
    ModelError::BadParam {
        actor: a.name.clone(),
        param: param.to_owned(),
    }
}

/// Compute an output type from the (possibly partial) input types, returning
/// `Ok(None)` when more information is needed. Element-wise actors propagate
/// from their first known input so that delay loops converge; the final
/// [`check_actor`] pass enforces full consistency.
fn propagate(a: &Actor, ins: &[Option<SignalType>]) -> Result<Option<SignalType>, ModelError> {
    use ActorKind::*;
    let first_known = ins.iter().flatten().next().copied();
    // For element-wise ops with possible scalar broadcast, prefer an array
    // input as the representative.
    let array_known = ins
        .iter()
        .flatten()
        .find(|t| t.shape.is_array())
        .copied()
        .or(first_known);
    Ok(match a.kind {
        Inport | Constant => Some(a.type_param("type").ok_or_else(|| bad_param(a, "type"))?),
        Outport => None,
        Gain | Saturate | Neg | Abs | Recp | Sqrt | BitNot | Shr | Shl => first_known,
        UnitDelay => match a.type_param("type") {
            Some(t) => Some(t),
            None => first_known,
        },
        Cast => first_known.map(|t| {
            let to = a
                .param("to")
                .and_then(|p| match p {
                    crate::types::Param::Str(s) => s.parse::<DataType>().ok(),
                    _ => None,
                })
                .unwrap_or(t.dtype);
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
        MatMul => match (ins[0], ins[1]) {
            (Some(x), Some(y)) => {
                let (r, k1) = mat_dims(a, x)?;
                let (k2, c) = mat_dims(a, y)?;
                if k1 != k2 {
                    return Err(type_err(a, format!("inner dims {k1} vs {k2}")));
                }
                Some(SignalType::matrix(x.dtype, r, c))
            }
            _ => None,
        },
        MatInv => ins[0],
        MatDet => ins[0].map(|t| SignalType::scalar(t.dtype)),
        Fft => ins[0].map(|t| SignalType::vector(t.dtype, t.len() * 2)),
        Ifft => match ins[0] {
            Some(t) => {
                if t.len() % 2 != 0 {
                    return Err(type_err(a, "IFFT input length must be even"));
                }
                Some(SignalType::vector(t.dtype, t.len() / 2))
            }
            None => None,
        },
        Dct | Idct => ins[0].map(|t| SignalType::vector(t.dtype, t.len())),
        Conv => match (ins[0], ins[1]) {
            (Some(x), Some(y)) => Some(SignalType::vector(x.dtype, x.len() + y.len() - 1)),
            _ => None,
        },
        Fft2d => match ins[0] {
            Some(t) => {
                let (r, c) = mat_dims(a, t)?;
                Some(SignalType::matrix(t.dtype, r, c * 2))
            }
            None => None,
        },
        Dct2d => ins[0],
        Conv2d => match (ins[0], ins[1]) {
            (Some(x), Some(y)) => {
                let (r1, c1) = mat_dims(a, x)?;
                let (r2, c2) = mat_dims(a, y)?;
                Some(SignalType::matrix(x.dtype, r1 + r2 - 1, c1 + c2 - 1))
            }
            _ => None,
        },
    })
}

fn mat_dims(a: &Actor, t: SignalType) -> Result<(usize, usize), ModelError> {
    match t.shape {
        Shape::Matrix(r, c) => Ok((r, c)),
        other => Err(type_err(a, format!("expected matrix input, got {other}"))),
    }
}

/// Full consistency check once every type is known.
fn check_actor(a: &Actor, ins: &[SignalType], outs: &[SignalType]) -> Result<(), ModelError> {
    use ActorKind::*;
    if a.kind.float_only() && ins.iter().any(|t| !t.dtype.is_float()) {
        return Err(type_err(a, "requires floating-point input"));
    }
    if a.kind.int_only() && ins.iter().any(|t| !t.dtype.is_int()) {
        return Err(type_err(a, "requires integer input"));
    }
    match a.kind {
        Add | Sub | Mul | Div | BitAnd | BitOr | BitXor | Min | Max | Abd => {
            let (x, y) = (ins[0], ins[1]);
            if x.dtype != y.dtype {
                return Err(type_err(
                    a,
                    format!("mixed dtypes {} vs {}", x.dtype, y.dtype),
                ));
            }
            let shapes_ok =
                x.shape == y.shape || x.shape == Shape::Scalar || y.shape == Shape::Scalar;
            if !shapes_ok {
                return Err(type_err(
                    a,
                    format!("shape mismatch {} vs {}", x.shape, y.shape),
                ));
            }
        }
        Switch => {
            if ins[1] != ins[2] {
                return Err(type_err(a, "switch data inputs must have identical types"));
            }
            if ins[0].shape != Shape::Scalar && ins[0].shape != ins[1].shape {
                return Err(type_err(a, "switch control must be scalar or data-shaped"));
            }
        }
        Shr | Shl => {
            let amount = a
                .param("amount")
                .and_then(|p| p.as_int())
                .ok_or_else(|| bad_param(a, "amount"))?;
            if !(0..=63).contains(&amount) {
                return Err(bad_param(a, "amount"));
            }
        }
        Gain => {
            a.param("gain")
                .and_then(|p| p.as_float())
                .ok_or_else(|| bad_param(a, "gain"))?;
        }
        Saturate => {
            for p in ["min", "max"] {
                a.param(p)
                    .and_then(|v| v.as_float())
                    .ok_or_else(|| bad_param(a, p))?;
            }
        }
        Constant => {
            let t = outs[0];
            let v = a
                .param("value")
                .and_then(|p| p.as_float_vec())
                .ok_or_else(|| bad_param(a, "value"))?;
            if v.len() != t.len() && v.len() != 1 {
                return Err(type_err(
                    a,
                    format!(
                        "constant value has {} elements, type needs {}",
                        v.len(),
                        t.len()
                    ),
                ));
            }
        }
        MatInv | MatDet => {
            let (r, c) = mat_dims(a, ins[0])?;
            if r != c {
                return Err(type_err(a, "matrix must be square"));
            }
        }
        Fft | Ifft | Dct | Idct => {
            if !matches!(ins[0].shape, Shape::Vector(_)) {
                return Err(type_err(a, "expected vector input"));
            }
            if ins[0].is_empty() {
                return Err(type_err(a, "empty input"));
            }
        }
        Conv => {
            if ins.iter().any(|t| !matches!(t.shape, Shape::Vector(_))) {
                return Err(type_err(a, "expected vector inputs"));
            }
            if ins[0].dtype != ins[1].dtype {
                return Err(type_err(a, "mixed dtypes"));
            }
        }
        Conv2d | MatMul if ins[0].dtype != ins[1].dtype => {
            return Err(type_err(a, "mixed dtypes"));
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::types::Param;

    fn simple_chain() -> Model {
        let mut b = ModelBuilder::new("chain");
        let i = b.inport("x", SignalType::vector(DataType::I32, 8));
        let c = b.constant("k", SignalType::vector(DataType::I32, 8), vec![1.0; 8]);
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("y");
        b.connect(i, 0, add, 0);
        b.connect(c, 0, add, 1);
        b.connect(add, 0, o, 0);
        b.build().unwrap()
    }

    #[test]
    fn structure_ok_and_types_resolve() {
        let m = simple_chain();
        let t = m.infer_types().unwrap();
        let add = m.actor_by_name("sum").unwrap().id;
        assert_eq!(t.output(add, 0), SignalType::vector(DataType::I32, 8));
    }

    #[test]
    fn unconnected_input_rejected() {
        let mut b = ModelBuilder::new("bad");
        let i = b.inport("x", SignalType::scalar(DataType::F32));
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("y");
        b.connect(i, 0, add, 0);
        b.connect(add, 0, o, 0);
        let m = b.build_unchecked();
        assert!(matches!(
            m.validate_structure(),
            Err(ModelError::UnconnectedInput { .. })
        ));
    }

    #[test]
    fn double_driver_rejected() {
        let mut b = ModelBuilder::new("bad");
        let i = b.inport("x", SignalType::scalar(DataType::F32));
        let o = b.outport("y");
        b.connect(i, 0, o, 0);
        b.connect(i, 0, o, 0);
        let m = b.build_unchecked();
        assert!(matches!(
            m.validate_structure(),
            Err(ModelError::InputAlreadyConnected { .. })
        ));
    }

    #[test]
    fn mixed_dtype_rejected() {
        let mut b = ModelBuilder::new("bad");
        let x = b.inport("x", SignalType::vector(DataType::I32, 4));
        let y = b.inport("y", SignalType::vector(DataType::F32, 4));
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("o");
        b.connect(x, 0, add, 0);
        b.connect(y, 0, add, 1);
        b.connect(add, 0, o, 0);
        let m = b.build_unchecked();
        assert!(matches!(
            m.infer_types(),
            Err(ModelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn scalar_broadcast_allowed() {
        let mut b = ModelBuilder::new("bcast");
        let x = b.inport("x", SignalType::vector(DataType::F32, 16));
        let k = b.inport("k", SignalType::scalar(DataType::F32));
        let mul = b.add_actor("scale", ActorKind::Mul);
        let o = b.outport("o");
        b.connect(x, 0, mul, 0);
        b.connect(k, 0, mul, 1);
        b.connect(mul, 0, o, 0);
        let m = b.build().unwrap();
        let t = m.infer_types().unwrap();
        let mul_id = m.actor_by_name("scale").unwrap().id;
        assert_eq!(t.output(mul_id, 0), SignalType::vector(DataType::F32, 16));
    }

    #[test]
    fn fft_shape_doubles() {
        let mut b = ModelBuilder::new("fft");
        let x = b.inport("x", SignalType::vector(DataType::F32, 256));
        let f = b.add_actor("fft", ActorKind::Fft);
        let o = b.outport("o");
        b.connect(x, 0, f, 0);
        b.connect(f, 0, o, 0);
        let m = b.build().unwrap();
        let t = m.infer_types().unwrap();
        let f_id = m.actor_by_name("fft").unwrap().id;
        assert_eq!(t.output(f_id, 0), SignalType::vector(DataType::F32, 512));
    }

    #[test]
    fn fft_rejects_integer_input() {
        let mut b = ModelBuilder::new("fft");
        let x = b.inport("x", SignalType::vector(DataType::I32, 256));
        let f = b.add_actor("fft", ActorKind::Fft);
        let o = b.outport("o");
        b.connect(x, 0, f, 0);
        b.connect(f, 0, o, 0);
        let m = b.build_unchecked();
        assert!(matches!(
            m.infer_types(),
            Err(ModelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn conv_output_length() {
        let mut b = ModelBuilder::new("conv");
        let x = b.inport("x", SignalType::vector(DataType::F32, 100));
        let h = b.inport("h", SignalType::vector(DataType::F32, 9));
        let c = b.add_actor("conv", ActorKind::Conv);
        let o = b.outport("o");
        b.connect(x, 0, c, 0);
        b.connect(h, 0, c, 1);
        b.connect(c, 0, o, 0);
        let m = b.build().unwrap();
        let t = m.infer_types().unwrap();
        let cid = m.actor_by_name("conv").unwrap().id;
        assert_eq!(t.output(cid, 0), SignalType::vector(DataType::F32, 108));
    }

    #[test]
    fn matmul_dims() {
        let mut b = ModelBuilder::new("mm");
        let x = b.inport("x", SignalType::matrix(DataType::F64, 3, 4));
        let y = b.inport("y", SignalType::matrix(DataType::F64, 4, 2));
        let mm = b.add_actor("mm", ActorKind::MatMul);
        let o = b.outport("o");
        b.connect(x, 0, mm, 0);
        b.connect(y, 0, mm, 1);
        b.connect(mm, 0, o, 0);
        let m = b.build().unwrap();
        let t = m.infer_types().unwrap();
        let id = m.actor_by_name("mm").unwrap().id;
        assert_eq!(t.output(id, 0), SignalType::matrix(DataType::F64, 3, 2));
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let mut b = ModelBuilder::new("mm");
        let x = b.inport("x", SignalType::matrix(DataType::F64, 3, 4));
        let y = b.inport("y", SignalType::matrix(DataType::F64, 3, 2));
        let mm = b.add_actor("mm", ActorKind::MatMul);
        let o = b.outport("o");
        b.connect(x, 0, mm, 0);
        b.connect(y, 0, mm, 1);
        b.connect(mm, 0, o, 0);
        let m = b.build_unchecked();
        assert!(m.infer_types().is_err());
    }

    #[test]
    fn delay_feedback_loop_resolves() {
        // y = delay(y + x): types resolve through the loop from x.
        let mut b = ModelBuilder::new("acc");
        let x = b.inport("x", SignalType::vector(DataType::F32, 8));
        let add = b.add_actor("sum", ActorKind::Add);
        let d = b.add_actor("z1", ActorKind::UnitDelay);
        let o = b.outport("y");
        b.connect(x, 0, add, 0);
        b.connect(d, 0, add, 1);
        b.connect(add, 0, d, 0);
        b.connect(add, 0, o, 0);
        let m = b.build().unwrap();
        let t = m.infer_types().unwrap();
        let d_id = m.actor_by_name("z1").unwrap().id;
        assert_eq!(t.output(d_id, 0), SignalType::vector(DataType::F32, 8));
    }

    #[test]
    fn shift_amount_validated() {
        let mut b = ModelBuilder::new("sh");
        let x = b.inport("x", SignalType::vector(DataType::I32, 8));
        let s = b.add_actor("shr", ActorKind::Shr);
        b.set_param(s, "amount", Param::Int(99));
        let o = b.outport("y");
        b.connect(x, 0, s, 0);
        b.connect(s, 0, o, 0);
        let m = b.build_unchecked();
        assert!(matches!(m.infer_types(), Err(ModelError::BadParam { .. })));
    }

    #[test]
    fn empty_model_rejected() {
        let m = Model {
            name: "empty".into(),
            actors: vec![],
            connections: vec![],
        };
        assert_eq!(m.validate_structure(), Err(ModelError::Empty));
    }
}
