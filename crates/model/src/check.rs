//! The model checker: one walk that records every rule a model breaks as a
//! typed [`ModelViolation`].
//!
//! [`Model::validate_structure`] and [`Model::infer_types`] return the
//! first violation as a [`ModelError`]; the `hcg-analysis` model lints turn
//! every violation into a diagnostic. Both read this one walk, so a lint
//! verdict and a compile verdict cannot disagree. The walk formats no text:
//! a violation names its actor, port and fault, and each reader words it.
//!
//! The walk runs four phases, in this order, so its first violation is the
//! error a first-error checker stops at:
//!
//! 1. **structure** — a non-empty model, unique names, required
//!    parameters, wires naming real ports, every input driven exactly once;
//! 2. **propagation** — fixed-point signal type inference, so feedback
//!    loops through `UnitDelay`s resolve; a typing rule that fails records
//!    a violation and the walk keeps going;
//! 3. **resolution** — every output that is still untyped, recorded only
//!    when no earlier phase recorded anything (a broken model leaves
//!    outputs untyped for reasons already reported);
//! 4. **consistency** — each actor's typing rules over the input types
//!    that are known, and its parameter values.

use crate::actor::{Actor, ActorId, ActorKind};
use crate::model::{Connection, Model, ModelError, PortRef, TypeMap};
use crate::types::{DataType, Param, Shape, SignalType};
use std::collections::HashSet;

/// One rule a model breaks, found by [`Model::check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelViolation {
    /// The actor at fault; `None` for a fault of the whole model or of a
    /// wire end that names no actor.
    pub actor: Option<ActorId>,
    /// The port of `actor` at fault, when the fault is at one port: the
    /// input port for driver and input-type faults, the named port for
    /// [`ModelFault::PortOutOfRange`].
    pub port: Option<usize>,
    /// What is wrong.
    pub fault: ModelFault,
}

/// What is wrong in a [`ModelViolation`]. Wire faults carry `wire`, an
/// index into [`Model::connections`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelFault {
    /// The model has no actors.
    Empty,
    /// An earlier actor has the same name.
    DuplicateName,
    /// A parameter the actor's kind requires is absent.
    MissingParam(&'static str),
    /// The wire names an actor id the model does not have.
    UnknownActor {
        /// The wire.
        wire: usize,
        /// The id it names.
        id: ActorId,
    },
    /// The wire names a port its actor's kind does not have.
    PortOutOfRange {
        /// The wire.
        wire: usize,
        /// `true` for the wire's source end.
        output: bool,
    },
    /// The wire repeats an earlier wire exactly.
    DuplicateWire(usize),
    /// The wire is the second distinct output to drive an input port.
    SecondDriver(usize),
    /// No wire drives the input port.
    UnconnectedInput,
    /// The named parameter is present but malformed or out of range.
    BadParam(&'static str, ParamFault),
    /// A `Constant`'s value has this many elements; its declared type (the
    /// second field) needs 1 or as many as it has.
    ValueLength(usize, SignalType),
    /// A floating-point-only kind reads an input of this dtype.
    NotFloat(DataType),
    /// An integer-only kind reads an input of this dtype.
    NotInt(DataType),
    /// Two inputs that must share a dtype do not.
    MixedDtypes(DataType, DataType),
    /// Two inputs that must share a shape (up to scalar broadcast, for
    /// element-wise kinds) do not.
    ShapeMismatch(Shape, Shape),
    /// A `Switch` control input's shape (the first field) is neither
    /// scalar nor the data inputs' shape (the second).
    ControlShape(Shape, Shape),
    /// A kind that reads one matrix got this shape.
    NeedsMatrix(Shape),
    /// A kind that reads two matrices got these shapes.
    NeedsMatrices(Shape, Shape),
    /// `MatMul` inner dimensions differ.
    InnerDims(usize, usize),
    /// A square-matrix kind got an `r x c` matrix.
    NotSquare(usize, usize),
    /// A kind that reads one vector got this shape.
    NeedsVector(Shape),
    /// A kind that reads two vectors got these shapes.
    NeedsVectors(Shape, Shape),
    /// A transform's or convolution's input has no elements.
    EmptyInput,
    /// The output's element count does not fit a `usize`.
    SizeOverflow,
    /// An `Ifft` input (interleaved complex) has odd length.
    OddLength(usize),
    /// Inference could not type the actor's output (an untyped feedback
    /// loop without a `UnitDelay` `type` parameter).
    Unresolved,
}

/// Why a present parameter is rejected ([`ModelFault::BadParam`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamFault {
    /// Not a signal type such as `f32*1024`.
    NotSignalType,
    /// Not a number.
    NotNumber,
    /// Neither a number nor a list of numbers.
    NotNumeric,
    /// Not an integer.
    NotInteger,
    /// A shift amount outside `0..=63`.
    ShiftRange(i64),
    /// `min` (the first field) exceeds `max` (the second).
    InvertedBounds(f64, f64),
    /// A string naming no data type.
    UnknownDtype,
    /// Not a string.
    NotDtypeName,
}

impl Model {
    /// Every rule the model breaks, in the order the checker finds them:
    /// structure, type propagation, unresolved types, then per-actor
    /// consistency (see [`ModelViolation`]). Empty for a valid model.
    pub fn check(&self) -> Vec<ModelViolation> {
        let mut walk = Walk::new(self);
        walk.run();
        walk.violations
    }

    /// Structural validation: names unique, connections reference existing
    /// ports, every input is driven exactly once, and all required
    /// parameters are present.
    ///
    /// # Errors
    ///
    /// Returns the first structural [`ModelError`] [`Model::check`] finds.
    pub fn validate_structure(&self) -> Result<(), ModelError> {
        let mut walk = Walk::new(self);
        walk.structure();
        walk.first_error()
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
    /// Returns the first [`ModelError`] [`Model::check`] finds: a
    /// structural fault, a violated typing rule, a malformed parameter or
    /// an unresolved signal.
    pub fn infer_types(&self) -> Result<TypeMap, ModelError> {
        crate::stats::note_type_inference();
        let mut walk = Walk::new(self);
        walk.run();
        walk.first_error()?;
        Ok(TypeMap {
            outputs: walk.slots.into_iter().map(Slot::known).collect(),
        })
    }
}

/// The most input ports any kind has (`Switch`).
const MAX_INPUTS: usize = 3;

/// One actor's output type during propagation.
#[derive(Clone, Copy)]
enum Slot {
    /// Not known yet.
    Open,
    Known(SignalType),
    /// A typing rule failed (a violation is recorded); never retried.
    Failed,
}

impl Slot {
    fn known(self) -> Option<SignalType> {
        match self {
            Slot::Known(t) => Some(t),
            _ => None,
        }
    }
}

/// What the walk knows of one input port.
#[derive(Clone, Copy, Default)]
struct Input {
    /// The first wire into the port; its source types the port, even when
    /// that source names no real output.
    wire: Option<usize>,
    /// The source of the first wire into the port from a real output.
    driver: Option<PortRef>,
    /// A second distinct real output drives the port too.
    crowded: bool,
}

/// The checker's state while it walks one model.
struct Walk<'m> {
    model: &'m Model,
    /// Input `p` of actor `i`, at `i * MAX_INPUTS + p`.
    inputs: Vec<Input>,
    /// Every (source, input) wire into a crowded input.
    crowd: HashSet<(PortRef, PortRef)>,
    slots: Vec<Slot>,
    violations: Vec<ModelViolation>,
}

impl<'m> Walk<'m> {
    fn new(model: &'m Model) -> Self {
        let n = model.actors.len();
        Walk {
            model,
            inputs: vec![Input::default(); n * MAX_INPUTS],
            crowd: HashSet::new(),
            slots: vec![Slot::Open; n],
            violations: Vec::new(),
        }
    }

    fn record(&mut self, actor: Option<ActorId>, port: Option<usize>, fault: ModelFault) {
        self.violations.push(ModelViolation { actor, port, fault });
    }

    fn first_error(&self) -> Result<(), ModelError> {
        self.violations
            .first()
            .map_or(Ok(()), |v| Err(v.error(self.model)))
    }

    fn run(&mut self) {
        self.structure();
        if self.model.actors.is_empty() {
            return;
        }
        self.propagate();
        if self.violations.is_empty() {
            for a in &self.model.actors {
                if a.kind.output_count() > 0 && self.slots[a.id.0].known().is_none() {
                    self.at(a, ModelFault::Unresolved);
                }
            }
        }
        for a in &self.model.actors {
            self.consistency(a);
        }
    }

    // ---- phase 1: structure ----

    fn structure(&mut self) {
        let model = self.model;
        if model.actors.is_empty() {
            self.record(None, None, ModelFault::Empty);
            return;
        }
        let mut names = HashSet::with_capacity(model.actors.len());
        for (i, a) in model.actors.iter().enumerate() {
            debug_assert_eq!(a.id.0, i, "actor ids must be dense");
            if !names.insert(a.name.as_str()) {
                self.at(a, ModelFault::DuplicateName);
            }
            for p in a.kind.required_params() {
                if !a.params.contains_key(*p) {
                    self.at(a, ModelFault::MissingParam(p));
                }
            }
        }
        for (wire, c) in model.connections.iter().enumerate() {
            let from_ok = self.end(wire, c.from, true);
            if self.end(wire, c.to, false) {
                let input = &mut self.inputs[c.to.actor.0 * MAX_INPUTS + c.to.port];
                input.wire = input.wire.or(Some(wire));
                if from_ok {
                    self.driver(wire, *c);
                }
            }
        }
        for a in &model.actors {
            for p in 0..a.kind.input_count() {
                if self.inputs[a.id.0 * MAX_INPUTS + p].driver.is_none() {
                    self.record(Some(a.id), Some(p), ModelFault::UnconnectedInput);
                }
            }
        }
    }

    /// Check one end of `wire`; `true` when it names a real port.
    fn end(&mut self, wire: usize, end: PortRef, output: bool) -> bool {
        let Some(a) = self.model.actors.get(end.actor.0) else {
            let id = end.actor;
            self.record(None, None, ModelFault::UnknownActor { wire, id });
            return false;
        };
        let limit = if output {
            a.kind.output_count()
        } else {
            a.kind.input_count()
        };
        if end.port >= limit {
            let fault = ModelFault::PortOutOfRange { wire, output };
            self.record(Some(a.id), Some(end.port), fault);
            return false;
        }
        true
    }

    /// Note `wire` (`c`, both ends real) as a driver of its input: a
    /// repeat of an earlier wire is recorded each time, a second distinct
    /// driver once per input.
    fn driver(&mut self, wire: usize, c: Connection) {
        let input = &mut self.inputs[c.to.actor.0 * MAX_INPUTS + c.to.port];
        let fault = match input.driver {
            None => {
                input.driver = Some(c.from);
                return;
            }
            Some(first) if first == c.from => ModelFault::DuplicateWire(wire),
            Some(first) if !input.crowded => {
                input.crowded = true;
                self.crowd.insert((first, c.to));
                self.crowd.insert((c.from, c.to));
                ModelFault::SecondDriver(wire)
            }
            Some(_) if self.crowd.insert((c.from, c.to)) => return,
            Some(_) => ModelFault::DuplicateWire(wire),
        };
        self.record(Some(c.to.actor), Some(c.to.port), fault);
    }

    // ---- phase 2: propagation ----

    /// The known types of `a`'s inputs, read through the first wire into
    /// each (unused ports stay `None`).
    fn inputs(&self, a: &Actor) -> [Option<SignalType>; MAX_INPUTS] {
        let mut ins = [None; MAX_INPUTS];
        for (p, t) in ins.iter_mut().enumerate().take(a.kind.input_count()) {
            *t = self.inputs[a.id.0 * MAX_INPUTS + p]
                .wire
                .map(|w| self.model.connections[w].from.actor.0)
                .and_then(|src| self.slots.get(src))
                .and_then(|s| s.known());
        }
        ins
    }

    fn propagate(&mut self) {
        let model = self.model;
        loop {
            let mut progressed = false;
            for a in &model.actors {
                if a.kind.output_count() == 0 || !matches!(self.slots[a.id.0], Slot::Open) {
                    continue;
                }
                let ins = self.inputs(a);
                let slot = match self.rule(a, ins) {
                    Slot::Known(t) if elements(t.shape).is_none() => {
                        self.fail(a, ModelFault::SizeOverflow)
                    }
                    slot => slot,
                };
                if !matches!(slot, Slot::Open) {
                    self.slots[a.id.0] = slot;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// An output type from the (possibly partial) input types; `Open` when
    /// more information is needed. Element-wise actors propagate from their
    /// first known input so that delay loops converge; [`Walk::consistency`]
    /// then checks every input.
    fn rule(&mut self, a: &Actor, ins: [Option<SignalType>; MAX_INPUTS]) -> Slot {
        use ActorKind::*;
        let first_known = ins.iter().flatten().next().copied();
        // For element-wise ops with possible scalar broadcast, prefer an
        // array input as the representative.
        let array_known = ins
            .iter()
            .flatten()
            .find(|t| t.shape.is_array())
            .copied()
            .or(first_known);
        let known = |t: Option<SignalType>| t.map_or(Slot::Open, Slot::Known);
        match a.kind {
            Inport | Constant => match a.type_param("type") {
                Some(t) => Slot::Known(t),
                // An absent `type` is a structural violation already.
                None if !a.params.contains_key("type") => Slot::Failed,
                None => self.fail(a, ModelFault::BadParam("type", ParamFault::NotSignalType)),
            },
            Outport => Slot::Open,
            Gain | Saturate | Neg | Abs | Recp | Sqrt | BitNot | Shr | Shl => known(first_known),
            UnitDelay => known(a.type_param("type").or(first_known)),
            Cast => known(first_known.map(|t| SignalType {
                dtype: cast_target(a).unwrap_or(t.dtype),
                shape: t.shape,
            })),
            Add | Sub | Mul | Div | BitAnd | BitOr | BitXor | Min | Max | Abd => known(array_known),
            Switch => known(ins[1].or(ins[2])),
            MatMul | Conv | Conv2d => {
                let (Some(x), Some(y)) = (ins[0], ins[1]) else {
                    return Slot::Open;
                };
                let dtype = x.dtype;
                match (a.kind, x.shape, y.shape) {
                    (Conv, ..) | (Conv2d, Shape::Matrix(..), Shape::Matrix(..))
                        if x.is_empty() || y.is_empty() =>
                    {
                        self.fail(a, ModelFault::EmptyInput)
                    }
                    (Conv, ..) => {
                        let len = x.len().checked_add(y.len() - 1);
                        self.sized(a, len.map(|n| SignalType::vector(dtype, n)))
                    }
                    (MatMul, Shape::Matrix(r, k1), Shape::Matrix(k2, c)) => {
                        if k1 != k2 {
                            self.at(a, ModelFault::InnerDims(k1, k2));
                        }
                        Slot::Known(SignalType::matrix(dtype, r, c))
                    }
                    (Conv2d, Shape::Matrix(r1, c1), Shape::Matrix(r2, c2)) => {
                        let rows = r1.checked_add(r2 - 1);
                        let cols = c1.checked_add(c2 - 1);
                        let t = rows.zip(cols).map(|(r, c)| SignalType::matrix(dtype, r, c));
                        self.sized(a, t)
                    }
                    _ => self.fail(a, ModelFault::NeedsMatrices(x.shape, y.shape)),
                }
            }
            MatInv | Dct2d => known(ins[0]),
            MatDet => known(ins[0].map(|t| SignalType::scalar(t.dtype))),
            Fft => match ins[0] {
                Some(t) => {
                    let len = t.len().checked_mul(2);
                    self.sized(a, len.map(|n| SignalType::vector(t.dtype, n)))
                }
                None => Slot::Open,
            },
            Ifft => match ins[0] {
                Some(t) if t.len() % 2 != 0 => self.fail(a, ModelFault::OddLength(t.len())),
                t => known(t.map(|t| SignalType::vector(t.dtype, t.len() / 2))),
            },
            Dct | Idct => known(ins[0].map(|t| SignalType::vector(t.dtype, t.len()))),
            Fft2d => match ins[0].map(|t| (t, t.shape)) {
                Some((t, Shape::Matrix(r, c))) => {
                    let cols = c.checked_mul(2);
                    self.sized(a, cols.map(|c| SignalType::matrix(t.dtype, r, c)))
                }
                Some((_, other)) => self.fail(a, ModelFault::NeedsMatrix(other)),
                None => Slot::Open,
            },
        }
    }

    /// `t` as `a`'s output type; `None` is a size that overflowed.
    fn sized(&mut self, a: &Actor, t: Option<SignalType>) -> Slot {
        match t {
            Some(t) => Slot::Known(t),
            None => self.fail(a, ModelFault::SizeOverflow),
        }
    }

    /// Record a failed typing rule of `a`; its output stays untyped.
    fn fail(&mut self, a: &Actor, fault: ModelFault) -> Slot {
        self.at(a, fault);
        Slot::Failed
    }

    /// Record a fault of `a` as a whole.
    fn at(&mut self, a: &Actor, fault: ModelFault) {
        self.record(Some(a.id), None, fault);
    }

    // ---- phase 4: consistency ----

    /// Check `a`'s typing rules over its known inputs, then its parameter
    /// values, in the order a first-error checker reports them.
    fn consistency(&mut self, a: &Actor) {
        use ActorKind::*;
        let ins = self.inputs(a);
        let id = Some(a.id);
        for (p, t) in ins.iter().enumerate() {
            match t {
                Some(t) if a.kind.float_only() && !t.dtype.is_float() => {
                    self.record(id, Some(p), ModelFault::NotFloat(t.dtype));
                }
                Some(t) if a.kind.int_only() && !t.dtype.is_int() => {
                    self.record(id, Some(p), ModelFault::NotInt(t.dtype));
                }
                _ => {}
            }
        }
        match a.kind {
            Add | Sub | Mul | Div | BitAnd | BitOr | BitXor | Min | Max | Abd => {
                if let (Some(x), Some(y)) = (ins[0], ins[1]) {
                    if x.dtype != y.dtype {
                        self.at(a, ModelFault::MixedDtypes(x.dtype, y.dtype));
                    }
                    let broadcast = x.shape == Shape::Scalar || y.shape == Shape::Scalar;
                    if x.shape != y.shape && !broadcast {
                        self.at(a, ModelFault::ShapeMismatch(x.shape, y.shape));
                    }
                }
            }
            Switch => {
                if let (Some(x), Some(y)) = (ins[1], ins[2]) {
                    if x.dtype != y.dtype {
                        self.at(a, ModelFault::MixedDtypes(x.dtype, y.dtype));
                    }
                    if x.shape != y.shape {
                        self.at(a, ModelFault::ShapeMismatch(x.shape, y.shape));
                    }
                    if let Some(c) = ins[0] {
                        if c.shape != Shape::Scalar && c.shape != x.shape {
                            self.record(id, Some(0), ModelFault::ControlShape(c.shape, x.shape));
                        }
                    }
                }
            }
            Shr | Shl => match a.param("amount").map(Param::as_int) {
                Some(Some(v)) if !(0..=63).contains(&v) => {
                    self.at(a, ModelFault::BadParam("amount", ParamFault::ShiftRange(v)))
                }
                Some(None) => self.at(a, ModelFault::BadParam("amount", ParamFault::NotInteger)),
                _ => {}
            },
            Gain => {
                if a.param("gain").is_some_and(|p| p.as_float().is_none()) {
                    self.at(a, ModelFault::BadParam("gain", ParamFault::NotNumber));
                }
            }
            Saturate => {
                let min = a.param("min").map(Param::as_float);
                let max = a.param("max").map(Param::as_float);
                if min == Some(None) {
                    self.at(a, ModelFault::BadParam("min", ParamFault::NotNumber));
                }
                if max == Some(None) {
                    self.at(a, ModelFault::BadParam("max", ParamFault::NotNumber));
                }
                if let (Some(Some(min)), Some(Some(max))) = (min, max) {
                    if min > max {
                        self.at(
                            a,
                            ModelFault::BadParam("min", ParamFault::InvertedBounds(min, max)),
                        );
                    }
                }
            }
            Constant => match a.param("value").map(Param::numeric_len) {
                Some(None) => self.at(a, ModelFault::BadParam("value", ParamFault::NotNumeric)),
                Some(Some(len)) => {
                    if let Some(ty) = self.slots[a.id.0].known() {
                        if len != ty.len() && len != 1 {
                            self.at(a, ModelFault::ValueLength(len, ty));
                        }
                    }
                }
                None => {}
            },
            UnitDelay => {
                if a.params.contains_key("type") && a.type_param("type").is_none() {
                    self.at(a, ModelFault::BadParam("type", ParamFault::NotSignalType));
                }
            }
            Cast => match a.param("to") {
                Some(Param::Str(_)) if cast_target(a).is_none() => {
                    self.at(a, ModelFault::BadParam("to", ParamFault::UnknownDtype));
                }
                Some(Param::Str(_)) | None => {}
                Some(_) => self.at(a, ModelFault::BadParam("to", ParamFault::NotDtypeName)),
            },
            MatInv | MatDet => match ins[0].map(|t| t.shape) {
                Some(Shape::Matrix(r, c)) if r != c => {
                    self.at(a, ModelFault::NotSquare(r, c));
                }
                Some(Shape::Matrix(..)) | None => {}
                Some(other) => self.at(a, ModelFault::NeedsMatrix(other)),
            },
            Fft | Ifft | Dct | Idct => match ins[0] {
                Some(t) if !matches!(t.shape, Shape::Vector(_)) => {
                    self.at(a, ModelFault::NeedsVector(t.shape));
                }
                Some(t) if t.is_empty() => self.at(a, ModelFault::EmptyInput),
                _ => {}
            },
            Conv | Conv2d | MatMul => {
                if let (Some(x), Some(y)) = (ins[0], ins[1]) {
                    let vector = |t: SignalType| matches!(t.shape, Shape::Vector(_));
                    if a.kind == Conv && !(vector(x) && vector(y)) {
                        self.at(a, ModelFault::NeedsVectors(x.shape, y.shape));
                    }
                    if x.dtype != y.dtype {
                        self.at(a, ModelFault::MixedDtypes(x.dtype, y.dtype));
                    }
                }
            }
            Inport | Outport | Neg | Abs | Recp | Sqrt | BitNot | Fft2d | Dct2d => {}
        }
    }
}

/// How many elements `shape` holds, when that fits a `usize`.
fn elements(shape: Shape) -> Option<usize> {
    match shape {
        Shape::Matrix(r, c) => r.checked_mul(c),
        other => Some(other.len()),
    }
}

/// A `Cast`'s target dtype, when its `to` parameter names one.
fn cast_target(a: &Actor) -> Option<DataType> {
    match a.param("to") {
        Some(Param::Str(s)) => s.parse().ok(),
        _ => None,
    }
}

impl ModelViolation {
    /// This violation as the [`ModelError`] the first-error checks return.
    fn error(self, model: &Model) -> ModelError {
        use ActorKind::{Conv, Conv2d, MatMul};
        use ModelFault::*;
        let a = self.actor.map(|id| model.actor(id));
        let actor = a.map_or_else(String::new, |a| a.name.clone());
        let port = self.port.unwrap_or_default();
        let kind = a.map(|a| a.kind);
        let message = match self.fault {
            Empty => return ModelError::Empty,
            DuplicateName => return ModelError::DuplicateName(actor),
            MissingParam(param) | BadParam(param, _) => {
                let param = param.to_owned();
                return ModelError::BadParam { actor, param };
            }
            UnknownActor { id, .. } => return ModelError::UnknownActor(id),
            PortOutOfRange { .. } => return ModelError::PortOutOfRange { actor, port },
            DuplicateWire(_) | SecondDriver(_) => {
                return ModelError::InputAlreadyConnected { actor, port }
            }
            UnconnectedInput => return ModelError::UnconnectedInput { actor, port },
            Unresolved => return ModelError::Unresolved { actor },
            ValueLength(len, ty) => {
                format!("constant value has {len} elements, type needs {}", ty.len())
            }
            NotFloat(_) => "requires floating-point input".to_owned(),
            NotInt(_) => "requires integer input".to_owned(),
            MixedDtypes(..) | ShapeMismatch(..) if kind == Some(ActorKind::Switch) => {
                "switch data inputs must have identical types".to_owned()
            }
            MixedDtypes(..) if matches!(kind, Some(Conv | Conv2d | MatMul)) => {
                "mixed dtypes".to_owned()
            }
            MixedDtypes(x, y) => format!("mixed dtypes {x} vs {y}"),
            ShapeMismatch(x, y) => format!("shape mismatch {x} vs {y}"),
            ControlShape(..) => "switch control must be scalar or data-shaped".to_owned(),
            NeedsMatrix(got) | NeedsMatrices(got, _) if !matches!(got, Shape::Matrix(..)) => {
                format!("expected matrix input, got {got}")
            }
            NeedsMatrix(got) | NeedsMatrices(_, got) => format!("expected matrix input, got {got}"),
            InnerDims(k1, k2) => format!("inner dims {k1} vs {k2}"),
            NotSquare(..) => "matrix must be square".to_owned(),
            NeedsVector(_) => "expected vector input".to_owned(),
            NeedsVectors(..) => "expected vector inputs".to_owned(),
            EmptyInput => "empty input".to_owned(),
            SizeOverflow => "output size overflows".to_owned(),
            OddLength(_) => "IFFT input length must be even".to_owned(),
        };
        ModelError::TypeMismatch { actor, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;

    fn f32v(n: usize) -> SignalType {
        SignalType::vector(DataType::F32, n)
    }

    fn i32v(n: usize) -> SignalType {
        SignalType::vector(DataType::I32, n)
    }

    /// `x -> a -> y`, with `x` of type `ty` and `a` of `kind`.
    fn unary(kind: ActorKind, ty: SignalType, params: &[(&str, Param)]) -> Model {
        let mut b = ModelBuilder::new("unary");
        let x = b.inport("x", ty);
        let a = b.add_actor("a", kind);
        for (name, value) in params {
            b.set_param(a, *name, value.clone());
        }
        let y = b.outport("y");
        b.connect(x, 0, a, 0);
        b.connect(a, 0, y, 0);
        b.build_unchecked()
    }

    /// `x, h -> a -> y`.
    fn binary(kind: ActorKind, x_ty: SignalType, h_ty: SignalType) -> Model {
        let mut b = ModelBuilder::new("binary");
        let x = b.inport("x", x_ty);
        let h = b.inport("h", h_ty);
        let a = b.add_actor("a", kind);
        let y = b.outport("y");
        b.connect(x, 0, a, 0);
        b.connect(h, 0, a, 1);
        b.connect(a, 0, y, 0);
        b.build_unchecked()
    }

    /// The inferred output type of actor `a`.
    fn out_type(m: &Model) -> SignalType {
        let types = m.infer_types().unwrap();
        types.output(m.actor_by_name("a").unwrap().id, 0)
    }

    fn type_error(m: &Model) -> bool {
        matches!(m.infer_types(), Err(ModelError::TypeMismatch { .. }))
    }

    #[test]
    fn structure_ok_and_types_resolve() {
        let mut b = ModelBuilder::new("chain");
        let i = b.inport("x", i32v(8));
        let c = b.constant("k", i32v(8), vec![1.0; 8]);
        let add = b.add_actor("a", ActorKind::Add);
        let o = b.outport("y");
        b.connect(i, 0, add, 0);
        b.connect(c, 0, add, 1);
        b.connect(add, 0, o, 0);
        assert_eq!(out_type(&b.build().unwrap()), i32v(8));
    }

    #[test]
    fn undriven_and_twice_driven_inputs_rejected() {
        let mut b = ModelBuilder::new("bad");
        let i = b.inport("x", SignalType::scalar(DataType::F32));
        let add = b.add_actor("sum", ActorKind::Add);
        let o = b.outport("y");
        b.connect(i, 0, add, 0);
        b.connect(add, 0, o, 0);
        let mut m = b.build_unchecked();
        let err = m.validate_structure();
        assert!(matches!(err, Err(ModelError::UnconnectedInput { .. })));
        m.connections.push(m.connections[0]);
        let err = m.validate_structure();
        assert!(matches!(err, Err(ModelError::InputAlreadyConnected { .. })));
    }

    #[test]
    fn mixed_dtype_rejected() {
        assert!(type_error(&binary(ActorKind::Add, i32v(4), f32v(4))));
    }

    #[test]
    fn scalar_broadcast_allowed() {
        let m = binary(ActorKind::Mul, f32v(16), SignalType::scalar(DataType::F32));
        assert_eq!(out_type(&m), f32v(16));
    }

    #[test]
    fn fft_shape_doubles() {
        assert_eq!(out_type(&unary(ActorKind::Fft, f32v(256), &[])), f32v(512));
    }

    #[test]
    fn fft_rejects_integer_input() {
        assert!(type_error(&unary(ActorKind::Fft, i32v(256), &[])));
    }

    #[test]
    fn conv_output_length() {
        let m = binary(ActorKind::Conv, f32v(100), f32v(9));
        assert_eq!(out_type(&m), f32v(108));
    }

    #[test]
    fn empty_and_overflowing_sizes_are_rejected() {
        let mat = |r, c| SignalType::matrix(DataType::F32, r, c);
        let big = usize::MAX / 2 + 1;
        let cases = [
            (
                binary(ActorKind::Conv, f32v(0), f32v(0)),
                ModelFault::EmptyInput,
            ),
            (
                binary(ActorKind::Conv, f32v(5), f32v(0)),
                ModelFault::EmptyInput,
            ),
            (
                binary(ActorKind::Conv2d, mat(0, 3), mat(2, 2)),
                ModelFault::EmptyInput,
            ),
            (
                binary(ActorKind::Conv, f32v(usize::MAX), f32v(2)),
                ModelFault::SizeOverflow,
            ),
            (
                binary(ActorKind::Conv2d, mat(big, 1), mat(big + 1, 1)),
                ModelFault::SizeOverflow,
            ),
            (
                unary(ActorKind::Fft, f32v(big), &[]),
                ModelFault::SizeOverflow,
            ),
            (
                unary(ActorKind::Fft2d, mat(2, big), &[]),
                ModelFault::SizeOverflow,
            ),
            // Each input fits; their product does not.
            (
                binary(ActorKind::MatMul, mat(big, 1), mat(1, 4)),
                ModelFault::SizeOverflow,
            ),
            (
                unary(ActorKind::Neg, mat(big, 4), &[]),
                ModelFault::SizeOverflow,
            ),
        ];
        for (m, fault) in cases {
            let faults: Vec<_> = m.check().into_iter().map(|v| v.fault).collect();
            assert_eq!(faults.first(), Some(&fault), "{faults:?}");
            assert!(m.infer_types().is_err());
        }
    }

    #[test]
    fn matmul_dims() {
        let mat = |r, c| SignalType::matrix(DataType::F64, r, c);
        assert_eq!(
            out_type(&binary(ActorKind::MatMul, mat(3, 4), mat(4, 2))),
            mat(3, 2)
        );
        assert!(type_error(&binary(ActorKind::MatMul, mat(3, 4), mat(3, 2))));
    }

    #[test]
    fn delay_feedback_loop_resolves() {
        // y = delay(y + x): types resolve through the loop from x.
        let mut b = ModelBuilder::new("acc");
        let x = b.inport("x", f32v(8));
        let add = b.add_actor("sum", ActorKind::Add);
        let d = b.add_actor("a", ActorKind::UnitDelay);
        let o = b.outport("y");
        b.connect(x, 0, add, 0);
        b.connect(d, 0, add, 1);
        b.connect(add, 0, d, 0);
        b.connect(add, 0, o, 0);
        assert_eq!(out_type(&b.build().unwrap()), f32v(8));
    }

    #[test]
    fn malformed_params_are_rejected() {
        let text = |s: &str| Param::Str(s.to_owned());
        let cases = [
            unary(ActorKind::Shr, i32v(8), &[("amount", Param::Int(99))]),
            unary(
                ActorKind::Saturate,
                f32v(4),
                &[("min", Param::Float(5.0)), ("max", Param::Float(1.0))],
            ),
            unary(ActorKind::Cast, f32v(4), &[("to", text("f33"))]),
            unary(ActorKind::UnitDelay, f32v(4), &[("type", text("garbage"))]),
        ];
        for (m, param) in cases.iter().zip(["amount", "min", "to", "type"]) {
            let err = m.infer_types().unwrap_err();
            let want = ModelError::BadParam {
                actor: "a".into(),
                param: param.into(),
            };
            assert_eq!(err, want, "{}", m.actors[1].kind);
        }
    }

    #[test]
    fn every_violation_is_recorded_and_the_first_is_the_error() {
        // A Gain with a non-numeric factor feeding i32 into a Sqrt.
        let mut b = ModelBuilder::new("two-faults");
        let x = b.inport("x", i32v(4));
        let g = b.add_actor("g", ActorKind::Gain);
        b.set_param(g, "gain", Param::Str("x".into()));
        let s = b.add_actor("s", ActorKind::Sqrt);
        let y = b.outport("y");
        b.connect(x, 0, g, 0);
        b.connect(g, 0, s, 0);
        b.connect(s, 0, y, 0);
        let m = b.build_unchecked();
        let faults: Vec<ModelFault> = m.check().iter().map(|v| v.fault).collect();
        assert_eq!(
            faults,
            [
                ModelFault::BadParam("gain", ParamFault::NotNumber),
                ModelFault::NotFloat(DataType::I32),
            ]
        );
        assert!(matches!(m.infer_types(), Err(ModelError::BadParam { .. })));
    }

    #[test]
    fn every_kind_fits_the_input_table() {
        assert!(ActorKind::ALL.iter().all(|k| k.input_count() <= MAX_INPUTS));
    }

    #[test]
    fn empty_model_rejected() {
        let m = Model {
            name: "empty".into(),
            actors: vec![],
            connections: vec![],
        };
        assert_eq!(m.validate_structure(), Err(ModelError::Empty));
        assert_eq!(m.check().len(), 1);
    }
}
