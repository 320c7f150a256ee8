//! The model container: actors + connections (the "model parse" step ① of
//! paper §2). [`Model::check`] validates it and infers its signal types.

use crate::actor::{Actor, ActorId, ActorKind};
use crate::types::SignalType;
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
    /// The output type of each actor; `None` for sinks.
    pub(crate) outputs: Vec<Option<SignalType>>,
}

impl TypeMap {
    /// The resolved type of output `port` of `actor`.
    ///
    /// # Panics
    ///
    /// Panics if the actor id or port index is out of range.
    pub fn output(&self, actor: ActorId, port: usize) -> SignalType {
        self.outputs_of(actor)[port]
    }

    /// All output types of one actor.
    pub fn outputs_of(&self, actor: ActorId) -> &[SignalType] {
        self.outputs[actor.0].as_slice()
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
}
