//! Model diffing and edit application: the substrate of incremental
//! recompilation.
//!
//! An interactive editor (or the fuzzer) changes one actor at a time; the
//! compile pipeline wants to know *what* changed so it can tell an edit
//! that only changes data from one that changes code. This module
//! provides:
//!
//! * [`EditOp`] — one primitive, name-addressed model edit (actors are
//!   addressed by name because [`crate::ActorId`]s shift when actors are
//!   added or removed);
//! * [`Model::apply_edit`] — structural application of one op (no type
//!   checking, so an edit sequence may pass through invalid intermediate
//!   states and a later edit can fix them);
//! * [`ModelDelta`] — an ordered edit sequence, with [`ModelDelta::diff`]
//!   recovering one from two model snapshots and
//!   [`ModelDelta::data_only`] recognising the edits that change only
//!   constant data, which a compiler can apply by patching initialisers.

use crate::actor::{Actor, ActorId, ActorKind};
use crate::model::{Connection, Model, ModelError, PortRef};
use crate::types::Param;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A named wire endpoint: actor name plus port index.
pub type NamedPort = (String, usize);

/// One primitive model edit. Actors are addressed by name, not id, so an
/// op remains meaningful while surrounding actors come and go.
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Add a new actor (id assigned at the end of the actor list).
    AddActor {
        /// Unique name for the new actor.
        name: String,
        /// Actor kind.
        kind: ActorKind,
        /// Initial parameters.
        params: BTreeMap<String, Param>,
    },
    /// Remove an actor and every wire touching it; remaining ids are
    /// re-densified.
    RemoveActor {
        /// Name of the actor to remove.
        name: String,
    },
    /// Change an actor's kind, keeping its name, wires and parameters.
    SetKind {
        /// Target actor name.
        name: String,
        /// New kind.
        kind: ActorKind,
    },
    /// Insert or overwrite one parameter.
    SetParam {
        /// Target actor name.
        name: String,
        /// Parameter key.
        param: String,
        /// New value.
        value: Param,
    },
    /// Delete one parameter (no-op if absent).
    RemoveParam {
        /// Target actor name.
        name: String,
        /// Parameter key.
        param: String,
    },
    /// Set the driver of an input port, replacing any existing driver
    /// (every input has at most one).
    Connect {
        /// Source output port (actor name, output index).
        from: NamedPort,
        /// Destination input port (actor name, input index).
        to: NamedPort,
    },
    /// Remove the driver of an input port (no-op if undriven).
    Disconnect {
        /// Destination input port (actor name, input index).
        to: NamedPort,
    },
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditOp::AddActor { name, kind, .. } => write!(f, "add {name:?} ({kind})"),
            EditOp::RemoveActor { name } => write!(f, "remove {name:?}"),
            EditOp::SetKind { name, kind } => write!(f, "retype {name:?} -> {kind}"),
            EditOp::SetParam { name, param, .. } => write!(f, "set {name:?}.{param}"),
            EditOp::RemoveParam { name, param } => write!(f, "unset {name:?}.{param}"),
            EditOp::Connect { from, to } => {
                write!(f, "connect {}:{} -> {}:{}", from.0, from.1, to.0, to.1)
            }
            EditOp::Disconnect { to } => write!(f, "disconnect -> {}:{}", to.0, to.1),
        }
    }
}

impl Model {
    fn id_of(&self, name: &str) -> Result<ActorId, ModelError> {
        self.actor_by_name(name)
            .map(|a| a.id)
            .ok_or_else(|| ModelError::UnknownName(name.to_owned()))
    }

    /// Apply one [`EditOp`] in place.
    ///
    /// Application is purely structural: names must resolve and stay
    /// unique, but no type or connectivity rules are enforced, so an edit
    /// sequence may pass through invalid intermediate models (run
    /// [`Model::front_end`] to validate the result).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownName`] when a named actor does not
    /// exist and [`ModelError::DuplicateName`] when an added actor's name
    /// is taken.
    pub fn apply_edit(&mut self, op: &EditOp) -> Result<(), ModelError> {
        match op {
            EditOp::AddActor { name, kind, params } => {
                if self.actor_by_name(name).is_some() {
                    return Err(ModelError::DuplicateName(name.clone()));
                }
                self.actors.push(Actor {
                    id: ActorId(self.actors.len()),
                    name: name.clone(),
                    kind: *kind,
                    params: params.clone(),
                });
            }
            EditOp::RemoveActor { name } => {
                let id = self.id_of(name)?;
                self.actors.remove(id.0);
                // Drop wires touching the actor, then re-densify ids.
                self.connections
                    .retain(|c| c.from.actor != id && c.to.actor != id);
                let remap = |p: &mut PortRef| {
                    if p.actor.0 > id.0 {
                        p.actor.0 -= 1;
                    }
                };
                for c in &mut self.connections {
                    remap(&mut c.from);
                    remap(&mut c.to);
                }
                for (i, a) in self.actors.iter_mut().enumerate() {
                    a.id = ActorId(i);
                }
            }
            EditOp::SetKind { name, kind } => {
                let id = self.id_of(name)?;
                self.actors[id.0].kind = *kind;
            }
            EditOp::SetParam { name, param, value } => {
                let id = self.id_of(name)?;
                self.actors[id.0]
                    .params
                    .insert(param.clone(), value.clone());
            }
            EditOp::RemoveParam { name, param } => {
                let id = self.id_of(name)?;
                self.actors[id.0].params.remove(param);
            }
            EditOp::Connect { from, to } => {
                let src = PortRef::new(self.id_of(&from.0)?, from.1);
                let dst = PortRef::new(self.id_of(&to.0)?, to.1);
                self.connections.retain(|c| c.to != dst);
                self.connections.push(Connection { from: src, to: dst });
            }
            EditOp::Disconnect { to } => {
                let dst = PortRef::new(self.id_of(&to.0)?, to.1);
                self.connections.retain(|c| c.to != dst);
            }
        }
        Ok(())
    }
}

/// An ordered sequence of [`EditOp`]s taking one model to another.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelDelta {
    /// Edits in application order.
    pub ops: Vec<EditOp>,
}

impl ModelDelta {
    /// A delta containing a single op.
    pub fn single(op: EditOp) -> Self {
        ModelDelta { ops: vec![op] }
    }

    /// True when the delta contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// True when the delta only changes *data*: every op is a `SetParam`
    /// that either leaves the parameter's value unchanged or sets
    /// `Constant.value`, `Gain.gain` or `UnitDelay.init` to a value with
    /// the same [`Param`] variant and length as the value it replaces.
    ///
    /// Those three parameters reach a generated program only as a buffer
    /// initialiser: `GenContext::build` in `hcg-core`'s `generator.rs`
    /// (the `Constant` and `UnitDelay` buffers) and `emit_conventional` in
    /// its `conventional.rs` (the `Gain` factor's constant buffer). Keeping
    /// the variant and length keeps type inference and validation
    /// unchanged, so a data-only delta leaves the code shape alone.
    /// `model` is the model the delta applies to.
    pub fn data_only(&self, model: &Model) -> bool {
        self.ops.iter().all(|op| {
            let EditOp::SetParam { name, param, value } = op else {
                return false;
            };
            let Some(actor) = model.actor_by_name(name) else {
                return false;
            };
            let Some(old) = actor.params.get(param) else {
                return false;
            };
            if old == value {
                return true;
            }
            let data_param = matches!(
                (actor.kind, param.as_str()),
                (ActorKind::Constant, "value")
                    | (ActorKind::Gain, "gain")
                    | (ActorKind::UnitDelay, "init")
            );
            data_param && numeric_shape(old).is_some_and(|s| numeric_shape(value) == Some(s))
        })
    }

    /// Diff two models into an edit sequence such that
    /// `diff(old, new).apply(old)` is equivalent to `new` (same actors by
    /// name, same wires; ids and ordering may differ).
    ///
    /// Actors are matched by name: removals come first, then additions,
    /// kind/parameter updates, and finally wire changes keyed by their
    /// destination port (each input has exactly one driver).
    pub fn diff(old: &Model, new: &Model) -> ModelDelta {
        let mut ops = Vec::new();
        let old_names: BTreeMap<&str, &Actor> =
            old.actors.iter().map(|a| (a.name.as_str(), a)).collect();
        let new_names: BTreeMap<&str, &Actor> =
            new.actors.iter().map(|a| (a.name.as_str(), a)).collect();

        for a in &old.actors {
            if !new_names.contains_key(a.name.as_str()) {
                ops.push(EditOp::RemoveActor {
                    name: a.name.clone(),
                });
            }
        }
        for a in &new.actors {
            match old_names.get(a.name.as_str()) {
                None => ops.push(EditOp::AddActor {
                    name: a.name.clone(),
                    kind: a.kind,
                    params: a.params.clone(),
                }),
                Some(prev) => {
                    if prev.kind != a.kind {
                        ops.push(EditOp::SetKind {
                            name: a.name.clone(),
                            kind: a.kind,
                        });
                    }
                    for (k, v) in &a.params {
                        if prev.params.get(k) != Some(v) {
                            ops.push(EditOp::SetParam {
                                name: a.name.clone(),
                                param: k.clone(),
                                value: v.clone(),
                            });
                        }
                    }
                    for k in prev.params.keys() {
                        if !a.params.contains_key(k) {
                            ops.push(EditOp::RemoveParam {
                                name: a.name.clone(),
                                param: k.clone(),
                            });
                        }
                    }
                }
            }
        }

        // Wires, keyed by named destination port.
        let named = |m: &Model, p: PortRef| (m.actors[p.actor.0].name.clone(), p.port);
        let old_drivers: BTreeMap<NamedPort, NamedPort> = old
            .connections
            .iter()
            .map(|c| (named(old, c.to), named(old, c.from)))
            .collect();
        let new_drivers: BTreeMap<NamedPort, NamedPort> = new
            .connections
            .iter()
            .map(|c| (named(new, c.to), named(new, c.from)))
            .collect();
        for (to, _) in old_drivers.iter() {
            // Wires to removed actors vanish with the RemoveActor op.
            if !new_drivers.contains_key(to) && new_names.contains_key(to.0.as_str()) {
                ops.push(EditOp::Disconnect { to: to.clone() });
            }
        }
        for (to, from) in new_drivers.iter() {
            if old_drivers.get(to) != Some(from) {
                ops.push(EditOp::Connect {
                    from: from.clone(),
                    to: to.clone(),
                });
            }
        }
        ModelDelta { ops }
    }

    /// Apply every op to a copy of `model`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] from [`Model::apply_edit`].
    pub fn apply(&self, model: &Model) -> Result<Model, ModelError> {
        let mut m = model.clone();
        for op in &self.ops {
            m.apply_edit(op)?;
        }
        Ok(m)
    }
}

/// A numeric parameter's variant and element count; `None` for strings.
fn numeric_shape(p: &Param) -> Option<(std::mem::Discriminant<Param>, usize)> {
    p.numeric_len().map(|len| (std::mem::discriminant(p), len))
}

/// Name-based model equivalence: same model name, same actors by
/// (name, kind, params), same wires by named endpoints. Actor ids and
/// declaration order are ignored — this is the invariant
/// [`ModelDelta::diff`] round-trips preserve.
pub fn models_equivalent(a: &Model, b: &Model) -> bool {
    if a.name != b.name || a.actors.len() != b.actors.len() {
        return false;
    }
    fn shape(m: &Model) -> BTreeMap<&str, (ActorKind, &BTreeMap<String, Param>)> {
        m.actors
            .iter()
            .map(|x| (x.name.as_str(), (x.kind, &x.params)))
            .collect()
    }
    if shape(a) != shape(b) {
        return false;
    }
    let wires = |m: &Model| -> BTreeSet<(NamedPort, NamedPort)> {
        m.connections
            .iter()
            .map(|c| {
                (
                    (m.actors[c.from.actor.0].name.clone(), c.from.port),
                    (m.actors[c.to.actor.0].name.clone(), c.to.port),
                )
            })
            .collect()
    };
    wires(a) == wires(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::types::{DataType, SignalType};

    fn base() -> Model {
        let mut b = ModelBuilder::new("m");
        let x = b.inport("x", SignalType::vector(DataType::F32, 8));
        let g = b.gain("g", 2.0);
        let o = b.outport("o");
        b.connect(x, 0, g, 0);
        b.connect(g, 0, o, 0);
        b.build().unwrap()
    }

    #[test]
    fn set_param_round_trips() {
        let old = base();
        let mut new = old.clone();
        new.apply_edit(&EditOp::SetParam {
            name: "g".into(),
            param: "gain".into(),
            value: Param::Float(3.0),
        })
        .unwrap();
        let d = ModelDelta::diff(&old, &new);
        assert_eq!(d.ops.len(), 1);
        let redone = d.apply(&old).unwrap();
        assert!(models_equivalent(&redone, &new));
        assert!(ModelDelta::diff(&new, &redone).is_empty());
    }

    #[test]
    fn add_remove_rewire_round_trip() {
        let old = base();
        let mut new = old.clone();
        new.apply_edit(&EditOp::AddActor {
            name: "n".into(),
            kind: ActorKind::Neg,
            params: BTreeMap::new(),
        })
        .unwrap();
        new.apply_edit(&EditOp::Connect {
            from: ("g".into(), 0),
            to: ("n".into(), 0),
        })
        .unwrap();
        new.apply_edit(&EditOp::Connect {
            from: ("n".into(), 0),
            to: ("o".into(), 0),
        })
        .unwrap();
        assert!(new.front_end().is_ok());
        let d = ModelDelta::diff(&old, &new);
        let redone = d.apply(&old).unwrap();
        assert!(models_equivalent(&redone, &new));

        // And back again: removing `n` re-densifies ids and drops wires.
        let back = ModelDelta::diff(&new, &old);
        let undone = back.apply(&new).unwrap();
        assert!(models_equivalent(&undone, &old));
        assert!(undone.front_end().is_ok());
        for (i, a) in undone.actors.iter().enumerate() {
            assert_eq!(a.id.0, i);
        }
    }

    #[test]
    fn unknown_name_rejected() {
        let mut m = base();
        let err = m
            .apply_edit(&EditOp::SetKind {
                name: "ghost".into(),
                kind: ActorKind::Abs,
            })
            .unwrap_err();
        assert_eq!(err, ModelError::UnknownName("ghost".into()));
    }

    #[test]
    fn duplicate_add_rejected() {
        let mut m = base();
        let err = m
            .apply_edit(&EditOp::AddActor {
                name: "g".into(),
                kind: ActorKind::Abs,
                params: BTreeMap::new(),
            })
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateName("g".into()));
    }

    #[test]
    fn connect_replaces_driver() {
        let mut m = base();
        m.apply_edit(&EditOp::AddActor {
            name: "x2".into(),
            kind: ActorKind::Inport,
            params: BTreeMap::from([(
                "type".into(),
                Param::Str(SignalType::vector(DataType::F32, 8).to_string()),
            )]),
        })
        .unwrap();
        m.apply_edit(&EditOp::Connect {
            from: ("x2".into(), 0),
            to: ("g".into(), 0),
        })
        .unwrap();
        let g = m.actor_by_name("g").unwrap().id;
        let drv = m.driver(PortRef::new(g, 0)).unwrap();
        assert_eq!(m.actors[drv.actor.0].name, "x2");
        assert!(m.front_end().is_ok());
    }

    /// One actor carrying each parameter `data_only` distinguishes.
    fn params_bed() -> Model {
        let ty = SignalType::vector(DataType::F32, 4);
        let mut b = ModelBuilder::new("params");
        let x = b.inport("x", ty);
        let k = b.constant("k", ty, vec![1.0, 2.0, 3.0, 4.0]);
        let g = b.gain("g", 2.0);
        let z = b.unit_delay("z", Some(ty));
        b.set_param(z, "init", Param::FloatVec(vec![0.5; 4]));
        let sat = b.add_actor("sat", ActorKind::Saturate);
        b.set_param(sat, "min", Param::Float(-1.0));
        b.set_param(sat, "max", Param::Float(1.0));
        let add = b.add_actor("add", ActorKind::Add);
        let o = b.outport("o");
        b.connect(x, 0, g, 0);
        b.connect(g, 0, add, 0);
        b.connect(k, 0, add, 1);
        b.connect(add, 0, z, 0);
        b.connect(z, 0, sat, 0);
        b.connect(sat, 0, o, 0);
        let i = b.inport("i", SignalType::vector(DataType::I32, 4));
        let shr = b.shift("shr", ActorKind::Shr, 1);
        let o2 = b.outport("o2");
        b.connect(i, 0, shr, 0);
        b.connect(shr, 0, o2, 0);
        b.build().unwrap()
    }

    fn set(name: &str, param: &str, value: Param) -> EditOp {
        EditOp::SetParam {
            name: name.into(),
            param: param.into(),
            value,
        }
    }

    #[test]
    fn data_only_accepts_the_three_data_parameters() {
        let m = params_bed();
        for op in [
            set("k", "value", Param::FloatVec(vec![4.0, 3.0, 2.0, 1.0])),
            set("g", "gain", Param::Float(-0.5)),
            set("z", "init", Param::FloatVec(vec![1.5; 4])),
        ] {
            let d = ModelDelta::single(op.clone());
            assert!(d.data_only(&m), "{op}");
            assert!(d.apply(&m).unwrap().front_end().is_ok(), "{op}");
        }
    }

    #[test]
    fn data_only_accepts_a_value_preserving_set() {
        let m = params_bed();
        let ty = m.actor_by_name("x").unwrap().param("type").unwrap().clone();
        assert!(ModelDelta::single(set("x", "type", ty)).data_only(&m));
    }

    #[test]
    fn data_only_rejects_code_shaping_and_reshaping_edits() {
        let m = params_bed();
        for op in [
            set("shr", "amount", Param::Int(2)),
            set("sat", "min", Param::Float(-2.0)),
            set("g", "gain", Param::FloatVec(vec![2.0])),
            set("k", "value", Param::FloatVec(vec![1.0, 2.0])),
            set("z", "init", Param::Float(0.0)),
            set("x", "type", Param::Str("f32[8]".into())),
            set("ghost", "value", Param::Float(1.0)),
            set("k", "fresh", Param::Float(1.0)),
            EditOp::RemoveParam {
                name: "k".into(),
                param: "value".into(),
            },
        ] {
            assert!(!ModelDelta::single(op.clone()).data_only(&m), "{op}");
        }
    }

    #[test]
    fn data_only_rejects_a_mixed_delta() {
        let m = params_bed();
        let data = set("g", "gain", Param::Float(3.0));
        let mixed = ModelDelta {
            ops: vec![data.clone(), set("shr", "amount", Param::Int(3))],
        };
        assert!(ModelDelta::single(data.clone()).data_only(&m));
        assert!(!mixed.data_only(&m));
        let rewire = ModelDelta {
            ops: vec![
                data,
                EditOp::Disconnect {
                    to: ("o2".into(), 0),
                },
            ],
        };
        assert!(!rewire.data_only(&m));
        assert!(
            ModelDelta::default().data_only(&m),
            "an empty delta changes nothing"
        );
    }
}
