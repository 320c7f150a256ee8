//! Golden reference interpreter: executes model semantics directly on
//! tensors, independent of any code generator. Every generated program must
//! agree with it (the paper's §4.1 consistency check).

use crate::generator::GenError;
use hcg_kernels::CodeLibrary;
use hcg_model::op::ElemOp;
use hcg_model::schedule::{schedule, Schedule};
use hcg_model::{ActorId, ActorKind, Model, PortRef, Tensor, TypeMap};
use std::collections::BTreeMap;

/// A direct executor of model semantics.
#[derive(Debug)]
pub struct Reference<'m> {
    model: &'m Model,
    types: TypeMap,
    order: Schedule,
    lib: CodeLibrary,
    /// Delay states, by delay actor id.
    state: BTreeMap<ActorId, Tensor>,
}

impl<'m> Reference<'m> {
    /// Validate a model and prepare execution.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Model`] for invalid models.
    pub fn new(model: &'m Model) -> Result<Self, GenError> {
        let types = model.infer_types()?;
        let order = schedule(model)?;
        let mut state = BTreeMap::new();
        for a in &model.actors {
            if a.kind == ActorKind::UnitDelay {
                let ty = types.output(a.id, 0);
                let t = match a.param("init").and_then(|p| p.as_float_vec()) {
                    Some(init) => {
                        let vals = if init.len() == 1 {
                            vec![init[0]; ty.len()]
                        } else {
                            init
                        };
                        Tensor::from_f64(ty, vals).map_err(|e| GenError::Internal(e.to_string()))?
                    }
                    None => Tensor::zeros(ty),
                };
                state.insert(a.id, t);
            }
        }
        Ok(Reference {
            model,
            types,
            order,
            lib: CodeLibrary::new(),
            state,
        })
    }

    /// Execute one step: map of inport name → value, returns outport name →
    /// value. Delay states update at the end of the step.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] for missing/mistyped inputs or kernel failures.
    pub fn step(
        &mut self,
        inputs: &BTreeMap<String, Tensor>,
    ) -> Result<BTreeMap<String, Tensor>, GenError> {
        let mut values: BTreeMap<ActorId, Tensor> = BTreeMap::new();
        let mut outputs = BTreeMap::new();

        // Delay outputs (the previous step's latched values) are available
        // from the start of the step, regardless of schedule position.
        for (&aid, v) in &self.state {
            values.insert(aid, v.clone());
        }

        for &aid in &self.order.order {
            let actor = self.model.actor(aid);
            let input_of =
                |values: &BTreeMap<ActorId, Tensor>, p: usize| -> Result<Tensor, GenError> {
                    let src = self
                        .model
                        .driver(PortRef::new(aid, p))
                        .ok_or_else(|| GenError::Internal("unconnected input".into()))?;
                    values.get(&src.actor).cloned().ok_or_else(|| {
                        GenError::Internal(format!("value of {} not ready", src.actor))
                    })
                };
            let out_ty = if actor.kind.output_count() > 0 {
                Some(self.types.output(aid, 0))
            } else {
                None
            };
            let amount = actor.param("amount").and_then(|p| p.as_int()).unwrap_or(0) as u32;

            let value: Option<Tensor> = match actor.kind {
                ActorKind::Inport => Some(inputs.get(&actor.name).cloned().ok_or_else(|| {
                    GenError::Internal(format!("missing input {:?}", actor.name))
                })?),
                ActorKind::Constant => {
                    let ty = out_ty.expect("constant has output");
                    let vals = actor
                        .param("value")
                        .and_then(|p| p.as_float_vec())
                        .ok_or_else(|| GenError::Internal("constant without value".into()))?;
                    let vals = if vals.len() == 1 {
                        vec![vals[0]; ty.len()]
                    } else {
                        vals
                    };
                    Some(
                        Tensor::from_f64(ty, vals)
                            .map_err(|e| GenError::Internal(e.to_string()))?,
                    )
                }
                ActorKind::Outport => {
                    let v = input_of(&values, 0)?;
                    outputs.insert(actor.name.clone(), v);
                    None
                }
                // Already injected from state at the top of the step.
                ActorKind::UnitDelay => None,
                ActorKind::Gain => {
                    let x = input_of(&values, 0)?;
                    let g = actor
                        .param("gain")
                        .and_then(|p| p.as_float())
                        .ok_or_else(|| GenError::Internal("gain missing".into()))?;
                    let k = Tensor::from_f64(hcg_model::SignalType::scalar(x.ty.dtype), vec![g])
                        .map_err(|e| GenError::Internal(e.to_string()))?;
                    Some(
                        x.binary(ElemOp::Mul, &k)
                            .map_err(|e| GenError::Internal(e.to_string()))?,
                    )
                }
                ActorKind::Saturate => {
                    let x = input_of(&values, 0)?;
                    let lo = actor
                        .param("min")
                        .and_then(|p| p.as_float())
                        .unwrap_or(f64::MIN);
                    let hi = actor
                        .param("max")
                        .and_then(|p| p.as_float())
                        .unwrap_or(f64::MAX);
                    let clamped: Vec<f64> =
                        x.as_f64().into_iter().map(|v| v.clamp(lo, hi)).collect();
                    Some(
                        Tensor::from_f64(x.ty, clamped)
                            .map_err(|e| GenError::Internal(e.to_string()))?,
                    )
                }
                ActorKind::Cast => {
                    let x = input_of(&values, 0)?;
                    let to = out_ty.expect("cast has output").dtype;
                    Some(x.cast(to))
                }
                ActorKind::Switch => {
                    let c = input_of(&values, 0)?;
                    let a = input_of(&values, 1)?;
                    let b = input_of(&values, 2)?;
                    let cf = c.as_f64();
                    let av = a.as_f64();
                    let bv = b.as_f64();
                    let picked: Vec<f64> = (0..a.len())
                        .map(|i| {
                            let ctrl = if cf.len() == 1 { cf[0] } else { cf[i] };
                            if ctrl > 0.0 {
                                av[i]
                            } else {
                                bv[i]
                            }
                        })
                        .collect();
                    Some(
                        Tensor::from_f64(a.ty, picked)
                            .map_err(|e| GenError::Internal(e.to_string()))?,
                    )
                }
                kind if kind.class() == hcg_model::KindClass::Intensive => {
                    let ins: Result<Vec<Tensor>, GenError> = (0..kind.input_count())
                        .map(|p| input_of(&values, p))
                        .collect();
                    let general = self
                        .lib
                        .general_for(kind)
                        .ok_or_else(|| GenError::Internal(format!("no kernel for {kind}")))?;
                    Some(
                        general
                            .run(&ins?)
                            .map_err(|e| GenError::Internal(e.to_string()))?,
                    )
                }
                kind => {
                    let op = ElemOp::from_actor(kind, amount)
                        .ok_or_else(|| GenError::Internal(format!("no semantics for {kind}")))?;
                    let x = input_of(&values, 0)?;
                    Some(if op.arity() == 1 {
                        x.unary(op).map_err(|e| GenError::Internal(e.to_string()))?
                    } else {
                        let y = input_of(&values, 1)?;
                        x.binary(op, &y)
                            .map_err(|e| GenError::Internal(e.to_string()))?
                    })
                }
            };
            if let Some(v) = value {
                values.insert(aid, v);
            }
        }

        // Latch delays from their drivers.
        for a in &self.model.actors {
            if a.kind == ActorKind::UnitDelay {
                let src = self
                    .model
                    .driver(PortRef::new(a.id, 0))
                    .ok_or_else(|| GenError::Internal("unconnected delay".into()))?;
                if let Some(v) = values.get(&src.actor) {
                    self.state.insert(a.id, v.clone());
                }
            }
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::{library, DataType, SignalType};

    #[test]
    fn fig4_reference_values() {
        let m = library::fig4_model();
        let mut r = Reference::new(&m).unwrap();
        let ty = SignalType::vector(DataType::I32, 4);
        let mut inputs = BTreeMap::new();
        inputs.insert("a".into(), Tensor::from_i64(ty, vec![1, 2, 3, 4]).unwrap());
        inputs.insert(
            "b".into(),
            Tensor::from_i64(ty, vec![10, 20, 30, 40]).unwrap(),
        );
        inputs.insert("c".into(), Tensor::from_i64(ty, vec![5, 5, 5, 5]).unwrap());
        inputs.insert("d".into(), Tensor::from_i64(ty, vec![2, 2, 2, 2]).unwrap());
        let out = r.step(&inputs).unwrap();
        // s = [5,15,25,35]; shr = (a+s)>>1; add = s + s*d.
        assert_eq!(out["Shr_out"].as_i64(), vec![3, 8, 14, 19]);
        assert_eq!(out["Add_out"].as_i64(), vec![15, 45, 75, 105]);
    }

    #[test]
    fn delay_state_advances() {
        let m = library::lowpass_model(4);
        let mut r = Reference::new(&m).unwrap();
        let ty = SignalType::vector(DataType::F32, 4);
        let mut inputs = BTreeMap::new();
        inputs.insert("x".into(), Tensor::from_f64(ty, vec![1.0; 4]).unwrap());
        let o1 = r.step(&inputs).unwrap();
        let o2 = r.step(&inputs).unwrap();
        // y1 = 0.2, y2 = 0.2 + 0.2*(1 - 0.2) = 0.36.
        assert!((o1["y"].as_f64()[0] - 0.2).abs() < 1e-6);
        assert!((o2["y"].as_f64()[0] - 0.36).abs() < 1e-6);
    }

    #[test]
    fn fft_model_runs_via_general_kernel() {
        let m = library::fft_model(16);
        let mut r = Reference::new(&m).unwrap();
        let ty = SignalType::vector(DataType::F32, 16);
        let mut inputs = BTreeMap::new();
        inputs.insert("x".into(), Tensor::from_f64(ty, vec![1.0; 16]).unwrap());
        let out = r.step(&inputs).unwrap();
        assert_eq!(out["spectrum"].len(), 32);
    }

    #[test]
    fn missing_input_is_an_error() {
        let m = library::dct_model(8);
        let mut r = Reference::new(&m).unwrap();
        assert!(r.step(&BTreeMap::new()).is_err());
    }
}
