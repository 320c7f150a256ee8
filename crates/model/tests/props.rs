//! Property tests for the modeling front end: XML round trips, tensor
//! semantics, parameter text forms, and schedule invariants.

use hcg_model::op::{eval_binary_i, wrap_int, ElemOp};
use hcg_model::parser::{model_from_xml, model_to_xml};
use hcg_model::{library, schedule::schedule, DataType, Param, SignalType, Tensor};
use proptest::prelude::*;

fn arb_dtype() -> impl Strategy<Value = DataType> {
    prop::sample::select(DataType::ALL.to_vec())
}

fn arb_int_dtype() -> impl Strategy<Value = DataType> {
    prop::sample::select(
        DataType::ALL
            .iter()
            .copied()
            .filter(|d| d.is_int())
            .collect::<Vec<_>>(),
    )
}

proptest! {
    /// Any printable names, ASCII or not, survive a model file round trip
    /// as the model's, an actor's and a param's name, and so does a string
    /// param's text (framed by letters so it reads back as a string, with
    /// no edge whitespace for the reader to trim).
    #[test]
    fn xml_name_roundtrip(model in "\\PC{0,40}", actor in "\\PC{0,40}", param in "\\PC{0,20}",
                          text in "\\PC{0,40}") {
        let mut m = library::fig2_model();
        (m.name, m.actors[0].name) = (model, actor);
        m.actors[0].params.insert(param, Param::Int(2));
        m.actors[1].params.insert("note".to_owned(), Param::Str(format!("x{text}x")));
        let back = model_from_xml(&model_to_xml(&m)).expect("writer output parses");
        prop_assert_eq!(back, m);
    }

    /// Param text form round-trips for all numeric shapes.
    #[test]
    fn param_text_roundtrip(ints in prop::collection::vec(-1000i64..1000, 1..6),
                            floats in prop::collection::vec(-100.0f64..100.0, 1..6)) {
        let p1 = if ints.len() == 1 { Param::Int(ints[0]) } else { Param::IntVec(ints) };
        prop_assert_eq!(Param::parse(&p1.to_string()), p1);
        // Floats that happen to be whole still round-trip as floats.
        let cleaned: Vec<f64> = floats.iter().map(|v| (v * 4.0).round() / 4.0).collect();
        let p2 = if cleaned.len() == 1 {
            Param::Float(cleaned[0])
        } else {
            Param::FloatVec(cleaned)
        };
        prop_assert_eq!(Param::parse(&p2.to_string()), p2);
    }

    /// wrap_int is idempotent and stays in range.
    #[test]
    fn wrap_int_idempotent(dtype in arb_int_dtype(), v in any::<i64>()) {
        let w = wrap_int(dtype, v);
        prop_assert_eq!(wrap_int(dtype, w), w);
        if dtype.bit_width() < 64 {
            let bound = 1i64 << (dtype.bit_width() - 1);
            if dtype.is_signed() {
                prop_assert!((-bound..bound).contains(&w));
            } else {
                prop_assert!((0..2 * bound).contains(&w));
            }
        }
    }

    /// Integer Add/Mul are commutative under wrapping semantics; Sub obeys
    /// a - b == -(b - a) except at the asymmetric minimum.
    #[test]
    fn int_op_algebra(dtype in arb_int_dtype(), a in any::<i32>(), b in any::<i32>()) {
        let (a, b) = (a as i64, b as i64);
        prop_assert_eq!(
            eval_binary_i(ElemOp::Add, dtype, a, b),
            eval_binary_i(ElemOp::Add, dtype, b, a)
        );
        prop_assert_eq!(
            eval_binary_i(ElemOp::Mul, dtype, a, b),
            eval_binary_i(ElemOp::Mul, dtype, b, a)
        );
        prop_assert_eq!(
            eval_binary_i(ElemOp::Min, dtype, a, b).min(eval_binary_i(ElemOp::Max, dtype, a, b)),
            eval_binary_i(ElemOp::Min, dtype, a, b)
        );
    }

    /// Tensor binary ops match the scalar reference element-wise.
    #[test]
    fn tensor_matches_scalar_semantics(
        dtype in arb_dtype(),
        a in prop::collection::vec(-100i64..100, 1..20),
    ) {
        let n = a.len();
        let b: Vec<i64> = a.iter().map(|v| v * 3 - 7).collect();
        let ty = SignalType::vector(dtype, n);
        let ta = Tensor::from_i64(ty, a.clone()).expect("sized");
        let tb = Tensor::from_i64(ty, b.clone()).expect("sized");
        let sum = ta.binary(ElemOp::Add, &tb).expect("add works on all dtypes");
        for i in 0..n {
            let expect = if dtype.is_float() {
                (wrapf(dtype, a[i]) + wrapf(dtype, b[i])) as i64
            } else {
                eval_binary_i(ElemOp::Add, dtype, a[i], b[i])
            };
            prop_assert_eq!(sum.as_i64()[i], expect);
        }
    }

    /// Every random model validates, schedules, and schedules the same way
    /// twice (determinism).
    #[test]
    fn random_models_schedule_deterministically(seed in 1u64..2000, n in 1usize..30, k in 1usize..12) {
        let m = library::random_batch_model(seed, n, k);
        m.infer_types().expect("valid");
        let s1 = schedule(&m).expect("schedules");
        let s2 = schedule(&m).expect("schedules");
        prop_assert_eq!(&s1, &s2);
        // Topological: every connection (except out of delays) goes forward.
        let pos = s1.positions();
        for c in &m.connections {
            if m.actor(c.from.actor).kind != hcg_model::ActorKind::UnitDelay {
                prop_assert!(pos[c.from.actor.0] < pos[c.to.actor.0]);
            }
        }
    }

    /// Model files round-trip for arbitrary random models.
    #[test]
    fn model_file_roundtrip(seed in 1u64..2000, n in 1usize..20, k in 1usize..10) {
        use hcg_model::parser::{model_from_xml, model_to_xml};
        let m = library::random_batch_model(seed, n, k);
        let back = model_from_xml(&model_to_xml(&m)).expect("parses");
        prop_assert_eq!(back, m);
    }
}

fn wrapf(dtype: DataType, v: i64) -> f64 {
    if dtype.is_float() {
        v as f64
    } else {
        wrap_int(dtype, v) as f64
    }
}
