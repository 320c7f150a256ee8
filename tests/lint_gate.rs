//! Lint gate: the static analyzer runs end-to-end over the checked-in
//! example model files and over every program the generator fleet produces.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Clean fleet** — every bundled model lints clean, and HCG plus both
//!    baselines generate programs with zero error-severity diagnostics on
//!    every architecture.
//! 2. **Exhaustive collection** — deliberately malformed inputs produce
//!    *all* of their expected diagnostics in a single analyzer run, not
//!    just the first.
//! 3. **One verdict** — the model lints report an error exactly when the
//!    compiler's front end rejects the model, since both read one checker.

use hcg::analysis::{lint_model, lint_model_file, lint_program, LintCode, Severity};
use hcg::baselines::{DfSynthGen, SimulinkCoderGen};
use hcg::core::{CodeGenerator, HcgGen};
use hcg::isa::Arch;
use hcg::kernels::CodeLibrary;
use hcg::model::op::ElemOp;
use hcg::model::parser::model_from_xml;
use hcg::model::{library, ActorKind, DataType, Model, ModelBuilder, Param, SignalType};

fn example_model_files() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/models");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("examples/models exists")
        .filter_map(|e| {
            let path = e.expect("readable dir entry").path();
            (path.extension().is_some_and(|x| x == "xml")).then(|| {
                (
                    path.display().to_string(),
                    std::fs::read_to_string(&path).expect("readable model file"),
                )
            })
        })
        .collect();
    files.sort();
    assert!(files.len() >= 8, "example models missing: {files:?}");
    files
}

#[test]
fn example_model_files_lint_clean() {
    for (path, text) in example_model_files() {
        let report = lint_model_file(&text);
        assert!(
            !report.has_errors(),
            "{path} should lint clean:\n{}",
            report.render()
        );
    }
}

fn fleet() -> Vec<Box<dyn CodeGenerator>> {
    vec![
        Box::new(HcgGen::new()),
        Box::new(SimulinkCoderGen::new()),
        Box::new(DfSynthGen::new()),
    ]
}

fn assert_fleet_clean(model: &Model, label: &str) {
    let lib = CodeLibrary::new();
    for generator in fleet() {
        for arch in [Arch::Neon128, Arch::Avx256] {
            let prog = generator
                .generate(model, arch)
                .unwrap_or_else(|e| panic!("{} on {label}/{arch}: {e}", generator.name()));
            let report = lint_program(&prog, &lib);
            assert_eq!(
                report.error_count(),
                0,
                "{} on {label}/{arch} emitted a program with lint errors:\n{}",
                generator.name(),
                report.render()
            );
        }
    }
}

#[test]
fn clean_fleet_over_example_files() {
    for (path, text) in example_model_files() {
        let model = model_from_xml(&text).expect("example parses");
        assert_fleet_clean(&model, &path);
    }
}

fn library_models() -> Vec<Model> {
    library::paper_benchmarks()
        .into_iter()
        .chain([
            library::fig2_model(),
            library::fig4_model(),
            library::switch_model(128),
            library::mixed_width_model(128),
            library::matrix_pipeline_model(8),
        ])
        .collect()
}

#[test]
fn clean_fleet_over_library_models() {
    for model in library_models() {
        let report = lint_model(&model);
        assert!(
            !report.has_errors(),
            "{} should lint clean:\n{}",
            model.name,
            report.render()
        );
        let label = model.name.clone();
        assert_fleet_clean(&model, &label);
    }
}

#[test]
fn malformed_model_yields_all_diagnostics_in_one_run() {
    // An algebraic loop (Add <-> Mul with no UnitDelay) AND a
    // dtype-mismatched connection (f32 wire into an i32 wire's Add) must
    // both be reported by a single run.
    let text = r#"<model name="broken">
        <actor id="0" name="x" kind="Inport"><param name="type">i32*16</param></actor>
        <actor id="1" name="f" kind="Inport"><param name="type">f32*16</param></actor>
        <actor id="2" name="sum" kind="Add"/>
        <actor id="3" name="prod" kind="Mul"/>
        <actor id="4" name="y" kind="Outport"/>
        <connect from="0:0" to="2:0"/>
        <connect from="1:0" to="3:0"/>
        <connect from="2:0" to="3:1"/>
        <connect from="3:0" to="2:1"/>
        <connect from="3:0" to="4:0"/>
    </model>"#;
    let report = lint_model_file(text);
    assert!(
        report.has(LintCode::AlgebraicLoop),
        "missing algebraic-loop finding:\n{}",
        report.render()
    );
    assert!(
        report.has(LintCode::DtypeMismatch),
        "missing dtype-mismatch finding:\n{}",
        report.render()
    );
    let rendered = report.render();
    assert!(rendered.contains("model/algebraic-loop"), "{rendered}");
    assert!(rendered.contains("model/dtype-mismatch"), "{rendered}");
    // The strict parser would have stopped long before seeing both.
    assert!(report.error_count() >= 2, "{rendered}");
}

#[test]
fn malformed_program_yields_all_diagnostics_in_one_run() {
    use hcg::model::{DataType, SignalType};
    use hcg::vm::{BufferKind, ElemRef, IndexExpr, Program, ScalarOp, Stmt};

    let ty = SignalType::vector(DataType::I32, 8);
    let mut prog = Program::new("broken", "hand", Arch::Neon128);
    let input = prog.add_buffer("in", ty, BufferKind::Input, None);
    let tmp = prog.add_buffer("tmp", ty, BufferKind::Temp, None);
    let out = prog.add_buffer("out", ty, BufferKind::Output, None);
    let reg = prog.add_reg(DataType::I32, 4);
    // Uninitialized vector register read.
    prog.body.push(Stmt::VStore {
        buf: out,
        index: IndexExpr::Const(0),
        reg,
    });
    let elementwise = |dst, src| Stmt::Loop {
        start: 0,
        end: 8,
        step: 1,
        body: vec![Stmt::Scalar {
            op: ScalarOp::Elem(ElemOp::Abs),
            dst: ElemRef {
                buf: dst,
                index: IndexExpr::Loop(0),
            },
            srcs: vec![ElemRef {
                buf: src,
                index: IndexExpr::Loop(0),
            }],
        }],
    };
    // Dead store: tmp written, overwritten with no read in between.
    prog.body.push(elementwise(tmp, input));
    prog.body.push(elementwise(tmp, input));
    prog.body.push(elementwise(out, tmp));

    let report = lint_program(&prog, &CodeLibrary::new());
    assert!(
        report.has(LintCode::UninitializedRegister),
        "missing uninitialized-register finding:\n{}",
        report.render()
    );
    assert!(
        report.has(LintCode::DeadStore),
        "missing dead-store finding:\n{}",
        report.render()
    );
    let rendered = report.render();
    assert!(
        rendered.contains("program/uninitialized-register"),
        "{rendered}"
    );
    assert!(rendered.contains("program/dead-store"), "{rendered}");
}

#[test]
fn severities_are_stable() {
    // The gate relies on the error/warning split: structural breakage is an
    // error, code-quality findings are warnings.
    assert_eq!(LintCode::AlgebraicLoop.severity(), Severity::Error);
    assert_eq!(LintCode::DtypeMismatch.severity(), Severity::Error);
    assert_eq!(LintCode::UninitializedRegister.severity(), Severity::Error);
    assert_eq!(LintCode::DeadStore.severity(), Severity::Warning);
    assert_eq!(LintCode::UnreachableActor.severity(), Severity::Warning);
    assert_eq!(LintCode::NeverReadBuffer.severity(), Severity::Warning);
    // A repeated wire is a second driver to the compiler, and an
    // unresolved type stops it: both are errors.
    assert_eq!(LintCode::DuplicateConnection.severity(), Severity::Error);
    assert_eq!(LintCode::UnresolvedType.severity(), Severity::Error);
    // Range lints (raised by `hcg-verify`'s abstract interpreter) are
    // advisory except the structural lane check.
    assert_eq!(LintCode::PossibleOverflow.severity(), Severity::Warning);
    assert_eq!(LintCode::PossibleDivByZero.severity(), Severity::Warning);
    assert_eq!(LintCode::LaneOutOfRange.severity(), Severity::Error);
}

/// `lint_model` has an error-severity finding exactly when `front_end`
/// fails.
fn assert_verdicts_agree(model: &Model, label: &str) {
    let report = lint_model(model);
    assert_eq!(
        report.has_errors(),
        model.front_end().is_err(),
        "lint and compiler disagree on {label}: front end {:?}\n{}",
        model.front_end().map(|_| ()),
        report.render()
    );
}

/// A one-actor chain `x -> kind -> y`, with `x` of type `ty`.
fn unary(kind: ActorKind, ty: SignalType, params: &[(&str, Param)]) -> ModelBuilder {
    let mut b = ModelBuilder::new(format!("probe_{kind}"));
    let x = b.inport("x", ty);
    let a = b.add_actor("a", kind);
    for (name, value) in params {
        b.set_param(a, *name, value.clone());
    }
    let y = b.outport("y");
    b.connect(x, 0, a, 0);
    b.connect(a, 0, y, 0);
    b
}

/// A two-input chain `x, h -> kind -> y`.
fn binary(kind: ActorKind, x_ty: SignalType, h_ty: SignalType) -> Model {
    let mut b = ModelBuilder::new(format!("probe_{kind}"));
    let x = b.inport("x", x_ty);
    let h = b.inport("h", h_ty);
    let a = b.add_actor("a", kind);
    let y = b.outport("y");
    b.connect(x, 0, a, 0);
    b.connect(h, 0, a, 1);
    b.connect(a, 0, y, 0);
    b.build_unchecked()
}

/// Models on which the model lints and the compiler once disagreed, or
/// both wrongly accepted, each with the lint code that now reports it.
fn probe_models() -> Vec<(Model, LintCode)> {
    let f32v = |n| SignalType::vector(DataType::F32, n);
    let f32m = |r, c| SignalType::matrix(DataType::F32, r, c);
    let text = |s: &str| Param::Str(s.to_owned());

    let mut twice = ModelBuilder::new("probe_same_wire_twice");
    let x = twice.inport("x", f32v(4));
    let y = twice.outport("y");
    twice.connect(x, 0, y, 0);
    twice.connect(x, 0, y, 0);

    let mut delay_loop = ModelBuilder::new("probe_untyped_loop");
    let d = delay_loop.unit_delay("d", None);
    let g = delay_loop.gain("g", 0.5);
    let y = delay_loop.outport("y");
    delay_loop.connect(d, 0, g, 0);
    delay_loop.connect(g, 0, d, 0);
    delay_loop.connect(g, 0, y, 0);

    let saturate = [("min", Param::Float(5.0)), ("max", Param::Float(1.0))];
    vec![
        (twice.build_unchecked(), LintCode::DuplicateConnection),
        (
            binary(ActorKind::Conv, f32m(2, 2), f32m(2, 2)),
            LintCode::ScaleMismatch,
        ),
        (
            unary(ActorKind::Fft, f32m(4, 4), &[]).build_unchecked(),
            LintCode::ScaleMismatch,
        ),
        (
            unary(ActorKind::Fft2d, f32v(16), &[]).build_unchecked(),
            LintCode::ScaleMismatch,
        ),
        (
            binary(ActorKind::Conv2d, f32v(8), f32v(3)),
            LintCode::ScaleMismatch,
        ),
        (delay_loop.build_unchecked(), LintCode::UnresolvedType),
        (
            unary(ActorKind::Saturate, f32v(4), &saturate).build_unchecked(),
            LintCode::BadParam,
        ),
        (
            unary(ActorKind::Cast, f32v(4), &[("to", text("f33"))]).build_unchecked(),
            LintCode::BadParam,
        ),
        (
            unary(ActorKind::UnitDelay, f32v(4), &[("type", text("garbage"))]).build_unchecked(),
            LintCode::BadParam,
        ),
        // Sizes once computed with unchecked arithmetic: an empty `Conv`
        // typed its output as `usize::MAX` elements, and a product of two
        // fitting matrix shapes could overflow.
        (
            binary(ActorKind::Conv, f32v(0), f32v(0)),
            LintCode::ScaleMismatch,
        ),
        (
            binary(ActorKind::MatMul, f32m(1 << 33, 1), f32m(1, 1 << 33)),
            LintCode::ScaleMismatch,
        ),
    ]
}

#[test]
fn lint_and_compiler_reject_the_probe_models_alike() {
    for (model, code) in probe_models() {
        let report = lint_model(&model);
        assert!(
            report.has(code) && report.has_errors(),
            "{} should lint with an error {code}:\n{}",
            model.name,
            report.render()
        );
        assert!(
            model.front_end().is_err(),
            "{} should be rejected by the compiler",
            model.name
        );
    }
}

#[test]
fn lint_and_compiler_verdicts_agree_on_bundled_library_and_fuzz_models() {
    use hcg_fuzz::{generate_model, random_edit, EditOracleConfig, GenConfig};
    use rand::{rngs::StdRng, SeedableRng};

    for (path, text) in example_model_files() {
        let model = model_from_xml(&text).expect("example parses");
        assert_verdicts_agree(&model, &path);
    }
    for model in library_models() {
        assert_verdicts_agree(&model, &model.name);
    }
    let cfg = GenConfig::default();
    let max_actors = EditOracleConfig::default().max_actors;
    let mut edits = 0;
    for seed in 0..1_000u64 {
        let mut model = generate_model(seed, &cfg);
        assert_verdicts_agree(&model, &format!("seed {seed}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut names = 0;
        for edit in 0..12 {
            let Some(delta) = random_edit(&model, &mut rng, &mut names, max_actors) else {
                break;
            };
            model = delta.apply(&model).expect("random edits apply");
            assert_verdicts_agree(&model, &format!("seed {seed} edit {edit}"));
            edits += 1;
        }
    }
    assert!(edits >= 10_000, "only {edits} random edits applied");
}

/// Build a looped `dst[i] = op(a[i], b[i])` program over i8 buffers — small
/// enough that the interval analyzer can be pushed over the dtype edge.
fn range_prog(op: ElemOp) -> hcg::vm::Program {
    use hcg::model::{DataType, SignalType};
    use hcg::vm::{BufferKind, ElemRef, IndexExpr, Program, ScalarOp, Stmt};

    let ty = SignalType::vector(DataType::I8, 8);
    let mut prog = Program::new("range-golden", "hand", Arch::Neon128);
    let a = prog.add_buffer("a", ty, BufferKind::Input, None);
    let b = prog.add_buffer("b", ty, BufferKind::Input, None);
    let out = prog.add_buffer("out", ty, BufferKind::Output, None);
    prog.body.push(Stmt::Loop {
        start: 0,
        end: 8,
        step: 1,
        body: vec![Stmt::Scalar {
            op: ScalarOp::Elem(op),
            dst: ElemRef {
                buf: out,
                index: IndexExpr::Loop(0),
            },
            srcs: vec![
                ElemRef {
                    buf: a,
                    index: IndexExpr::Loop(0),
                },
                ElemRef {
                    buf: b,
                    index: IndexExpr::Loop(0),
                },
            ],
        }],
    });
    prog
}

#[test]
fn range_lints_flag_overflow_and_div_by_zero() {
    use hcg::verify::range_lint;

    // i8 + i8 can escape [-128, 127]: PossibleOverflow, as a warning.
    let report = range_lint(&range_prog(ElemOp::Add));
    assert!(
        report.has(LintCode::PossibleOverflow),
        "missing overflow finding:\n{}",
        report.render()
    );
    assert_eq!(report.error_count(), 0, "{}", report.render());
    assert!(report.render().contains("program/possible-overflow"));

    // A full-range divisor contains zero: PossibleDivByZero.
    let report = range_lint(&range_prog(ElemOp::Div));
    assert!(
        report.has(LintCode::PossibleDivByZero),
        "missing div-by-zero finding:\n{}",
        report.render()
    );
    assert!(report.render().contains("program/possible-div-by-zero"));

    // Min never widens the interval: the same shape lints clean.
    let report = range_lint(&range_prog(ElemOp::Min));
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings:\n{}",
        report.render()
    );
}

#[test]
fn range_lints_flag_lane_out_of_range() {
    use hcg::isa::{Pattern, PatternArg};
    use hcg::model::{DataType, SignalType};
    use hcg::verify::range_lint;
    use hcg::vm::{BufferKind, IndexExpr, Program, Stmt};

    let ty = SignalType::vector(DataType::F32, 4);
    let mut prog = Program::new("lane-golden", "hand", Arch::Neon128);
    let a = prog.add_buffer("a", ty, BufferKind::Input, None);
    let out = prog.add_buffer("out", ty, BufferKind::Output, None);
    let narrow = prog.add_reg(DataType::F32, 2);
    let wide = prog.add_reg(DataType::F32, 4);
    prog.body.push(Stmt::VLoad {
        reg: narrow,
        buf: a,
        index: IndexExpr::Const(0),
    });
    // A 4-lane op over a 2-lane source register reads lanes that do not
    // exist: a structural error.
    prog.body.push(Stmt::VOp {
        instr: "vabs".to_owned(),
        pattern: Pattern {
            op: ElemOp::Abs,
            args: vec![PatternArg::Input(0)],
        },
        cost: 1,
        dst: wide,
        srcs: vec![narrow],
        code: String::new(),
    });
    prog.body.push(Stmt::VStore {
        buf: out,
        index: IndexExpr::Const(0),
        reg: wide,
    });

    let report = range_lint(&prog);
    assert!(
        report.has(LintCode::LaneOutOfRange),
        "missing lane finding:\n{}",
        report.render()
    );
    assert!(
        report.has_errors(),
        "lane check is an error:\n{}",
        report.render()
    );
    assert!(report.render().contains("program/lane-out-of-range"));
}
