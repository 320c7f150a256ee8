//! # hcg-vm — executable target machine for generated programs
//!
//! The substitution for the paper's physical ARM/Intel testbeds: a program
//! IR that every code generator lowers to ([`Program`]), a value-correct
//! interpreter ([`Machine`]) used to check that all generators compute
//! identical results (paper §4.1), and calibrated per-architecture ×
//! per-compiler cost models ([`CostModel`]) that turn instruction streams
//! into cycle and wall-clock estimates (paper Table 2 / Figure 5).
//!
//! # Examples
//!
//! ```
//! use hcg_vm::{Machine, Program, BufferKind, Stmt, ScalarOp, ElemRef, IndexExpr};
//! use hcg_isa::Arch;
//! use hcg_kernels::CodeLibrary;
//! use hcg_model::{op::ElemOp, DataType, SignalType, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ty = SignalType::vector(DataType::I32, 4);
//! let mut prog = Program::new("double", "by-hand", Arch::Neon128);
//! let x = prog.add_buffer("x", ty, BufferKind::Input, None);
//! let y = prog.add_buffer("y", ty, BufferKind::Output, None);
//! prog.body.push(Stmt::Loop {
//!     start: 0, end: 4, step: 1,
//!     body: vec![Stmt::Scalar {
//!         op: ScalarOp::Elem(ElemOp::Add),
//!         dst: ElemRef { buf: y, index: IndexExpr::Loop(0) },
//!         srcs: vec![
//!             ElemRef { buf: x, index: IndexExpr::Loop(0) },
//!             ElemRef { buf: x, index: IndexExpr::Loop(0) },
//!         ],
//!     }],
//! });
//!
//! let lib = CodeLibrary::new();
//! let mut machine = Machine::new(&prog, &lib);
//! machine.set_input("x", &Tensor::from_i64(ty, vec![1, 2, 3, 4])?)?;
//! machine.step()?;
//! assert_eq!(machine.read_buffer("y")?.as_i64(), vec![2, 4, 6, 8]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cost;
mod interp;
mod profile;
mod program;
mod validate;

pub use cost::{paper_platforms, Compiler, CostModel};
pub use interp::{AccessLog, ExecError, Machine, StmtAccess};
pub use profile::{profile, ActorCycles, CycleProfile, InstrCycles, RegionCycles};
pub use program::{
    BufferDecl, BufferId, BufferKind, ElemRef, IndexExpr, Origin, Program, RegId, ScalarOp, Stmt,
    StmtStats,
};
pub use validate::{validate_all, Defect, DefectKind};
