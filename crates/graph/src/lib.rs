//! # hcg-graph — dataflow graph engine for SIMD instruction selection
//!
//! Implements the graph machinery of the HCG paper's Algorithm 2 (§3.2.2):
//! the directed dataflow graph over batch computing actors ([`Dfg`]),
//! topmost-leftmost node selection and bounded subgraph extension with
//! convexity/independence guarantees ([`extend`]), candidate operand trees
//! ([`ValTree`]), and matching against SIMD instruction computing graphs
//! ([`matching`]).
//!
//! # Examples
//!
//! ```
//! use hcg_graph::{Dfg, DfgInput, extend::{MapState, top_left_node, extend_subgraphs}};
//! use hcg_graph::matching::find_instruction_indexed;
//! use hcg_isa::{sets, Arch};
//! use hcg_model::{op::ElemOp, DataType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // out = acc + x*y — one vmlaq_s32 on NEON.
//! let mut g = Dfg::new(DataType::I32, 4, 3);
//! let m = g.add_node(ElemOp::Mul, vec![DfgInput::External(1), DfgInput::External(2)], "m")?;
//! let a = g.add_node(ElemOp::Add, vec![DfgInput::External(0), DfgInput::Node(m)], "a")?;
//! g.mark_output(a);
//!
//! let (neon, index) = sets::builtin_indexed(Arch::Neon128);
//! let state = MapState::new(&g);
//! let start = top_left_node(&g, &state).expect("graph not empty");
//! let cands = extend_subgraphs(&g, &state, start, 2, 2);
//! let (instr, _) = find_instruction_indexed(neon, index, DataType::I32, 4, &cands[0].tree)
//!     .expect("NEON fuses multiply-add");
//! assert_eq!(instr.name, "vmlaq_s32");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod dfg;
mod tree;

pub mod extend;
pub mod matching;

pub use dfg::{Dfg, DfgError, DfgInput, DfgNode, NodeId};
pub use extend::{Candidate, MapState};
pub use matching::InstrMatch;
pub use tree::ValTree;
