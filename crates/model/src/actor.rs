//! Actor kinds, the actor inventory of paper Table 1, and per-kind port and
//! parameter contracts.

use crate::types::{Param, SignalType};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Identifier of an actor inside a [`Model`](crate::Model).
///
/// Stable across scheduling and code generation; assigned densely from zero
/// by the [`ModelBuilder`](crate::ModelBuilder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Coarse capability class of an actor kind, before input scales are known.
///
/// The final dispatch decision (paper §3.1) also needs the input scale: a
/// `BatchCapable` actor with scalar inputs is translated conventionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KindClass {
    /// Table 1a: complex calculations over array input where input and output
    /// elements do not correspond one-to-one (FFT, DCT, convolution, matrix
    /// algebra).
    Intensive,
    /// Table 1b: element-wise operations where output element `i` is computed
    /// from input element(s) `i`.
    Batch,
    /// Everything else: sources, sinks, state, routing.
    Basic,
}

/// The kind of a model actor.
///
/// Covers every entry of paper Table 1 plus the basic actors needed to build
/// the evaluation models (sources, sinks, unit delays, routing).
///
/// # Examples
///
/// ```
/// use hcg_model::{ActorKind, KindClass};
/// assert_eq!(ActorKind::Fft.class(), KindClass::Intensive);
/// assert_eq!(ActorKind::Add.class(), KindClass::Batch);
/// assert_eq!(ActorKind::UnitDelay.class(), KindClass::Basic);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActorKind {
    // ---- basic actors ----
    /// External input; declares its signal type via the `type` parameter.
    Inport,
    /// External output.
    Outport,
    /// Constant source; parameters `type` and `value`.
    Constant,
    /// Multiply by a scalar constant (parameter `gain`).
    Gain,
    /// One-sample delay (breaks feedback loops); optional `init` parameter.
    UnitDelay,
    /// Three-input routing: passes input 1 when input 0 is positive, else
    /// input 2.
    Switch,
    /// Clamp to `[min, max]` (parameters `min`, `max`).
    Saturate,
    /// Element-wise data type conversion to the `to` parameter type.
    Cast,
    /// Arithmetic negation.
    Neg,

    // ---- batch computing actors (Table 1b) ----
    /// Element-wise addition.
    Add,
    /// Element-wise subtraction.
    Sub,
    /// Element-wise multiplication.
    Mul,
    /// Element-wise division.
    Div,
    /// Element-wise arithmetic shift right by the constant `amount` parameter.
    Shr,
    /// Element-wise shift left by the constant `amount` parameter.
    Shl,
    /// Element-wise bitwise NOT (integers only).
    BitNot,
    /// Element-wise bitwise AND (integers only).
    BitAnd,
    /// Element-wise bitwise OR (integers only).
    BitOr,
    /// Element-wise bitwise XOR (integers only).
    BitXor,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Element-wise absolute value.
    Abs,
    /// Element-wise absolute difference `|a - b|`.
    Abd,
    /// Element-wise reciprocal (floats only).
    Recp,
    /// Element-wise square root (floats only).
    Sqrt,

    // ---- intensive computing actors (Table 1a) ----
    /// Matrix multiplication `(r×k)·(k×c)`.
    MatMul,
    /// Square matrix inversion (floats only).
    MatInv,
    /// Square matrix determinant (floats only).
    MatDet,
    /// 1-D fast Fourier transform: real `n`-vector in, interleaved complex
    /// `2n`-vector out.
    Fft,
    /// 1-D inverse FFT: interleaved complex `2n`-vector in, real `n`-vector
    /// out (imaginary parts discarded).
    Ifft,
    /// 1-D discrete cosine transform (DCT-II), `n` in / `n` out.
    Dct,
    /// 1-D inverse DCT (DCT-III), `n` in / `n` out.
    Idct,
    /// 1-D full convolution: inputs of length `n` and `k`, output `n+k-1`.
    Conv,
    /// 2-D FFT over a real `r×c` matrix, out `r×2c` interleaved complex rows.
    Fft2d,
    /// 2-D DCT-II over an `r×c` matrix.
    Dct2d,
    /// 2-D full convolution of an `r1×c1` and an `r2×c2` matrix.
    Conv2d,
}

impl ActorKind {
    /// All actor kinds, in a stable order.
    pub const ALL: [ActorKind; 36] = [
        ActorKind::Inport,
        ActorKind::Outport,
        ActorKind::Constant,
        ActorKind::Gain,
        ActorKind::UnitDelay,
        ActorKind::Switch,
        ActorKind::Saturate,
        ActorKind::Cast,
        ActorKind::Neg,
        ActorKind::Add,
        ActorKind::Sub,
        ActorKind::Mul,
        ActorKind::Div,
        ActorKind::Shr,
        ActorKind::Shl,
        ActorKind::BitNot,
        ActorKind::BitAnd,
        ActorKind::BitOr,
        ActorKind::BitXor,
        ActorKind::Min,
        ActorKind::Max,
        ActorKind::Abs,
        ActorKind::Abd,
        ActorKind::Recp,
        ActorKind::Sqrt,
        ActorKind::MatMul,
        ActorKind::MatInv,
        ActorKind::MatDet,
        ActorKind::Fft,
        ActorKind::Ifft,
        ActorKind::Dct,
        ActorKind::Idct,
        ActorKind::Conv,
        ActorKind::Fft2d,
        ActorKind::Dct2d,
        ActorKind::Conv2d,
    ];

    /// The capability class used by actor dispatch (paper §3.1).
    pub const fn class(self) -> KindClass {
        use ActorKind::*;
        match self {
            Add | Sub | Mul | Div | Shr | Shl | BitNot | BitAnd | BitOr | BitXor | Min | Max
            | Abs | Abd | Recp | Sqrt => KindClass::Batch,
            MatMul | MatInv | MatDet | Fft | Ifft | Dct | Idct | Conv | Fft2d | Dct2d | Conv2d => {
                KindClass::Intensive
            }
            _ => KindClass::Basic,
        }
    }

    /// Number of data input ports.
    pub const fn input_count(self) -> usize {
        use ActorKind::*;
        match self {
            Inport | Constant => 0,
            Switch => 3,
            Add | Sub | Mul | Div | BitAnd | BitOr | BitXor | Min | Max | Abd | MatMul | Conv
            | Conv2d => 2,
            _ => 1,
        }
    }

    /// Number of data output ports (always 1 except for sinks).
    pub const fn output_count(self) -> usize {
        match self {
            ActorKind::Outport => 0,
            _ => 1,
        }
    }

    /// Parameter names this kind requires.
    pub fn required_params(self) -> &'static [&'static str] {
        use ActorKind::*;
        match self {
            Inport => &["type"],
            Constant => &["type", "value"],
            Gain => &["gain"],
            Saturate => &["min", "max"],
            Cast => &["to"],
            Shr | Shl => &["amount"],
            _ => &[],
        }
    }

    /// `true` when the kind only operates on floating-point elements.
    pub const fn float_only(self) -> bool {
        use ActorKind::*;
        matches!(
            self,
            Recp | Sqrt | MatInv | MatDet | Fft | Ifft | Dct | Idct | Fft2d | Dct2d
        )
    }

    /// `true` when the kind only operates on integer elements.
    pub const fn int_only(self) -> bool {
        use ActorKind::*;
        matches!(self, Shr | Shl | BitNot | BitAnd | BitOr | BitXor)
    }

    /// The canonical name used in model files, e.g. `"Add"`.
    pub const fn name(self) -> &'static str {
        use ActorKind::*;
        match self {
            Inport => "Inport",
            Outport => "Outport",
            Constant => "Constant",
            Gain => "Gain",
            UnitDelay => "UnitDelay",
            Switch => "Switch",
            Saturate => "Saturate",
            Cast => "Cast",
            Neg => "Neg",
            Add => "Add",
            Sub => "Sub",
            Mul => "Mul",
            Div => "Div",
            Shr => "Shr",
            Shl => "Shl",
            BitNot => "BitNot",
            BitAnd => "BitAnd",
            BitOr => "BitOr",
            BitXor => "BitXor",
            Min => "Min",
            Max => "Max",
            Abs => "Abs",
            Abd => "Abd",
            Recp => "Recp",
            Sqrt => "Sqrt",
            MatMul => "MatMul",
            MatInv => "MatInv",
            MatDet => "MatDet",
            Fft => "FFT",
            Ifft => "IFFT",
            Dct => "DCT",
            Idct => "IDCT",
            Conv => "Conv",
            Fft2d => "FFT2D",
            Dct2d => "DCT2D",
            Conv2d => "Conv2D",
        }
    }
}

impl fmt::Display for ActorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when an actor kind name is not recognised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseActorKindError(String);

impl ParseActorKindError {
    /// The kind name that was not recognised.
    pub fn kind(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ParseActorKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown actor kind: {:?}", self.0)
    }
}

impl std::error::Error for ParseActorKindError {}

impl FromStr for ActorKind {
    type Err = ParseActorKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ActorKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| ParseActorKindError(s.to_owned()))
    }
}

/// One actor (block) instance in a model.
#[derive(Debug, Clone, PartialEq)]
pub struct Actor {
    /// Dense identifier within the owning model.
    pub id: ActorId,
    /// Human-readable unique name.
    pub name: String,
    /// Behavioural kind.
    pub kind: ActorKind,
    /// Kind-specific parameters (see [`ActorKind::required_params`]).
    pub params: BTreeMap<String, Param>,
}

impl Actor {
    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.get(name)
    }

    /// Look up the declared signal type of an `Inport`/`Constant` (`type`
    /// parameter) or the target type of a `Cast` (`to` parameter).
    pub fn type_param(&self, name: &str) -> Option<SignalType> {
        match self.params.get(name)? {
            Param::Str(s) => s.parse().ok(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_inventory_matches_paper() {
        // Table 1a kinds are all Intensive.
        for k in [
            ActorKind::MatMul,
            ActorKind::MatInv,
            ActorKind::MatDet,
            ActorKind::Fft,
            ActorKind::Ifft,
            ActorKind::Dct,
            ActorKind::Idct,
            ActorKind::Conv,
            ActorKind::Fft2d,
            ActorKind::Dct2d,
            ActorKind::Conv2d,
        ] {
            assert_eq!(k.class(), KindClass::Intensive, "{k}");
        }
        // Table 1b kinds are all Batch.
        for k in [
            ActorKind::Add,
            ActorKind::Sub,
            ActorKind::Mul,
            ActorKind::Div,
            ActorKind::Shr,
            ActorKind::Shl,
            ActorKind::BitNot,
            ActorKind::BitAnd,
            ActorKind::BitOr,
            ActorKind::BitXor,
            ActorKind::Min,
            ActorKind::Max,
            ActorKind::Abs,
            ActorKind::Abd,
            ActorKind::Recp,
            ActorKind::Sqrt,
        ] {
            assert_eq!(k.class(), KindClass::Batch, "{k}");
        }
    }

    #[test]
    fn port_counts() {
        assert_eq!(ActorKind::Inport.input_count(), 0);
        assert_eq!(ActorKind::Inport.output_count(), 1);
        assert_eq!(ActorKind::Outport.input_count(), 1);
        assert_eq!(ActorKind::Outport.output_count(), 0);
        assert_eq!(ActorKind::Add.input_count(), 2);
        assert_eq!(ActorKind::Abs.input_count(), 1);
        assert_eq!(ActorKind::Switch.input_count(), 3);
        assert_eq!(ActorKind::Shr.input_count(), 1);
        assert_eq!(ActorKind::Conv.input_count(), 2);
    }

    #[test]
    fn kind_name_roundtrip() {
        for k in ActorKind::ALL {
            assert_eq!(k.name().parse::<ActorKind>().unwrap(), k);
        }
        assert!("Bogus".parse::<ActorKind>().is_err());
    }

    #[test]
    fn dtype_restrictions() {
        assert!(ActorKind::Recp.float_only());
        assert!(ActorKind::Fft.float_only());
        assert!(ActorKind::Shr.int_only());
        assert!(!ActorKind::Add.float_only());
        assert!(!ActorKind::Add.int_only());
    }

    #[test]
    fn required_params() {
        assert_eq!(ActorKind::Inport.required_params(), &["type"]);
        assert_eq!(ActorKind::Shr.required_params(), &["amount"]);
        assert!(ActorKind::Add.required_params().is_empty());
    }
}
