//! Scalar data types, signal shapes and parameter values for model signals.
//!
//! Simulink signals carry a numeric data type and a dimensionality. HCG's
//! actor dispatch (paper §3.1) and batch synthesis (paper §3.2.2, Algorithm 2)
//! both key on the *bit width* of the element type and the *input scale*
//! (vector length), so those two queries are first-class here.

use std::fmt;
use std::str::FromStr;

/// Element data type of a signal.
///
/// Covers the integer and floating-point types used by the paper's batch
/// computing actors (Table 1b operates on `i8`–`i64`, `f32`, `f64`) and by
/// the intensive computing actors (Table 1a operates on `f32`/`f64`).
///
/// # Examples
///
/// ```
/// use hcg_model::DataType;
/// assert_eq!(DataType::I32.bit_width(), 32);
/// assert!(DataType::F32.is_float());
/// assert_eq!("i32".parse::<DataType>().unwrap(), DataType::I32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Signed 8-bit integer.
    I8,
    /// Signed 16-bit integer.
    I16,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 single-precision float.
    F32,
    /// IEEE-754 double-precision float.
    F64,
}

impl DataType {
    /// All supported data types, in a stable order.
    pub const ALL: [DataType; 10] = [
        DataType::I8,
        DataType::I16,
        DataType::I32,
        DataType::I64,
        DataType::U8,
        DataType::U16,
        DataType::U32,
        DataType::U64,
        DataType::F32,
        DataType::F64,
    ];

    /// Width of one element in bits (Algorithm 2 line 1 divides the vector
    /// register width by this to obtain the batch size).
    pub const fn bit_width(self) -> u32 {
        match self {
            DataType::I8 | DataType::U8 => 8,
            DataType::I16 | DataType::U16 => 16,
            DataType::I32 | DataType::U32 | DataType::F32 => 32,
            DataType::I64 | DataType::U64 | DataType::F64 => 64,
        }
    }

    /// `true` for `f32`/`f64`.
    pub const fn is_float(self) -> bool {
        matches!(self, DataType::F32 | DataType::F64)
    }

    /// `true` for any integer type (signed or unsigned).
    pub const fn is_int(self) -> bool {
        !self.is_float()
    }

    /// `true` for signed integers and floats.
    pub const fn is_signed(self) -> bool {
        !matches!(
            self,
            DataType::U8 | DataType::U16 | DataType::U32 | DataType::U64
        )
    }

    /// The canonical lowercase name, e.g. `"i32"` — the spelling used by the
    /// instruction-set text format of paper §3.3.
    pub const fn name(self) -> &'static str {
        match self {
            DataType::I8 => "i8",
            DataType::I16 => "i16",
            DataType::I32 => "i32",
            DataType::I64 => "i64",
            DataType::U8 => "u8",
            DataType::U16 => "u16",
            DataType::U32 => "u32",
            DataType::U64 => "u64",
            DataType::F32 => "f32",
            DataType::F64 => "f64",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`DataType`], [`Shape`] or [`SignalType`]
/// from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTypeError {
    what: &'static str,
    input: String,
}

impl ParseTypeError {
    fn new(what: &'static str, input: &str) -> Self {
        ParseTypeError {
            what,
            input: input.to_owned(),
        }
    }
}

impl fmt::Display for ParseTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} syntax: {:?}", self.what, self.input)
    }
}

impl std::error::Error for ParseTypeError {}

impl FromStr for DataType {
    type Err = ParseTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DataType::ALL
            .iter()
            .copied()
            .find(|d| d.name() == s)
            .ok_or_else(|| ParseTypeError::new("data type", s))
    }
}

/// Dimensionality of a signal.
///
/// The paper's batch computing actors take vector signals; the 2-D intensive
/// actors (matrix multiply, 2-D FFT/DCT/convolution) take matrix signals.
///
/// # Examples
///
/// ```
/// use hcg_model::Shape;
/// assert_eq!(Shape::Vector(1024).len(), 1024);
/// assert_eq!("4x4".parse::<Shape>().unwrap(), Shape::Matrix(4, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// A single element.
    Scalar,
    /// A 1-D array of the given length.
    Vector(usize),
    /// A row-major matrix with `(rows, cols)`.
    Matrix(usize, usize),
}

impl Shape {
    /// Total number of elements.
    pub const fn len(self) -> usize {
        match self {
            Shape::Scalar => 1,
            Shape::Vector(n) => n,
            Shape::Matrix(r, c) => r * c,
        }
    }

    /// `true` when the shape holds zero elements (a zero-length vector or a
    /// degenerate matrix).
    pub const fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// `true` for vectors and matrices — the "array input" condition that
    /// makes an actor eligible for batch/intensive dispatch (paper §3.1).
    pub const fn is_array(self) -> bool {
        !matches!(self, Shape::Scalar)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Scalar => f.write_str("1"),
            Shape::Vector(n) => write!(f, "{n}"),
            Shape::Matrix(r, c) => write!(f, "{r}x{c}"),
        }
    }
}

impl FromStr for Shape {
    type Err = ParseTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseTypeError::new("shape", s);
        if let Some((r, c)) = s.split_once('x') {
            let r: usize = r.parse().map_err(|_| err())?;
            let c: usize = c.parse().map_err(|_| err())?;
            return Ok(Shape::Matrix(r, c));
        }
        let n: usize = s.parse().map_err(|_| err())?;
        Ok(if n == 1 {
            Shape::Scalar
        } else {
            Shape::Vector(n)
        })
    }
}

/// A fully resolved signal type: element data type plus shape.
///
/// # Examples
///
/// ```
/// use hcg_model::{DataType, Shape, SignalType};
/// let sig = SignalType::vector(DataType::F32, 1024);
/// assert_eq!(sig.to_string(), "f32*1024");
/// assert_eq!("f32*1024".parse::<SignalType>().unwrap(), sig);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalType {
    /// Element data type.
    pub dtype: DataType,
    /// Dimensionality.
    pub shape: Shape,
}

impl SignalType {
    /// A scalar signal of the given data type.
    pub const fn scalar(dtype: DataType) -> Self {
        SignalType {
            dtype,
            shape: Shape::Scalar,
        }
    }

    /// A vector signal of the given data type and length.
    pub const fn vector(dtype: DataType, len: usize) -> Self {
        SignalType {
            dtype,
            shape: Shape::Vector(len),
        }
    }

    /// A matrix signal of the given data type and dimensions.
    pub const fn matrix(dtype: DataType, rows: usize, cols: usize) -> Self {
        SignalType {
            dtype,
            shape: Shape::Matrix(rows, cols),
        }
    }

    /// Total number of elements carried per sample.
    pub const fn len(self) -> usize {
        self.shape.len()
    }

    /// `true` when the signal carries zero elements.
    pub const fn is_empty(self) -> bool {
        self.shape.is_empty()
    }
}

impl fmt::Display for SignalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}*{}", self.dtype, self.shape)
    }
}

impl FromStr for SignalType {
    type Err = ParseTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (d, sh) = s
            .split_once('*')
            .ok_or_else(|| ParseTypeError::new("signal type", s))?;
        Ok(SignalType {
            dtype: d.parse()?,
            shape: sh.parse()?,
        })
    }
}

/// A parameter value attached to an actor (e.g. a `Gain` factor, FIR
/// coefficients, the FFT length).
///
/// # Examples
///
/// ```
/// use hcg_model::Param;
/// let p = Param::FloatVec(vec![0.5, 0.25]);
/// assert_eq!(p.to_string(), "0.5,0.25");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// Integer scalar.
    Int(i64),
    /// Floating-point scalar.
    Float(f64),
    /// Integer array.
    IntVec(Vec<i64>),
    /// Floating-point array.
    FloatVec(Vec<f64>),
    /// Free-form string.
    Str(String),
}

impl Param {
    /// The element count of a numeric parameter (1 for a scalar), or
    /// `None` for a string.
    pub(crate) fn numeric_len(&self) -> Option<usize> {
        match self {
            Param::Int(_) | Param::Float(_) => Some(1),
            Param::IntVec(v) => Some(v.len()),
            Param::FloatVec(v) => Some(v.len()),
            Param::Str(_) => None,
        }
    }

    /// Interpret the parameter as an integer if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Param::Int(v) => Some(*v),
            Param::Float(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// Interpret the parameter as a float if possible.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Param::Int(v) => Some(*v as f64),
            Param::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret the parameter as a float array if possible (scalars widen to
    /// a one-element array).
    pub fn as_float_vec(&self) -> Option<Vec<f64>> {
        match self {
            Param::Int(v) => Some(vec![*v as f64]),
            Param::Float(v) => Some(vec![*v]),
            Param::IntVec(v) => Some(v.iter().map(|&x| x as f64).collect()),
            Param::FloatVec(v) => Some(v.clone()),
            Param::Str(_) => None,
        }
    }

    /// Parse a parameter from its textual form: comma-separated numbers form
    /// arrays, single numbers form scalars, anything else is a string.
    pub fn parse(text: &str) -> Param {
        let parts: Vec<&str> = text.split(',').map(str::trim).collect();
        let ints: Option<Vec<i64>> = parts.iter().map(|p| p.parse().ok()).collect();
        if let Some(v) = ints {
            return if v.len() == 1 {
                Param::Int(v[0])
            } else {
                Param::IntVec(v)
            };
        }
        let floats: Option<Vec<f64>> = parts.iter().map(|p| p.parse().ok()).collect();
        if let Some(v) = floats {
            return if v.len() == 1 {
                Param::Float(v[0])
            } else {
                Param::FloatVec(v)
            };
        }
        Param::Str(text.to_owned())
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Whole floats keep a trailing ".0" so that text round-trips back to
        // the same variant (`5.0` must not re-parse as `Int(5)`).
        fn write_f(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
            if v.is_finite() && v.fract() == 0.0 {
                write!(f, "{v:.1}")
            } else {
                write!(f, "{v}")
            }
        }
        match self {
            Param::Int(v) => write!(f, "{v}"),
            Param::Float(v) => write_f(f, *v),
            Param::IntVec(v) => {
                for (i, it) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{it}")?;
                }
                Ok(())
            }
            Param::FloatVec(v) => {
                for (i, it) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_f(f, *it)?;
                }
                Ok(())
            }
            Param::Str(s) => f.write_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths() {
        assert_eq!(DataType::I8.bit_width(), 8);
        assert_eq!(DataType::U16.bit_width(), 16);
        assert_eq!(DataType::F32.bit_width(), 32);
        assert_eq!(DataType::I64.bit_width(), 64);
        assert_eq!(DataType::F64.bit_width(), 64);
    }

    #[test]
    fn classification_flags() {
        assert!(DataType::F32.is_float());
        assert!(!DataType::F32.is_int());
        assert!(DataType::I32.is_signed());
        assert!(!DataType::U32.is_signed());
        assert!(DataType::F64.is_signed());
    }

    #[test]
    fn dtype_roundtrip_all() {
        for d in DataType::ALL {
            assert_eq!(d.name().parse::<DataType>().unwrap(), d);
        }
    }

    #[test]
    fn dtype_parse_rejects_unknown() {
        assert!("i128".parse::<DataType>().is_err());
        assert!("".parse::<DataType>().is_err());
        assert!("F32".parse::<DataType>().is_err());
    }

    #[test]
    fn shape_lengths() {
        assert_eq!(Shape::Scalar.len(), 1);
        assert_eq!(Shape::Vector(7).len(), 7);
        assert_eq!(Shape::Matrix(3, 4).len(), 12);
        assert!(Shape::Vector(0).is_empty());
        assert!(!Shape::Scalar.is_array());
        assert!(Shape::Vector(2).is_array());
        assert!(Shape::Matrix(2, 2).is_array());
    }

    #[test]
    fn shape_roundtrip() {
        for s in [Shape::Scalar, Shape::Vector(16), Shape::Matrix(3, 3)] {
            assert_eq!(s.to_string().parse::<Shape>().unwrap(), s);
        }
        assert_eq!("1".parse::<Shape>().unwrap(), Shape::Scalar);
    }

    #[test]
    fn shape_parse_rejects_garbage() {
        assert!("x".parse::<Shape>().is_err());
        assert!("3x".parse::<Shape>().is_err());
        assert!("-1".parse::<Shape>().is_err());
    }

    #[test]
    fn signal_type_roundtrip() {
        let cases = [
            SignalType::scalar(DataType::I8),
            SignalType::vector(DataType::F32, 1024),
            SignalType::matrix(DataType::F64, 4, 4),
        ];
        for c in cases {
            assert_eq!(c.to_string().parse::<SignalType>().unwrap(), c);
        }
    }

    #[test]
    fn signal_type_parse_errors() {
        assert!("f32".parse::<SignalType>().is_err());
        assert!("f32*".parse::<SignalType>().is_err());
        assert!("q8*4".parse::<SignalType>().is_err());
    }

    #[test]
    fn param_parse_forms() {
        assert_eq!(Param::parse("42"), Param::Int(42));
        assert_eq!(Param::parse("1.5"), Param::Float(1.5));
        assert_eq!(Param::parse("1,2,3"), Param::IntVec(vec![1, 2, 3]));
        assert_eq!(Param::parse("0.5, 1.5"), Param::FloatVec(vec![0.5, 1.5]));
        assert_eq!(Param::parse("hann"), Param::Str("hann".into()));
    }

    #[test]
    fn param_conversions() {
        assert_eq!(Param::Int(3).as_float(), Some(3.0));
        assert_eq!(Param::Float(2.0).as_int(), Some(2));
        assert_eq!(Param::Float(2.5).as_int(), None);
        assert_eq!(Param::Str("x".into()).as_float_vec(), None);
        assert_eq!(
            Param::IntVec(vec![1, 2]).as_float_vec(),
            Some(vec![1.0, 2.0])
        );
    }

    #[test]
    fn param_display_roundtrip() {
        for p in [
            Param::Int(-7),
            Param::Float(0.25),
            Param::IntVec(vec![1, 2, 3]),
            Param::FloatVec(vec![0.5, 1.25]),
            Param::Str("blackman".into()),
        ] {
            assert_eq!(Param::parse(&p.to_string()), p);
        }
    }
}
