//! The workspace's one JSON writer, plus a recursive-descent
//! well-formedness validator so reports can be checked without a JSON
//! crate (the workspace is dependency-free by policy).
//!
//! Every document is written in one compact layout, `{"k": v, "a": [x, y]}`:
//! [`object`] opens a top-level object in a caller's `String`, and
//! [`Object`]/[`Array`] place the separators, escape every key and string
//! value, and write nested objects and arrays in place.

use std::fmt::Write as _;

/// Escape a string for embedding inside a JSON string literal (quotes not
/// included). Control characters become `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Append `s` to `out` with JSON string escaping (the one escaping rule
/// every writer path shares).
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A scalar (or self-rendering) JSON value the writer can place.
pub trait Value {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        push_escaped(out, self);
        out.push('"');
    }
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// Types whose `Display` form is already their JSON text.
macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_values!(bool, u16, u32, u64, usize);

/// Floats use the shortest round-trip form; JSON has no NaN or infinity,
/// so non-finite values become `null`.
impl Value for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

/// A float written with a fixed number of decimals (`Fixed(1.5, 2)` is
/// `1.50`); non-finite values become `null`.
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// Write one JSON object into `out`; `build` adds its members.
pub fn object(out: &mut String, build: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    build(&mut Object(Seq { out, empty: true }));
    out.push('}');
}

fn array(out: &mut String, build: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    build(&mut Array(Seq { out, empty: true }));
    out.push(']');
}

/// The open container both [`Object`] and [`Array`] write through.
struct Seq<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Seq<'_> {
    /// The output, after the separator the next element needs.
    fn next(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push_str(", ");
        }
        self.out
    }
}

/// An open JSON object: each member call writes its own separator.
pub struct Object<'a>(Seq<'a>);

impl Object<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        key.write_json(out);
        out.push_str(": ");
        out
    }

    /// Add a `key: value` member.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Add a nested object member, written in place by `build`.
    pub fn object(&mut self, key: &str, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object(self.key(key), build);
        self
    }

    /// Add a nested array member, written in place by `build`.
    pub fn array(&mut self, key: &str, build: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        array(self.key(key), build);
        self
    }
}

/// An open JSON array: each element call writes its own separator.
pub struct Array<'a>(Seq<'a>);

impl Array<'_> {
    /// Append a value element.
    pub fn item(&mut self, value: impl Value) -> &mut Self {
        value.write_json(self.0.next());
        self
    }

    /// Append an object element, written in place by `build`.
    pub fn object(&mut self, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object(self.0.next(), build);
        self
    }
}

/// Check that `s` is one well-formed JSON value (with optional surrounding
/// whitespace). Returns a byte offset and message on the first error.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0;
    skip_ws(b, &mut pos);
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => check_object(b, pos),
        Some(b'[') => check_array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn check_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn check_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // [
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => {
                                    return Err(format!("bad \\u escape at byte {pos}"));
                                }
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => {
                return Err(format!("raw control byte in string at {pos}"));
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("expected digits at byte {pos}"));
    }
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(format!("leading zero at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("expected fraction digits at byte {pos}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("expected exponent digits at byte {pos}"));
        }
    }
    Ok(())
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_values() {
        for ok in [
            "null",
            "true",
            "0",
            "-12.5e3",
            "\"hi \\n \\u0041\"",
            "[]",
            "[1, 2, [3]]",
            "{}",
            "{\"a\": {\"b\": [1, \"x\", null]}, \"c\": false}",
            "  {\"spaced\": 1}  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("rejected {ok:?}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_values() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{a: 1}",
            "01",
            "1.",
            "\"unterminated",
            "\"bad \\x escape\"",
            "true false",
            "{\"a\": 1,}",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let nasty = "quote \" slash \\ newline \n tab \t bell \u{7}";
        let j = format!("\"{}\"", escape(nasty));
        validate(&j).unwrap();
        assert_eq!(
            escape(nasty),
            "quote \\\" slash \\\\ newline \\n tab \\t bell \\u0007"
        );
    }

    #[test]
    fn writer_places_separators_and_escapes_keys() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.object("empty", |_| {}).array("none", |_| {});
            o.field("k\"ey", "v\n")
                .field("n", 3usize)
                .field("inf", Fixed(f64::INFINITY, 1));
            o.array("rows", |a| {
                a.item(1u32).item(2.5).object(|o| {
                    o.field("x", false);
                });
            });
        });
        assert_eq!(
            out,
            "{\"empty\": {}, \"none\": [], \"k\\\"ey\": \"v\\n\", \"n\": 3, \"inf\": null, \
             \"rows\": [1, 2.5, {\"x\": false}]}"
        );
        validate(&out).unwrap();
    }
}
