//! Reader/writer for external instruction-set files.
//!
//! Paper §3.3 defines the line format
//! `Graph: Add, i32, 4, I1, I2, O1; Code: O1 = vaddq_s32(I1, I2);` — one
//! line per instruction. This module accepts that exact flat form plus a
//! nested-expression extension for compound instructions, and adds an
//! optional `Cost:` field:
//!
//! ```text
//! # <set-name> for <arch>
//! set neon128 arch neon128
//! Graph: Add, i32, 4, I1, I2, O1 ; Code: O1 = vaddq_s32(I1, I2); ; Cost: 1
//! Graph: Add(I1, Mul(I2, I3)), i32, 4, O1 ; Code: O1 = vmlaq_s32(I1, I2, I3); ; Cost: 2
//! ```

use crate::arch::Arch;
use crate::instr::{InstrSet, SimdInstr};
use crate::pattern::Pattern;
use hcg_model::DataType;
use std::fmt;

/// Error reading an instruction-set file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIsaError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseIsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instruction set file, line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseIsaError {}

fn err(line: usize, message: impl Into<String>) -> ParseIsaError {
    ParseIsaError {
        line,
        message: message.into(),
    }
}

/// Parse an instruction-set file.
///
/// # Errors
///
/// Returns [`ParseIsaError`] with a line number on any malformed directive,
/// graph, or code template.
pub fn instr_set_from_text(text: &str) -> Result<InstrSet, ParseIsaError> {
    let mut set: Option<InstrSet> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("set ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| err(lineno, "set directive needs a name"))?;
            let arch = match (parts.next(), parts.next()) {
                (Some("arch"), Some(a)) => {
                    a.parse::<Arch>().map_err(|e| err(lineno, e.to_string()))?
                }
                _ => return Err(err(lineno, "expected `set <name> arch <arch>`")),
            };
            set = Some(InstrSet::new(name, arch));
            continue;
        }
        let set_ref = set
            .as_mut()
            .ok_or_else(|| err(lineno, "instruction line before `set` directive"))?;
        set_ref.instrs.push(parse_instr_line(lineno, line)?);
    }
    set.ok_or_else(|| err(0, "file contains no `set` directive"))
}

/// Parse one `Graph: …; Code: …; [Cost: …]` line.
pub fn parse_instr_line(lineno: usize, line: &str) -> Result<SimdInstr, ParseIsaError> {
    let mut graph = None;
    let mut code = None;
    let mut cost = 1u32;
    // Fields are separated by " ; " — the code template itself contains
    // semicolons, so split on the field keywords instead.
    for field in split_fields(line) {
        let field = field.trim();
        if let Some(g) = field.strip_prefix("Graph:") {
            graph = Some(g.trim().to_owned());
        } else if let Some(c) = field.strip_prefix("Code:") {
            code = Some(c.trim().to_owned());
        } else if let Some(c) = field.strip_prefix("Cost:") {
            cost = c
                .trim()
                .parse()
                .map_err(|_| err(lineno, "bad Cost value"))?;
        } else if !field.is_empty() {
            return Err(err(lineno, format!("unknown field {field:?}")));
        }
    }
    let graph = graph.ok_or_else(|| err(lineno, "missing Graph field"))?;
    let code = code.ok_or_else(|| err(lineno, "missing Code field"))?;
    // Normalise the template to end in exactly one ';' regardless of how
    // many the field separator trimming consumed.
    let code = format!(
        "{};",
        code.trim_end_matches(|c: char| c == ';' || c.is_whitespace())
    );

    let (pattern, dtype, lanes) = parse_graph_field(lineno, &graph)?;
    let name = code
        .split('(')
        .next()
        .and_then(|head| {
            head.rsplit(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .next()
        })
        .filter(|s| !s.is_empty())
        .ok_or_else(|| err(lineno, "cannot derive instruction name from Code"))?
        .to_owned();
    Ok(SimdInstr {
        name,
        dtype,
        lanes,
        pattern,
        code,
        cost,
    })
}

/// Split a line into `Graph:`/`Code:`/`Cost:` fields at the keyword
/// boundaries (the code template may itself contain `;`).
fn split_fields(line: &str) -> Vec<&str> {
    let mut cuts: Vec<usize> = ["Graph:", "Code:", "Cost:"]
        .iter()
        .flat_map(|kw| line.match_indices(kw).map(|(i, _)| i))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::new();
    for (i, &start) in cuts.iter().enumerate() {
        let end = cuts.get(i + 1).copied().unwrap_or(line.len());
        out.push(
            line[start..end]
                .trim_end_matches([' ', '\t', ';'])
                .trim_start(),
        );
    }
    out
}

/// Parse the `Graph:` payload. Two forms:
///
/// * flat (exactly the paper's): `Add, i32, 4, I1, I2, O1`
/// * nested: `Add(I1, Mul(I2, I3)), i32, 4, O1`
fn parse_graph_field(
    lineno: usize,
    text: &str,
) -> Result<(Pattern, DataType, usize), ParseIsaError> {
    // Split at top-level commas only (commas inside parentheses belong to
    // the expression).
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(text[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(text[start..].trim());
    if parts.len() < 3 {
        return Err(err(lineno, "Graph needs at least op, dtype, lanes"));
    }
    let dtype: DataType = parts[1].parse().map_err(|e| err(lineno, format!("{e}")))?;
    let lanes: usize = parts[2]
        .parse()
        .map_err(|_| err(lineno, "bad lane count"))?;

    let expr = parts[0];
    let pattern: Pattern = if expr.contains('(') {
        // Nested form: remaining parts must be just O1.
        expr.parse().map_err(|e| err(lineno, format!("{e}")))?
    } else {
        // Flat form: op name alone; I/O part is informative (paper style),
        // validated against arity below.
        let io: Vec<&str> = parts[3..].to_vec();
        let p: Pattern = expr.parse().map_err(|e| err(lineno, format!("{e}")))?;
        let declared_inputs = io.iter().filter(|s| s.starts_with('I')).count();
        if declared_inputs != 0 && declared_inputs != p.op.arity() {
            return Err(err(
                lineno,
                format!(
                    "{} declares {} inputs but {} takes {}",
                    expr,
                    declared_inputs,
                    p.op,
                    p.op.arity()
                ),
            ));
        }
        p
    };
    Ok((pattern, dtype, lanes))
}

/// Load an instruction-set file from disk.
///
/// # Errors
///
/// Returns [`ParseIsaError`] for unreadable files (reported at line 0) or
/// malformed content.
///
/// # Examples
///
/// ```no_run
/// use hcg_isa::parse::instr_set_from_file;
/// let set = instr_set_from_file("targets/mydsp.isa")?;
/// # Ok::<(), hcg_isa::ParseIsaError>(())
/// ```
pub fn instr_set_from_file(path: impl AsRef<std::path::Path>) -> Result<InstrSet, ParseIsaError> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| err(0, format!("cannot read {}: {e}", path.as_ref().display())))?;
    instr_set_from_text(&text)
}

/// Write an instruction set to disk in the file format.
///
/// # Errors
///
/// Returns [`ParseIsaError`] (line 0) on I/O failure.
pub fn instr_set_to_file(
    set: &InstrSet,
    path: impl AsRef<std::path::Path>,
) -> Result<(), ParseIsaError> {
    std::fs::write(path.as_ref(), instr_set_to_text(set))
        .map_err(|e| err(0, format!("cannot write {}: {e}", path.as_ref().display())))
}

/// Serialise a set back to the file format (round-trips through
/// [`instr_set_from_text`]).
pub fn instr_set_to_text(set: &InstrSet) -> String {
    let mut out = format!(
        "# {} instruction set\nset {} arch {}\n",
        set.name, set.name, set.arch
    );
    for i in &set.instrs {
        out.push_str(&format!(
            "Graph: {}, {}, {}, O1 ; Code: {} ; Cost: {}\n",
            i.pattern, i.dtype, i.lanes, i.code, i.cost
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcg_model::op::ElemOp;

    #[test]
    fn paper_flat_form() {
        let i = parse_instr_line(
            1,
            "Graph: Add, i32, 4, I1, I2, O1 ; Code: O1 = vaddq_s32(I1, I2);",
        )
        .unwrap();
        assert_eq!(i.name, "vaddq_s32");
        assert_eq!(i.dtype, DataType::I32);
        assert_eq!(i.lanes, 4);
        assert_eq!(i.pattern, Pattern::single(ElemOp::Add));
        assert_eq!(i.cost, 1);
    }

    #[test]
    fn nested_form_with_cost() {
        let i = parse_instr_line(
            1,
            "Graph: Add(I1, Mul(I2, I3)), i32, 4, O1 ; Code: O1 = vmlaq_s32(I1, I2, I3); ; Cost: 2",
        )
        .unwrap();
        assert_eq!(i.name, "vmlaq_s32");
        assert_eq!(i.pattern.node_count(), 2);
        assert_eq!(i.cost, 2);
    }

    #[test]
    fn vhadd_line() {
        let i = parse_instr_line(
            1,
            "Graph: Shr[1](Add(I1, I2)), i32, 4, O1 ; Code: O1 = vhaddq_s32(I1, I2);",
        )
        .unwrap();
        assert_eq!(i.name, "vhaddq_s32");
        assert_eq!(i.pattern.op, ElemOp::Shr(1));
    }

    #[test]
    fn arity_mismatch_in_flat_form() {
        assert!(parse_instr_line(1, "Graph: Add, i32, 4, I1, O1 ; Code: O1 = f(I1);").is_err());
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(parse_instr_line(1, "Code: O1 = f(I1);").is_err());
        assert!(parse_instr_line(1, "Graph: Add, i32, 4, I1, I2, O1").is_err());
    }

    #[test]
    fn whole_file_parses() {
        let text = "\
# test set
set mini arch neon128

Graph: Add, i32, 4, I1, I2, O1 ; Code: O1 = vaddq_s32(I1, I2);
Graph: Sub, i32, 4, I1, I2, O1 ; Code: O1 = vsubq_s32(I1, I2);
Graph: Add(I1, Mul(I2, I3)), i32, 4, O1 ; Code: O1 = vmlaq_s32(I1, I2, I3); ; Cost: 2
";
        let set = instr_set_from_text(text).unwrap();
        assert_eq!(set.name, "mini");
        assert_eq!(set.arch, Arch::Neon128);
        assert_eq!(set.len(), 3);
        assert!(set.find("vmlaq_s32").is_some());
    }

    #[test]
    fn file_without_set_directive_rejected() {
        let e = instr_set_from_text("Graph: Add, i32, 4, I1, I2, O1 ; Code: O1 = f(I1, I2);")
            .unwrap_err();
        assert!(e.message.contains("set"));
    }

    #[test]
    fn bad_arch_rejected() {
        assert!(instr_set_from_text("set x arch sparc\n").is_err());
    }

    #[test]
    fn roundtrip_text() {
        let text = "\
set mini arch avx256
Graph: Add, f32, 8, I1, I2, O1 ; Code: O1 = _mm256_add_ps(I1, I2);
Graph: Add(I1, Mul(I2, I3)), f32, 8, O1 ; Code: O1 = _mm256_fmadd_ps(I2, I3, I1); ; Cost: 2
";
        let set = instr_set_from_text(text).unwrap();
        let back = instr_set_from_text(&instr_set_to_text(&set)).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn line_numbers_in_errors() {
        let text = "set m arch neon128\n\nGraph: Zap, i32, 4, I1, O1 ; Code: O1 = z(I1);\n";
        let e = instr_set_from_text(text).unwrap_err();
        assert_eq!(e.line, 3);
    }
}
