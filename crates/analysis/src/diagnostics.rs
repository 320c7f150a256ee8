//! The diagnostic vocabulary shared by all lint passes: codes, severities,
//! locations, and the [`LintReport`] container with stable rendering.

use hcg_vm::DefectKind;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The artifact is wrong and must not be used (malformed structure,
    /// type violations, undefined behaviour).
    Error,
    /// The artifact works but carries a smell worth surfacing (dead code,
    /// outputs nothing reads).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// Every lint the analyzer can raise.
///
/// `model/*` codes come from the model front end ([`crate::lint_model`],
/// [`crate::lint_model_file`]); `program/*` codes from the generated-program
/// front end ([`crate::lint_program`]). Each code has a fixed severity
/// ([`LintCode::severity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    // ---- model front end ----
    /// The model file is not well-formed XML.
    MalformedXml,
    /// The XML is well-formed but violates the model schema (missing
    /// attributes, non-dense actor ids, bad port specs).
    MalformedModelFile,
    /// An actor names a kind the actor inventory does not know.
    UnknownActorKind,
    /// The model contains no actors.
    EmptyModel,
    /// Two actors share a name.
    DuplicateActorName,
    /// Distinct actor names that map to the same C identifier after
    /// sanitization (e.g. `a b` and `a_b`); code generation deduplicates
    /// the buffer names with a numeric suffix.
    SanitizedNameCollision,
    /// A connection references an actor id not present in the model.
    UnknownActorId,
    /// A connection references a port index outside the kind's port count.
    PortOutOfRange,
    /// Two different output ports drive the same input port.
    DuplicateInputDriver,
    /// The exact same wire appears twice.
    DuplicateConnection,
    /// An input port has no incoming connection.
    UnconnectedInput,
    /// An output port drives nothing.
    DanglingOutput,
    /// A required parameter is absent.
    MissingParam,
    /// A parameter is present but malformed or out of range.
    BadParam,
    /// Connected signals disagree on element data type.
    DtypeMismatch,
    /// Connected signals disagree on shape/input scale (beyond scalar
    /// broadcast).
    ScaleMismatch,
    /// Type inference cannot resolve an actor's output (an untyped
    /// feedback loop without a `UnitDelay` `type` parameter).
    UnresolvedType,
    /// A combinational cycle not broken by a `UnitDelay`.
    AlgebraicLoop,
    /// An actor with no path to any `Outport`.
    UnreachableActor,
    /// The model has no `Outport` at all.
    NoOutput,

    // ---- program front end: structural (rehosted from hcg-vm) ----
    /// A structural defect found by [`hcg_vm::validate_all`]; it renders
    /// as its kind's own code ([`DefectKind::name`]).
    Defect(DefectKind),

    // ---- program front end: dataflow ----
    /// A `Temp`/`Output` buffer is read before anything writes it.
    ReadBeforeWrite,
    /// A vector register is used before any load/op defines it.
    UninitializedRegister,
    /// A buffer write that nothing can ever observe.
    DeadStore,
    /// A `Temp` buffer that is written (or declared) but never read.
    NeverReadBuffer,
    /// A kernel call whose output buffer is also one of its inputs.
    KernelAliasing,
    /// A register wider than the target architecture's vector registers.
    LaneWidthExceedsArch,
    /// A write to a `Const` buffer.
    WriteToConst,

    // ---- program front end: value-range (raised by hcg-verify) ----
    /// Integer arithmetic whose result interval can escape its dtype and
    /// wrap.
    PossibleOverflow,
    /// An integer division whose divisor interval contains zero (defined as
    /// zero in the VM, undefined behaviour in lowered C).
    PossibleDivByZero,
    /// A vector op pattern reading a lane index beyond a source register's
    /// lane count.
    LaneOutOfRange,
}

impl LintCode {
    /// The stable kebab-case name used in rendered reports.
    pub const fn name(self) -> &'static str {
        use LintCode::*;
        match self {
            MalformedXml => "model/malformed-xml",
            MalformedModelFile => "model/malformed-model-file",
            UnknownActorKind => "model/unknown-actor-kind",
            EmptyModel => "model/empty-model",
            DuplicateActorName => "model/duplicate-actor-name",
            SanitizedNameCollision => "model/sanitized-name-collision",
            UnknownActorId => "model/unknown-actor-id",
            PortOutOfRange => "model/port-out-of-range",
            DuplicateInputDriver => "model/duplicate-input-driver",
            DuplicateConnection => "model/duplicate-connection",
            UnconnectedInput => "model/unconnected-input",
            DanglingOutput => "model/dangling-output",
            MissingParam => "model/missing-param",
            BadParam => "model/bad-param",
            DtypeMismatch => "model/dtype-mismatch",
            ScaleMismatch => "model/scale-mismatch",
            UnresolvedType => "model/unresolved-type",
            AlgebraicLoop => "model/algebraic-loop",
            UnreachableActor => "model/unreachable-actor",
            NoOutput => "model/no-output",
            Defect(kind) => kind.name(),
            ReadBeforeWrite => "program/read-before-write",
            UninitializedRegister => "program/uninitialized-register",
            DeadStore => "program/dead-store",
            NeverReadBuffer => "program/never-read-buffer",
            KernelAliasing => "program/kernel-aliasing",
            LaneWidthExceedsArch => "program/lane-width-exceeds-arch",
            WriteToConst => "program/write-to-const",
            PossibleOverflow => "program/possible-overflow",
            PossibleDivByZero => "program/possible-div-by-zero",
            LaneOutOfRange => "program/lane-out-of-range",
        }
    }

    /// The fixed severity of this code.
    pub const fn severity(self) -> Severity {
        use LintCode::*;
        match self {
            DanglingOutput
            | UnreachableActor
            | NoOutput
            | DeadStore
            | NeverReadBuffer
            | SanitizedNameCollision
            | PossibleOverflow
            | PossibleDivByZero => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the artifact a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// The whole model/program (or an unlocatable file error).
    Global,
    /// A model actor, optionally one of its ports.
    Actor {
        /// Actor name.
        name: String,
        /// Port index, when the diagnostic is port-specific.
        port: Option<usize>,
    },
    /// A wire between two ports, rendered as `from -> to`.
    Connection {
        /// Source `actor:port`.
        from: String,
        /// Destination `actor:port`.
        to: String,
    },
    /// A statement in a generated program body, as the index path from the
    /// top level (loop bodies add one level).
    Stmt {
        /// Statement index path.
        path: Vec<usize>,
    },
    /// A buffer declaration in a generated program.
    Buffer {
        /// Buffer name.
        name: String,
    },
    /// A register declaration in a generated program.
    Register {
        /// Register index.
        index: usize,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Global => f.write_str("-"),
            Location::Actor { name, port: None } => write!(f, "actor {name}"),
            Location::Actor {
                name,
                port: Some(p),
            } => write!(f, "actor {name}:{p}"),
            Location::Connection { from, to } => write!(f, "connect {from} -> {to}"),
            Location::Stmt { path } => {
                f.write_str("stmt ")?;
                for (i, p) in path.iter().enumerate() {
                    if i > 0 {
                        f.write_str(".")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Location::Buffer { name } => write!(f, "buffer {name}"),
            Location::Register { index } => write!(f, "register r{index}"),
        }
    }
}

/// One finding of one lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Its severity (always `code.severity()`).
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic; severity comes from the code.
    pub fn new(code: LintCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// All diagnostics one analyzer run produced for one subject.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// Name of the model/program analyzed.
    pub subject: String,
    /// Findings in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report for a subject.
    pub fn new(subject: impl Into<String>) -> Self {
        LintReport {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Record one finding.
    pub fn push(&mut self, code: LintCode, location: Location, message: impl Into<String>) {
        self.diagnostics
            .push(Diagnostic::new(code, location, message));
    }

    /// Append another report's findings (used when chaining file-level and
    /// model-level passes).
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Diagnostics of a given severity.
    pub fn of_severity(&self, severity: Severity) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .collect()
    }

    /// Count of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.of_severity(Severity::Error).len()
    }

    /// `true` when any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// The distinct codes present, sorted.
    pub fn codes(&self) -> Vec<LintCode> {
        let mut codes: Vec<LintCode> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    /// `true` when a diagnostic with this code is present.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Render as stable text for golden tests: a header line, then one line
    /// per diagnostic sorted by (severity, code, location, message), then a
    /// summary line.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = self.diagnostics.iter().map(|d| d.to_string()).collect();
        lines.sort();
        let mut out = format!("== lint report for {} ==\n", self.subject);
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
        let warnings = self.of_severity(Severity::Warning).len();
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            warnings
        ));
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Shared CLI formatter for a batch of reports: every front end that prints
/// diagnostics (the `lint` tool, `repro -- lint`, the static verifier's
/// range lints) renders through this one function so reports look identical
/// everywhere, and all of them gate their exit status on the returned
/// error flag.
///
/// Returns the rendered text and `true` when any report contains an
/// error-severity finding.
pub fn format_reports<'a, I>(reports: I) -> (String, bool)
where
    I: IntoIterator<Item = &'a LintReport>,
{
    let mut out = String::new();
    let mut has_errors = false;
    for r in reports {
        out.push_str(&r.render());
        out.push('\n');
        has_errors |= r.has_errors();
    }
    (out, has_errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_comes_from_code() {
        let d = Diagnostic::new(LintCode::DeadStore, Location::Global, "x");
        assert_eq!(d.severity, Severity::Warning);
        let d = Diagnostic::new(LintCode::AlgebraicLoop, Location::Global, "x");
        assert_eq!(d.severity, Severity::Error);
        let d = Diagnostic::new(
            LintCode::Defect(DefectKind::CopyLengthMismatch),
            Location::Global,
            "x",
        );
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.code.to_string(), "program/copy-length-mismatch");
    }

    #[test]
    fn report_counting_and_codes() {
        let mut r = LintReport::new("m");
        r.push(LintCode::DeadStore, Location::Global, "a");
        r.push(LintCode::AlgebraicLoop, Location::Global, "b");
        r.push(LintCode::AlgebraicLoop, Location::Global, "c");
        assert_eq!(r.error_count(), 2);
        assert!(r.has_errors());
        assert!(r.has(LintCode::DeadStore));
        assert!(!r.has(LintCode::NoOutput));
        assert_eq!(
            r.codes(),
            vec![LintCode::AlgebraicLoop, LintCode::DeadStore]
        );
    }

    #[test]
    fn render_is_stable_under_insertion_order() {
        let mut a = LintReport::new("m");
        a.push(LintCode::DeadStore, Location::Global, "later");
        a.push(LintCode::AlgebraicLoop, Location::Global, "first");
        let mut b = LintReport::new("m");
        b.push(LintCode::AlgebraicLoop, Location::Global, "first");
        b.push(LintCode::DeadStore, Location::Global, "later");
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn location_rendering() {
        assert_eq!(
            Location::Actor {
                name: "sum".into(),
                port: Some(1)
            }
            .to_string(),
            "actor sum:1"
        );
        assert_eq!(Location::Stmt { path: vec![2, 0] }.to_string(), "stmt 2.0");
        assert_eq!(Location::Register { index: 3 }.to_string(), "register r3");
    }

    #[test]
    fn every_code_has_unique_name_and_sorts_in_listed_order() {
        use LintCode::*;
        let all = [
            MalformedXml,
            MalformedModelFile,
            UnknownActorKind,
            EmptyModel,
            DuplicateActorName,
            SanitizedNameCollision,
            UnknownActorId,
            PortOutOfRange,
            DuplicateInputDriver,
            DuplicateConnection,
            UnconnectedInput,
            DanglingOutput,
            MissingParam,
            BadParam,
            DtypeMismatch,
            ScaleMismatch,
            UnresolvedType,
            AlgebraicLoop,
            UnreachableActor,
            NoOutput,
            Defect(DefectKind::BufferOutOfRange),
            Defect(DefectKind::RegisterOutOfRange),
            Defect(DefectKind::ElementOutOfBounds),
            Defect(DefectKind::VectorOutOfBounds),
            Defect(DefectKind::ScalarArity),
            Defect(DefectKind::DtypeUnsupported),
            Defect(DefectKind::VOpOperandCount),
            Defect(DefectKind::VOpShapeMismatch),
            Defect(DefectKind::VRegDtypeMismatch),
            Defect(DefectKind::UnknownKernel),
            Defect(DefectKind::NestedLoop),
            Defect(DefectKind::ZeroStepLoop),
            Defect(DefectKind::CopyLengthMismatch),
            Defect(DefectKind::CopyDtypeMismatch),
            ReadBeforeWrite,
            UninitializedRegister,
            DeadStore,
            NeverReadBuffer,
            KernelAliasing,
            LaneWidthExceedsArch,
            WriteToConst,
            PossibleOverflow,
            PossibleDivByZero,
            LaneOutOfRange,
        ];
        let mut sorted = all.to_vec();
        sorted.sort();
        assert_eq!(sorted, all, "`codes()` lists codes in declaration order");
        let mut names: Vec<&str> = all.iter().map(|c| c.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate lint code names");
    }
}
