//! The `repro -- verify` report: one static-equivalence proof per
//! gate model × generator × architecture.

use hcg_isa::Arch;
use hcg_obs::json;
use hcg_verify::VerifyOutcome;

/// One verified program.
#[derive(Debug, Clone)]
pub struct VerifyRow {
    /// Model name.
    pub model: String,
    /// Generator short name.
    pub generator: &'static str,
    /// Architecture the program was generated for.
    pub arch: Arch,
    /// The prover's verdict and size counters.
    pub outcome: VerifyOutcome,
    /// Value-range findings on the program.
    pub range_findings: usize,
}

/// The run as the committed `BENCH_verify.json` schema; `range_errors`
/// says whether any value-range finding was error-severity.
pub fn verify_json(rows: &[VerifyRow], range_errors: bool) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.field("experiment", "verify")
            .array("results", |a| {
                for r in rows {
                    a.object(|o| {
                        o.field("model", &r.model)
                            .field("generator", r.generator)
                            .field("arch", r.arch.to_string())
                            .field("equivalent", r.outcome.equivalent)
                            .field("outports", r.outcome.outports)
                            .field("states", r.outcome.states)
                            .field("elems", r.outcome.elems)
                            .field("exprs", r.outcome.exprs)
                            .field("range_findings", r.range_findings);
                    });
                }
            })
            .field("programs", rows.len())
            .field("all_equivalent", rows.iter().all(|r| r.outcome.equivalent))
            .field("range_errors", range_errors);
    });
    out
}
