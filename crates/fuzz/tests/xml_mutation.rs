//! Byte-level mutation of the model front end.
//!
//! Seeded mutants of every example model and committed repro (spans
//! deleted or duplicated, markup spliced in, bytes overwritten) go through
//! `model_from_xml` and the lint front end. Neither may panic, every `Ok`
//! model must survive a `model_to_xml` round trip, and the lint reports a
//! file-level finding exactly when `model_from_xml` fails. Each mutant's
//! results — the parsed model or the error with its byte offset, and the
//! rendered lint report — fold into one FNV-1a digest, so any front-end
//! change that moves a single result fails here. A second digest folds the
//! first error of `validate_structure` and `infer_types` on every mutant
//! that parses, so a change to the model checker that moves one verdict
//! fails here too; and on every such mutant the model lints report an
//! error exactly when the compiler's front end rejects the model.

use hcg_analysis::LintCode::{MalformedModelFile, MalformedXml, UnknownActorKind};
use hcg_analysis::{lint_model, lint_model_file};
use hcg_fuzz::corpus::corpus_dir;
use hcg_fuzz::report::fnv1a;
use hcg_model::parser::{model_from_xml, model_to_xml};
use std::path::{Path, PathBuf};

/// Digest of every mutant and edge case below: the parse result and the
/// lint report. It last moved when the model lints came to read the
/// model checker: 7 mutants repeat a wire (`duplicate-connection` is now
/// an error) and 1 feeds a scalar into a `Dct` (now `scale-mismatch`).
const EXPECTED_DIGEST: u64 = 0x4a9c_8288_8f30_4c72;

/// Digest of `validate_structure` and `infer_types` over every mutant and
/// edge case that parses: the first `ModelError` each returns, variant and
/// text. It last moved when the checker began to reject malformed
/// parameters the compiler ignored: 33 mutants garble a `UnitDelay` `type`
/// and 7 a `Cast` `to`.
const EXPECTED_CHECK_DIGEST: u64 = 0x72dc_f727_6f6a_e6c5;

/// Mutants per source file, for files up to [`BYTES_PER_FILE`] / 3,000
/// bytes; larger files (FFT_1024 is 20 KB) get proportionally fewer, so
/// the test stays within seconds in the debug profile.
const MUTANTS_PER_FILE: usize = 3_000;

/// Upper bound on one file's mutant count × its length.
const BYTES_PER_FILE: usize = 4_000_000;

/// Fragments spliced into mutants: the markup a truncated or hand-edited
/// model file most plausibly gains.
const SPLICES: [&str; 12] = [
    "<",
    ">",
    "/",
    "\"",
    "'",
    "&",
    "&amp;",
    "<!--",
    "-->",
    "</actor>",
    "<param name=\"q\">",
    "=",
];

/// Hand-written inputs the mutants are unlikely to reach.
const EDGE_CASES: [&str; 10] = [
    // Text split by a comment inside <param>: the pieces concatenate.
    r#"<model name="t"><actor id="0" name="x" kind="Inport"><param name="type"> i32<!-- c -->*4 </param></actor></model>"#,
    // A child element inside <param>: its text is not the param's.
    r#"<model name="t"><actor id="0" name="x" kind="Inport"><param name="type">i32<b>junk</b>*4</param></actor></model>"#,
    // A schema error followed by an XML error: the XML error wins.
    r#"<model name="t"><actor id="5" name="x" kind="Inport"/><connect from="0:0" to="1:0"></model>"#,
    // A prolog and DOCTYPE before the root, a comment after it.
    "<?xml version=\"1.0\"?>\n<!DOCTYPE model>\n<!-- c --><model name=\"t\"><actor id=\"0\" name=\"x\" kind=\"Inport\"><param name=\"type\">f32*2</param></actor></model>\n<!-- tail -->\n",
    // Entities in attributes and text, leading whitespace from a reference.
    r#"<model name="a&amp;b"><actor id="0" name="&#x3c;x&gt;" kind="Inport"><param name="type">&#32;i16*8&#10;</param></actor></model>"#,
    // Duplicate attributes (first wins) and duplicate params (last wins).
    r#"<model name="t" name="u"><actor id="0" id="9" name="x" kind="Gain"><param name="k">1</param><param name="k">2</param></actor></model>"#,
    // Children of <connect> and text directly inside <model> are ignored.
    r#"<model name="t">text<actor id="0" name="x" kind="Inport"/><connect from="0:0" to="0:0"><note/></connect></model>"#,
    // Schema errors in every position the strict parser checks.
    r#"<model name="t"><actor id="0" name="x" kind="Inport"><param>1</param></actor></model>"#,
    r#"<root/>"#,
    // A bare root.
    r#"<model/>"#,
];

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Apply one to three random byte-level edits.
fn mutate(rng: &mut XorShift, src: &[u8]) -> Vec<u8> {
    let mut b = src.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(b.len() + 1);
        match rng.below(4) {
            0 => {
                let end = (at + 1 + rng.below(16)).min(b.len());
                b.drain(at..end);
            }
            1 => {
                let s = SPLICES[rng.below(SPLICES.len())];
                b.splice(at..at, s.bytes());
            }
            2 => {
                if at < b.len() {
                    b[at] = rng.next() as u8;
                }
            }
            _ => {
                let end = (at + 1 + rng.below(32)).min(b.len());
                let span = b[at..end].to_vec();
                b.splice(end..end, span);
            }
        }
    }
    b
}

/// Fold one input's front-end results into the two digests (file level,
/// model checks), checking the round trip of every model it yields and
/// that both entry points agree on whether the file is a model.
fn fold(text: &str, (digest, check_digest): (u64, u64)) -> (u64, u64) {
    let parsed = model_from_xml(text);
    if let Ok(m) = &parsed {
        let back = model_from_xml(&model_to_xml(m))
            .unwrap_or_else(|e| panic!("round trip of a parsed mutant failed: {e}\n{text}"));
        assert_eq!(&back, m, "round trip is not the identity:\n{text}");
    }
    let report = lint_model_file(text);
    let file_level = [MalformedXml, MalformedModelFile, UnknownActorKind].map(|c| report.has(c));
    assert_eq!(
        file_level.contains(&true),
        parsed.is_err(),
        "disagree on:\n{text}"
    );
    let check_digest = match &parsed {
        Ok(m) => {
            assert_eq!(
                lint_model(m).has_errors(),
                m.front_end().is_err(),
                "the model lints and the compiler disagree on:\n{text}"
            );
            let structure = format!("{:?}", m.validate_structure());
            let types = format!("{:?}", m.infer_types().map(|_| ()));
            fnv1a(types.as_bytes(), fnv1a(structure.as_bytes(), check_digest))
        }
        Err(_) => check_digest,
    };
    let digest = fnv1a(format!("{parsed:?}").as_bytes(), digest);
    (fnv1a(report.render().as_bytes(), digest), check_digest)
}

fn sources() -> Vec<PathBuf> {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/models");
    let mut files = Vec::new();
    for dir in [examples, corpus_dir()] {
        let mut xml: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "xml"))
            .collect();
        xml.sort();
        files.extend(xml);
    }
    files
}

#[test]
fn mutants_parse_and_lint_as_pinned() {
    let files = sources();
    assert!(files.len() >= 11, "expected the example models and corpus");
    let mut digests = (0, 0);
    for (i, path) in files.iter().enumerate() {
        let src = std::fs::read(path).expect("readable model");
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15 ^ (i as u64 + 1));
        for _ in 0..MUTANTS_PER_FILE.min(BYTES_PER_FILE / src.len().max(1)) {
            let mutant = mutate(&mut rng, &src);
            digests = fold(&String::from_utf8_lossy(&mutant), digests);
        }
    }
    for case in EDGE_CASES {
        digests = fold(case, digests);
    }
    let (digest, check_digest) = digests;
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "front-end results moved: got {digest:#018x}"
    );
    assert_eq!(
        check_digest, EXPECTED_CHECK_DIGEST,
        "model check results moved: got {check_digest:#018x}"
    );
}
