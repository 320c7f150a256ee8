//! Golden digest of the emitted C text.
//!
//! FNV-1a over `to_c_source` of every bundled program (see
//! `bundled/mod.rs`), including sse128, which no benchmark workload emits:
//! this is the oracle for every load/store spelling of every target. A
//! change to the emitter's output moves the digest; a refactor of the
//! emitter must not.

mod bundled;

use hcg::core::emit::to_c_source;
use hcg::fuzz::report::fnv1a;

/// The digest of the C text of every bundled program.
const GOLDEN: u64 = 0x9965_b886_9483_2acb;

#[test]
fn c_text_of_every_bundled_program_matches_the_golden_digest() {
    let programs = bundled::bundled_programs();
    let digest = programs.iter().fold(0, |h, (label, prog)| {
        fnv1a(to_c_source(prog).as_bytes(), fnv1a(label.as_bytes(), h))
    });
    assert_eq!(
        digest,
        GOLDEN,
        "C text digest of {} programs moved",
        programs.len()
    );
}
