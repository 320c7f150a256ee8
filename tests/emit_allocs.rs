//! `to_c_source` renders a program into one buffer: at most two allocations
//! per program (the buffer, and one growth if its size estimate was short),
//! whatever the generator or architecture, and a buffer not much larger
//! than the text it holds (the compile service caches it as is). Counted by
//! a global allocator, so the check is deterministic and gates in
//! `cargo test`.

mod bundled;
mod counting;

use counting::allocs_of;
use hcg::core::emit::to_c_source;

#[test]
fn to_c_source_makes_at_most_two_allocations_per_program() {
    for (label, prog) in &bundled::bundled_programs() {
        let (text, allocs) = allocs_of(|| to_c_source(prog));
        assert!(allocs <= 2, "{label}: {allocs} allocations");
        assert!(
            2 * text.capacity() <= 3 * text.len(),
            "{label}: {} bytes reserved for {}",
            text.capacity(),
            text.len()
        );
    }
}
