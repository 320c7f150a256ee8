//! Nesting far past the reader's depth limit is an error, never a stack
//! overflow. Each parse runs on a thread with a 2 MiB stack, the size the
//! compile daemon's worker threads get. This binary holds nothing else, so
//! a reader that recursed per level would abort only this test.

use hcg_model::parser::model_from_xml;

/// Levels of `<a>` inside the `<model>` root (~700 KB of markup).
const LEVELS: usize = 100_000;

fn nested(levels: usize) -> String {
    format!(
        "<model>{}{}</model>",
        "<a>".repeat(levels),
        "</a>".repeat(levels)
    )
}

fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("parse does not panic")
}

#[test]
fn model_from_xml_rejects_deep_nesting() {
    let err = on_small_stack(|| model_from_xml(&nested(LEVELS)).map(|_| ()));
    let err = err.expect_err("100,000 levels must be rejected");
    assert!(err.to_string().contains("depth limit"), "got: {err}");
}
