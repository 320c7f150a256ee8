//! C-identifier naming for model entities.
//!
//! Actor names are free-form text; generated programs need valid, *unique*
//! C identifiers. [`sanitize_identifier`] performs the character mapping and
//! [`unique_identifier`] resolves post-sanitization collisions (`"a b"` and
//! `"a_b"` both sanitize to `a_b`) with a deterministic numeric suffix.

use std::borrow::Cow;
use std::collections::BTreeSet;

/// Make a name a valid C identifier: every character outside
/// `[A-Za-z0-9_]` becomes `_`, and a leading digit gets a `_` prefix. A name
/// that already is one is borrowed, not copied.
pub fn sanitize_identifier(name: &str) -> Cow<'_, str> {
    let valid = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let leading_digit = name.starts_with(|c: char| c.is_ascii_digit());
    if !leading_digit && name.chars().all(valid) {
        return Cow::Borrowed(name);
    }
    let mut out = String::with_capacity(name.len() + 1);
    if leading_digit {
        out.push('_');
    }
    out.extend(name.chars().map(|c| if valid(c) { c } else { '_' }));
    Cow::Owned(out)
}

/// Claim `base` in `used`, appending `_2`, `_3`, … until the name is free.
///
/// The suffix sequence is deterministic, so generated programs are stable
/// across runs. The returned name is recorded in `used`.
pub fn unique_identifier(base: String, used: &mut BTreeSet<String>) -> String {
    if used.insert(base.clone()) {
        return base;
    }
    let mut n = 2usize;
    loop {
        let candidate = format!("{base}_{n}");
        if used.insert(candidate.clone()) {
            return candidate;
        }
        n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_characters() {
        assert_eq!(sanitize_identifier("a b-c"), "a_b_c");
        assert_eq!(sanitize_identifier("3x"), "_3x");
        assert_eq!(sanitize_identifier("ok_name"), "ok_name");
        assert_eq!(sanitize_identifier(""), "");
        assert_eq!(sanitize_identifier("é1"), "_1");
        assert!(matches!(sanitize_identifier("ok_1"), Cow::Borrowed(_)));
    }

    #[test]
    fn unique_appends_numeric_suffix() {
        let mut used = BTreeSet::new();
        assert_eq!(unique_identifier("a_b".into(), &mut used), "a_b");
        assert_eq!(unique_identifier("a_b".into(), &mut used), "a_b_2");
        assert_eq!(unique_identifier("a_b".into(), &mut used), "a_b_3");
        // A literal `a_b_2` actor arriving later also dodges the taken name.
        assert_eq!(unique_identifier("a_b_2".into(), &mut used), "a_b_2_2");
    }
}
