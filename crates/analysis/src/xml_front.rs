//! Lenient model-file front end.
//!
//! `hcg_model::parser::model_from_xml` is strict and fails on the first
//! schema violation. This pass re-walks the raw XML, collecting *every*
//! file-level problem (missing attributes, non-dense ids, bad port specs,
//! unknown actor kinds) as diagnostics, and only then — if the file is
//! clean enough to parse — chains into the semantic model lints.

use crate::diagnostics::{LintCode, LintReport, Location};
use crate::model_lints::lint_model;
use hcg_model::parser::model_from_xml;
use hcg_model::xml::{self, XmlElement};
use hcg_model::ActorKind;

/// Lint a model file from its XML text.
///
/// Returns one report containing file-level diagnostics and, when the file
/// parses, all model-level diagnostics as well.
pub fn lint_model_file(text: &str) -> LintReport {
    let root = match xml::parse(text) {
        Ok(root) => root,
        Err(e) => {
            let mut r = LintReport::new("<malformed xml>");
            r.push(LintCode::MalformedXml, Location::Global, e.to_string());
            return r;
        }
    };
    let subject = root.attr("name").unwrap_or("<unnamed>").to_owned();
    let mut r = LintReport::new(subject);
    lint_file_structure(&root, &mut r);
    if r.has_errors() {
        return r;
    }
    match model_from_xml(text) {
        Ok(model) => {
            let semantic = lint_model(&model);
            r.extend(semantic);
        }
        Err(e) => {
            // The lenient walk missed something the strict parser rejects —
            // still surface it rather than silently returning a clean report.
            r.push(
                LintCode::MalformedModelFile,
                Location::Global,
                e.to_string(),
            );
        }
    }
    r
}

fn lint_file_structure(root: &XmlElement, r: &mut LintReport) {
    if root.name != "model" {
        r.push(
            LintCode::MalformedModelFile,
            Location::Global,
            format!("root element must be <model>, got <{}>", root.name),
        );
        return;
    }
    let mut expected_id = 0usize;
    for child in &root.children {
        match child.name.as_str() {
            "actor" => {
                lint_actor_element(child, expected_id, r);
                expected_id += 1;
            }
            "connect" => lint_connect_element(child, r),
            other => r.push(
                LintCode::MalformedModelFile,
                Location::Global,
                format!("unexpected element <{other}> inside <model>"),
            ),
        }
    }
}

fn lint_actor_element(el: &XmlElement, expected_id: usize, r: &mut LintReport) {
    let name = el.attr("name").unwrap_or("<unnamed>");
    let at = |port| Location::Actor {
        name: name.to_owned(),
        port,
    };
    match el.attr("id") {
        None => r.push(
            LintCode::MalformedModelFile,
            at(None),
            "<actor> is missing its id attribute".to_owned(),
        ),
        Some(raw) => match raw.parse::<usize>() {
            Err(_) => r.push(
                LintCode::MalformedModelFile,
                at(None),
                format!("<actor> id {raw:?} is not an integer"),
            ),
            Ok(id) if id != expected_id => r.push(
                LintCode::MalformedModelFile,
                at(None),
                format!("actor ids must be dense and in order: expected {expected_id}, got {id}"),
            ),
            Ok(_) => {}
        },
    }
    if el.attr("name").is_none() {
        r.push(
            LintCode::MalformedModelFile,
            at(None),
            format!("<actor id={expected_id}> is missing its name attribute"),
        );
    }
    match el.attr("kind") {
        None => r.push(
            LintCode::MalformedModelFile,
            at(None),
            "<actor> is missing its kind attribute".to_owned(),
        ),
        Some(kind) => {
            if kind.parse::<ActorKind>().is_err() {
                r.push(
                    LintCode::UnknownActorKind,
                    at(None),
                    format!("unknown actor kind {kind:?}"),
                );
            }
        }
    }
    for p in el.children_named("param") {
        if p.attr("name").is_none() {
            r.push(
                LintCode::MalformedModelFile,
                at(None),
                "<param> is missing its name attribute".to_owned(),
            );
        }
    }
}

fn lint_connect_element(el: &XmlElement, r: &mut LintReport) {
    for attr in ["from", "to"] {
        match el.attr(attr) {
            None => r.push(
                LintCode::MalformedModelFile,
                Location::Global,
                format!("<connect> is missing its {attr} attribute"),
            ),
            Some(spec) => {
                let ok = spec
                    .split_once(':')
                    .is_some_and(|(a, p)| a.parse::<usize>().is_ok() && p.parse::<usize>().is_ok());
                if !ok {
                    r.push(
                        LintCode::MalformedModelFile,
                        Location::Global,
                        format!("port reference {spec:?} must be actor:port"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_file_is_clean() {
        let r = lint_model_file(
            r#"<model name="t">
                 <actor id="0" name="x" kind="Inport"><param name="type">i32*8</param></actor>
                 <actor id="1" name="n" kind="Abs"/>
                 <actor id="2" name="y" kind="Outport"/>
                 <connect from="0:0" to="1:0"/>
                 <connect from="1:0" to="2:0"/>
               </model>"#,
        );
        assert!(r.diagnostics.is_empty(), "unexpected: {}", r.render());
    }

    #[test]
    fn malformed_xml_reported() {
        let r = lint_model_file("<model name=");
        assert!(r.has(LintCode::MalformedXml), "got: {}", r.render());
    }

    #[test]
    fn unknown_kind_and_bad_ids_collected_together() {
        // The strict parser would stop at the first of these; the lint front
        // end must surface all three.
        let r = lint_model_file(
            r#"<model name="t">
                 <actor id="0" name="x" kind="Warp"/>
                 <actor id="7" name="y" kind="Outport"/>
                 <connect from="0" to="1:0"/>
               </model>"#,
        );
        assert!(r.has(LintCode::UnknownActorKind), "got: {}", r.render());
        assert!(r.has(LintCode::MalformedModelFile), "got: {}", r.render());
        assert!(r.error_count() >= 3, "got: {}", r.render());
    }

    #[test]
    fn semantic_lints_chain_after_clean_parse() {
        // File parses fine, but the Abs actor's input is never driven.
        let r = lint_model_file(
            r#"<model name="t">
                 <actor id="0" name="n" kind="Abs"/>
                 <actor id="1" name="y" kind="Outport"/>
                 <connect from="0:0" to="1:0"/>
               </model>"#,
        );
        assert!(r.has(LintCode::UnconnectedInput), "got: {}", r.render());
    }

    #[test]
    fn wrong_root_element() {
        let r = lint_model_file("<simulink/>");
        assert!(r.has(LintCode::MalformedModelFile));
    }

    #[test]
    fn deep_nesting_is_one_malformed_xml_finding() {
        let levels = 100_000;
        let text = format!(
            "<model>{}{}</model>",
            "<a>".repeat(levels),
            "</a>".repeat(levels)
        );
        let r = lint_model_file(&text);
        assert_eq!(r.diagnostics.len(), 1, "got: {}", r.render());
        assert!(r.has(LintCode::MalformedXml), "got: {}", r.render());
    }
}
