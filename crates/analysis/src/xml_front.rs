//! Model-file front end.
//!
//! `hcg_model::parser::read_model_file` runs the schema walk that
//! `model_from_xml` runs, but keeps *every* file-level problem (missing
//! attributes, non-dense ids, bad port specs, unknown actor kinds) rather
//! than the first. This pass maps each one to a diagnostic and, when there
//! are none, chains the model that same walk read into the semantic model
//! lints, so a file is read once.

use crate::diagnostics::{LintCode, LintReport, Location};
use crate::model_lints::lint_model;
use hcg_model::parser::{read_model_file, Fault, SchemaViolation};
use hcg_model::Model;

/// Lint a model file from its XML text.
///
/// Returns one report containing file-level diagnostics and, when the file
/// parses, all model-level diagnostics as well.
pub fn lint_model_file(text: &str) -> LintReport {
    lint_model_file_with_model(text).0
}

/// [`lint_model_file`], also returning the model the file holds, if it has
/// no file-level diagnostic.
pub fn lint_model_file_with_model(text: &str) -> (LintReport, Option<Model>) {
    let file = match read_model_file(text) {
        Ok(file) => file,
        Err(e) => {
            let mut r = LintReport::new("<malformed xml>");
            r.push(LintCode::MalformedXml, Location::Global, e.to_string());
            return (r, None);
        }
    };
    let mut r = LintReport::new(file.name.unwrap_or_else(|| "<unnamed>".to_owned()));
    match &file.model {
        Ok(model) => r.extend(lint_model(model)),
        Err(violations) => violations.iter().for_each(|v| push_violation(&mut r, v)),
    }
    (r, file.model.ok())
}

/// One file-level diagnostic, worded to name the attribute or value at
/// fault more fully than the parser's error text.
fn push_violation(r: &mut LintReport, v: &SchemaViolation) {
    let message = match &v.fault {
        Fault::UnexpectedElement(name) => format!("unexpected element <{name}> inside <model>"),
        Fault::MissingAttr("actor", "name") => format!(
            "<actor id={}> is missing its name attribute",
            v.actor.as_ref().map_or(0, |a| a.0)
        ),
        Fault::MissingAttr(element, attr) => format!("<{element}> is missing its {attr} attribute"),
        Fault::IdNotInteger(raw) => format!("<actor> id {raw:?} is not an integer"),
        Fault::UnknownKind(e) => format!("unknown actor kind {:?}", e.kind()),
        Fault::NotActorPort(spec) | Fault::BadActorId(spec) | Fault::BadPortIndex(spec) => {
            format!("port reference {spec:?} must be actor:port")
        }
        Fault::WrongRoot(_) | Fault::IdOutOfOrder(_) => v.to_string(),
    };
    let code = match &v.fault {
        Fault::UnknownKind(_) => LintCode::UnknownActorKind,
        _ => LintCode::MalformedModelFile,
    };
    let location = v.actor.as_ref().map_or(Location::Global, |(_, name)| {
        let name = name.as_deref().unwrap_or("<unnamed>").to_owned();
        Location::Actor { name, port: None }
    });
    r.push(code, location, message);
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
        let text = r#"<model name="t">
                 <actor id="0" name="n" kind="Abs"/>
                 <actor id="1" name="y" kind="Outport"/>
                 <connect from="0:0" to="1:0"/>
               </model>"#;
        let (r, model) = lint_model_file_with_model(text);
        assert!(r.has(LintCode::UnconnectedInput), "got: {}", r.render());
        assert_eq!(model, hcg_model::parser::model_from_xml(text).ok());
    }

    #[test]
    fn wrong_root_element() {
        let (r, model) = lint_model_file_with_model("<simulink/>");
        assert!(r.has(LintCode::MalformedModelFile));
        assert_eq!(model, None);
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
