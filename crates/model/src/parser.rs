//! The textual model file format (step ① of paper §2: "model parse
//! transforms model file into structured actor information").
//!
//! The format is an XML dialect mirroring the information HCG reads from a
//! Simulink model:
//!
//! ```xml
//! <model name="fir">
//!   <actor id="0" name="x" kind="Inport">
//!     <param name="type">i32*1024</param>
//!   </actor>
//!   <actor id="1" name="y" kind="Outport"/>
//!   <connect from="0:0" to="1:0"/>
//! </model>
//! ```

use crate::actor::{Actor, ActorId, ActorKind};
use crate::model::{Connection, Model, PortRef};
use crate::types::Param;
use crate::xml::{Event, Reader, XmlElement, XmlError};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Error produced while reading a model file.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseModelError {
    /// The underlying XML was malformed.
    Xml(XmlError),
    /// The XML was well-formed but violated the model schema.
    Schema(String),
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseModelError::Xml(e) => write!(f, "{e}"),
            ParseModelError::Schema(m) => write!(f, "model schema error: {m}"),
        }
    }
}

impl std::error::Error for ParseModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseModelError::Xml(e) => Some(e),
            ParseModelError::Schema(_) => None,
        }
    }
}

impl From<XmlError> for ParseModelError {
    fn from(e: XmlError) -> Self {
        ParseModelError::Xml(e)
    }
}

fn schema_err(msg: impl Into<String>) -> ParseModelError {
    ParseModelError::Schema(msg.into())
}

/// Parse a model file.
///
/// # Errors
///
/// Returns [`ParseModelError`] for malformed XML or schema violations.
/// Malformed XML anywhere in the file outranks a schema violation (see
/// [`crate::xml`]). Structural/type validation is *not* performed here;
/// call [`Model::infer_types`] afterwards (as [`crate::ModelBuilder::build`]
/// does) to reject semantically invalid models.
pub fn model_from_xml(text: &str) -> Result<Model, ParseModelError> {
    let mut reader = Reader::new(text);
    let mut model = ModelReader::default();
    let mut schema = None;
    while let Some(event) = reader.next_event()? {
        if schema.is_none() {
            schema = model.event(&reader, event).err();
        }
    }
    match schema {
        Some(e) => Err(e),
        None => Ok(Model {
            name: model.name,
            actors: model.actors,
            connections: model.connections,
        }),
    }
}

/// The model being read, one [`Event`] at a time. The schema is
/// `<model>` (level 1) holding `<actor>` and `<connect>` (level 2), with
/// `<param>` (level 3) inside an actor; anything deeper is ignored.
#[derive(Default)]
struct ModelReader<'a> {
    name: String,
    actors: Vec<Actor>,
    connections: Vec<Connection>,
    /// The open `<actor>`; its params fill in as they close.
    actor: Option<Actor>,
    /// The open `<param>` of that actor: its name and its text so far.
    param: Option<(String, Cow<'a, str>)>,
}

impl<'a> ModelReader<'a> {
    fn event(&mut self, r: &Reader<'a>, event: Event<'a>) -> Result<(), ParseModelError> {
        match (event, r.depth()) {
            (Event::Start(root), 1) => {
                if root != "model" {
                    return Err(schema_err(format!(
                        "root element must be <model>, got <{root}>"
                    )));
                }
                self.name = r.attr("name").unwrap_or("unnamed").to_owned();
            }
            (Event::Start("actor"), 2) => self.actor = Some(read_actor(r, self.actors.len())?),
            (Event::Start("connect"), 2) => self.connections.push(read_connect(r)?),
            (Event::Start(other), 2) => {
                return Err(schema_err(format!("unexpected element <{other}>")))
            }
            (Event::Start("param"), 3) if self.actor.is_some() => {
                let name = r
                    .attr("name")
                    .ok_or_else(|| schema_err("<param> missing name"))?;
                self.param = Some((name.to_owned(), Cow::Borrowed("")));
            }
            (Event::Text(more), 3) => {
                if let Some((_, text)) = &mut self.param {
                    if text.is_empty() {
                        *text = more;
                    } else {
                        text.to_mut().push_str(&more);
                    }
                }
            }
            (Event::End(_), 2) => {
                if let (Some(actor), Some((name, text))) = (&mut self.actor, self.param.take()) {
                    actor.params.insert(name, Param::parse(text.trim()));
                }
            }
            (Event::End(_), 1) => self.actors.extend(self.actor.take()),
            _ => {}
        }
        Ok(())
    }
}

fn read_actor(r: &Reader<'_>, expected_id: usize) -> Result<Actor, ParseModelError> {
    let id: usize = r
        .attr("id")
        .ok_or_else(|| schema_err("<actor> missing id"))?
        .parse()
        .map_err(|_| schema_err("<actor> id must be an integer"))?;
    if id != expected_id {
        return Err(schema_err(format!(
            "actor ids must be dense and in order: expected {expected_id}, got {id}"
        )));
    }
    let name = r
        .attr("name")
        .ok_or_else(|| schema_err("<actor> missing name"))?
        .to_owned();
    let kind: ActorKind = r
        .attr("kind")
        .ok_or_else(|| schema_err("<actor> missing kind"))?
        .parse()
        .map_err(|e| schema_err(format!("{e}")))?;
    Ok(Actor {
        id: ActorId(id),
        name,
        kind,
        params: BTreeMap::new(),
    })
}

fn parse_port(spec: &str) -> Result<PortRef, ParseModelError> {
    let (a, p) = spec
        .split_once(':')
        .ok_or_else(|| schema_err(format!("port reference {spec:?} must be actor:port")))?;
    let actor: usize = a
        .parse()
        .map_err(|_| schema_err(format!("bad actor id in {spec:?}")))?;
    let port: usize = p
        .parse()
        .map_err(|_| schema_err(format!("bad port index in {spec:?}")))?;
    Ok(PortRef::new(ActorId(actor), port))
}

fn read_connect(r: &Reader<'_>) -> Result<Connection, ParseModelError> {
    let from = parse_port(
        r.attr("from")
            .ok_or_else(|| schema_err("<connect> missing from"))?,
    )?;
    let to = parse_port(
        r.attr("to")
            .ok_or_else(|| schema_err("<connect> missing to"))?,
    )?;
    Ok(Connection { from, to })
}

/// Serialise a model to its file format. The output parses back to an equal
/// model via [`model_from_xml`].
pub fn model_to_xml(model: &Model) -> String {
    let mut root = XmlElement::new("model").with_attr("name", model.name.clone());
    for a in &model.actors {
        let mut el = XmlElement::new("actor")
            .with_attr("id", a.id.0.to_string())
            .with_attr("name", a.name.clone())
            .with_attr("kind", a.kind.name());
        for (k, v) in &a.params {
            let mut p = XmlElement::new("param").with_attr("name", k.clone());
            p.text = v.to_string();
            el.children.push(p);
        }
        root.children.push(el);
    }
    for c in &model.connections {
        root.children.push(
            XmlElement::new("connect")
                .with_attr("from", format!("{}:{}", c.from.actor.0, c.from.port))
                .with_attr("to", format!("{}:{}", c.to.actor.0, c.to.port)),
        );
    }
    root.to_xml()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::types::{DataType, SignalType};

    fn sample() -> Model {
        let mut b = ModelBuilder::new("sample");
        let x = b.inport("x", SignalType::vector(DataType::I32, 8));
        let s = b.shift("half", ActorKind::Shr, 1);
        let o = b.outport("y");
        b.connect(x, 0, s, 0);
        b.connect(s, 0, o, 0);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_model() {
        let m = sample();
        let text = model_to_xml(&m);
        let back = model_from_xml(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn parse_minimal_document() {
        let m = model_from_xml(
            r#"<model name="t">
                 <actor id="0" name="x" kind="Inport"><param name="type">f32*4</param></actor>
                 <actor id="1" name="y" kind="Outport"/>
                 <connect from="0:0" to="1:0"/>
               </model>"#,
        )
        .unwrap();
        assert_eq!(m.name, "t");
        assert_eq!(m.actors.len(), 2);
        assert_eq!(m.connections.len(), 1);
        m.infer_types().unwrap();
    }

    #[test]
    fn non_dense_ids_rejected() {
        let e = model_from_xml(r#"<model name="t"><actor id="3" name="x" kind="Inport"/></model>"#)
            .unwrap_err();
        assert!(matches!(e, ParseModelError::Schema(_)));
    }

    #[test]
    fn unknown_kind_rejected() {
        let e = model_from_xml(r#"<model name="t"><actor id="0" name="x" kind="Warp"/></model>"#)
            .unwrap_err();
        assert!(matches!(e, ParseModelError::Schema(_)));
    }

    #[test]
    fn bad_port_spec_rejected() {
        let e = model_from_xml(
            r#"<model name="t">
                 <actor id="0" name="x" kind="Inport"><param name="type">f32*4</param></actor>
                 <connect from="0" to="0:0"/>
               </model>"#,
        )
        .unwrap_err();
        assert!(matches!(e, ParseModelError::Schema(_)));
    }

    #[test]
    fn xml_error_propagates() {
        assert!(matches!(
            model_from_xml("<model"),
            Err(ParseModelError::Xml(_))
        ));
    }

    #[test]
    fn unexpected_element_rejected() {
        let e = model_from_xml(r#"<model name="t"><blob/></model>"#).unwrap_err();
        assert!(matches!(e, ParseModelError::Schema(_)));
    }

    #[test]
    fn xml_error_after_schema_error_wins() {
        let e = model_from_xml(r#"<model name="t"><blob/><actor></model>"#).unwrap_err();
        assert!(matches!(e, ParseModelError::Xml(_)), "{e}");
    }

    #[test]
    fn param_text_joins_runs_split_by_comments() {
        let m = model_from_xml(
            r#"<model name="t"><actor id="0" name="x" kind="Inport"><param name="type"> f32<!-- c -->*4<b>no</b> </param></actor></model>"#,
        )
        .unwrap();
        assert_eq!(m.actors[0].params["type"], Param::parse("f32*4"));
    }
}
