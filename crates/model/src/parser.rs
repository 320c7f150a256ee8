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

use crate::actor::{Actor, ActorId, ActorKind, ParseActorKindError};
use crate::model::{Connection, Model, PortRef};
use crate::types::Param;
use crate::xml::{Escaped, Event, Reader, XmlError};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

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

/// One way a well-formed file breaks the model schema. Its `Display` is
/// the text [`model_from_xml`] reports in [`ParseModelError::Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaViolation {
    /// The `<actor>` element it is in, if any: that element's index among
    /// the actors (the id it must have) and its `name` attribute.
    pub actor: Option<(usize, Option<String>)>,
    /// What is wrong.
    pub fault: Fault,
}

/// What is wrong in a [`SchemaViolation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The root element, named here, is not `<model>`; nothing in it is checked.
    WrongRoot(String),
    /// An element, named here, other than `<actor>` or `<connect>` in `<model>`.
    UnexpectedElement(String),
    /// An element (the first name) without a required attribute (the second).
    MissingAttr(&'static str, &'static str),
    /// An actor `id`, given here, that is not a non-negative integer.
    IdNotInteger(String),
    /// An actor `id`, given here, other than the actor's index.
    IdOutOfOrder(usize),
    /// An actor `kind` that names no actor kind.
    UnknownKind(ParseActorKindError),
    /// A port spec, given here, with no `:` between actor and port.
    NotActorPort(String),
    /// A port spec, given here, whose actor id is not an integer.
    BadActorId(String),
    /// A port spec, given here, whose port index is not an integer.
    BadPortIndex(String),
}

impl fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.fault {
            Fault::WrongRoot(root) => write!(f, "root element must be <model>, got <{root}>"),
            Fault::UnexpectedElement(name) => write!(f, "unexpected element <{name}>"),
            Fault::MissingAttr(element, attr) => write!(f, "<{element}> missing {attr}"),
            Fault::IdNotInteger(_) => f.write_str("<actor> id must be an integer"),
            Fault::IdOutOfOrder(id) => {
                let expected = self.actor.as_ref().map_or(0, |a| a.0);
                write!(
                    f,
                    "actor ids must be dense and in order: expected {expected}, got {id}"
                )
            }
            Fault::UnknownKind(e) => write!(f, "{e}"),
            Fault::NotActorPort(spec) => write!(f, "port reference {spec:?} must be actor:port"),
            Fault::BadActorId(spec) => write!(f, "bad actor id in {spec:?}"),
            Fault::BadPortIndex(spec) => write!(f, "bad port index in {spec:?}"),
        }
    }
}

/// A well-formed model file as [`read_model_file`] reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFile {
    /// The root element's `name` attribute.
    pub name: Option<String>,
    /// The model, or every schema violation in document order.
    pub model: Result<Model, Vec<SchemaViolation>>,
}

/// Parse a model file.
///
/// # Errors
///
/// Returns [`ParseModelError`] for malformed XML or for the first of the
/// schema violations [`read_model_file`] lists. Malformed XML anywhere in
/// the file outranks a schema violation. Structural/type validation is
/// *not* performed here; call [`Model::infer_types`] afterwards (as
/// [`crate::ModelBuilder::build`] does) to reject semantically invalid
/// models.
pub fn model_from_xml(text: &str) -> Result<Model, ParseModelError> {
    let walk = SchemaWalk::run(text)?;
    match walk.violations.first() {
        Some(v) => Err(ParseModelError::Schema(v.to_string())),
        None => Ok(walk.into_model()),
    }
}

/// Read a model file in the one pass [`model_from_xml`] makes, keeping
/// every schema violation rather than the first.
///
/// # Errors
///
/// Returns [`XmlError`] for malformed XML, which outranks any violation.
pub fn read_model_file(text: &str) -> Result<ModelFile, XmlError> {
    let walk = SchemaWalk::run(text)?;
    let name = walk.name.as_deref().map(str::to_owned);
    let model = match walk.violations.is_empty() {
        true => Ok(walk.into_model()),
        false => Err(walk.violations),
    };
    Ok(ModelFile { name, model })
}

/// The schema walk: reader events in, the model and its violations out.
/// The schema is `<model>` (level 1) holding `<actor>` and `<connect>`
/// (level 2), with `<param>` (level 3) inside an actor; anything deeper is
/// ignored. The model is built only while no violation has been seen.
#[derive(Default)]
struct SchemaWalk<'a> {
    /// Set by a wrong root: nothing inside it is checked.
    stopped: bool,
    violations: Vec<SchemaViolation>,
    /// The root's `name` attribute.
    name: Option<Cow<'a, str>>,
    actors: Vec<Actor>,
    connections: Vec<Connection>,
    /// `<actor>` elements seen so far, valid or not.
    actor_elements: usize,
    /// The open `<actor>`'s index and name attribute (a violation's
    /// context), and its id and kind when both are valid.
    actor: Option<(usize, Option<String>)>,
    head: Option<(ActorId, ActorKind)>,
    /// That actor's params so far, and the open `<param>`'s name and text.
    params: BTreeMap<String, Param>,
    param: Option<(String, Cow<'a, str>)>,
}

impl<'a> SchemaWalk<'a> {
    fn run(text: &'a str) -> Result<Self, XmlError> {
        let mut reader = Reader::new(text);
        let mut walk = SchemaWalk::default();
        while let Some(event) = reader.next_event()? {
            if !walk.stopped {
                walk.event(&reader, event);
            }
        }
        Ok(walk)
    }

    fn into_model(self) -> Model {
        Model {
            name: self
                .name
                .map_or_else(|| "unnamed".to_owned(), Cow::into_owned),
            actors: self.actors,
            connections: self.connections,
        }
    }

    /// Record a fault of the open `<actor>` element, if any.
    fn record(&mut self, fault: Fault) {
        let actor = self.actor.clone();
        self.violations.push(SchemaViolation { actor, fault });
    }

    fn event(&mut self, r: &Reader<'a>, event: Event<'a>) {
        let building = self.violations.is_empty();
        match (event, r.depth()) {
            (Event::Start(root), 1) => {
                self.name = r.attr("name").cloned();
                if root != "model" {
                    self.record(Fault::WrongRoot(root.to_owned()));
                    self.stopped = true;
                }
            }
            (Event::Start("actor"), 2) => self.open_actor(r),
            (Event::Start("connect"), 2) => {
                let (from, to) = (self.port(r, "from"), self.port(r, "to"));
                if let (Some(from), Some(to), true) = (from, to, self.violations.is_empty()) {
                    self.connections.push(Connection { from, to });
                }
            }
            (Event::Start(other), 2) => self.record(Fault::UnexpectedElement(other.to_owned())),
            (Event::Start("param"), 3) if self.actor.is_some() => match r.attr("name") {
                None => self.record(Fault::MissingAttr("param", "name")),
                Some(name) if building => self.param = Some((name.to_string(), Cow::Borrowed(""))),
                Some(_) => {}
            },
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
                if let Some((name, text)) = self.param.take() {
                    self.params.insert(name, Param::parse(text.trim()));
                }
            }
            (Event::End(_), 1) => {
                let params = std::mem::take(&mut self.params);
                if let (Some((_, Some(name))), Some((id, kind)), true) =
                    (self.actor.take(), self.head.take(), building)
                {
                    self.actors.push(Actor {
                        id,
                        name,
                        kind,
                        params,
                    });
                }
            }
            _ => {}
        }
    }

    /// Open an `<actor>` element, checking its id, name and kind in that
    /// order.
    fn open_actor(&mut self, r: &Reader<'a>) {
        let index = self.actor_elements;
        self.actor_elements += 1;
        self.actor = Some((index, r.attr("name").map(|n| n.to_string())));
        let id = match r.attr("id").map(|raw| (raw, raw.parse())) {
            None => Err(Fault::MissingAttr("actor", "id")),
            Some((raw, Err(_))) => Err(Fault::IdNotInteger(raw.to_string())),
            Some((_, Ok(id))) if id != index => Err(Fault::IdOutOfOrder(id)),
            Some((_, Ok(id))) => Ok(ActorId(id)),
        };
        let id = id.map_err(|fault| self.record(fault)).ok();
        if r.attr("name").is_none() {
            self.record(Fault::MissingAttr("actor", "name"));
        }
        let kind = match r.attr("kind") {
            None => Err(Fault::MissingAttr("actor", "kind")),
            Some(kind) => kind.parse().map_err(Fault::UnknownKind),
        };
        let kind = kind.map_err(|fault| self.record(fault)).ok();
        self.head = id.zip(kind);
    }

    /// The `<connect>` endpoint in attribute `attr`, recording why when
    /// there is none.
    fn port(&mut self, r: &Reader<'_>, attr: &'static str) -> Option<PortRef> {
        let port = match r.attr(attr) {
            None => Err(Fault::MissingAttr("connect", attr)),
            Some(spec) => parse_port(spec),
        };
        port.map_err(|fault| self.record(fault)).ok()
    }
}

fn parse_port(spec: &str) -> Result<PortRef, Fault> {
    let (a, p) = spec
        .split_once(':')
        .ok_or_else(|| Fault::NotActorPort(spec.to_owned()))?;
    let actor = a.parse().map_err(|_| Fault::BadActorId(spec.to_owned()))?;
    let port = p
        .parse()
        .map_err(|_| Fault::BadPortIndex(spec.to_owned()))?;
    Ok(PortRef::new(ActorId(actor), port))
}

/// Serialise a model to its file format. The output parses back to an equal
/// model via [`model_from_xml`]. The text is measured first, then written
/// into one `String` of exactly its length, escaping on the way.
pub fn model_to_xml(model: &Model) -> String {
    let mut len = Len(0);
    write_model(model, &mut len).expect("counting takes every write");
    let mut out = String::with_capacity(len.0);
    write_model(model, &mut out).expect("a String takes every write");
    out
}

/// A writer that only counts the bytes written to it.
struct Len(usize);

impl fmt::Write for Len {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Write `model` in its file format: two-space indentation, one element
/// per line, and an element with neither children nor text self-closing.
fn write_model<W: fmt::Write>(model: &Model, out: &mut W) -> fmt::Result {
    out.write_str("<model name=\"")?;
    Escaped(out).write_str(&model.name)?;
    if model.actors.is_empty() && model.connections.is_empty() {
        return out.write_str("\"/>\n");
    }
    out.write_str("\">\n")?;
    for a in &model.actors {
        write!(out, "  <actor id=\"{}\" name=\"", a.id.0)?;
        Escaped(out).write_str(&a.name)?;
        write!(out, "\" kind=\"{}\"", a.kind.name())?;
        if a.params.is_empty() {
            out.write_str("/>\n")?;
            continue;
        }
        out.write_str(">\n")?;
        for (k, v) in &a.params {
            out.write_str("    <param name=\"")?;
            Escaped(out).write_str(k)?;
            let empty = match v {
                Param::Int(_) | Param::Float(_) => false,
                Param::IntVec(v) => v.is_empty(),
                Param::FloatVec(v) => v.is_empty(),
                Param::Str(s) => s.is_empty(),
            };
            if empty {
                out.write_str("\"/>\n")?;
            } else {
                out.write_str("\">")?;
                write!(Escaped(out), "{v}")?;
                out.write_str("</param>\n")?;
            }
        }
        out.write_str("  </actor>\n")?;
    }
    for c in &model.connections {
        let (from, to) = (c.from, c.to);
        writeln!(
            out,
            "  <connect from=\"{}:{}\" to=\"{}:{}\"/>",
            from.actor.0, from.port, to.actor.0, to.port
        )?;
    }
    out.write_str("</model>\n")
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
