//! A small from-scratch XML reader/writer.
//!
//! The paper's implementation parses Simulink `.slx` model files with
//! TinyXML (§3.3); this module is the equivalent substrate. It supports the
//! subset of XML that block-diagram model files use: elements, attributes,
//! text content, self-closing tags, comments, processing instructions/
//! declarations, and the five predefined entities.
//!
//! The crate-private `Reader` is an iterative pull reader: it yields
//! start, end and text events and keeps the open tags on an explicit
//! stack, so no input can exhaust the call stack. Names are `&str` slices
//! of the input; attribute values and text are [`Cow`]s that own a buffer
//! only when an entity had to be decoded; the attributes of the current
//! start tag live in one reused `Vec`. Nesting deeper than [`MAX_DEPTH`]
//! is an [`XmlError`].
//!
//! The reader has two consumers. [`crate::parser::model_from_xml`] reads
//! events straight into a model. [`parse`] builds an owned [`XmlElement`]
//! tree for callers that walk a DOM (the lenient lint front end);
//! `XmlElement` is also what [`crate::parser::model_to_xml`] writes
//! through. Both consumers report the same error for the same input: the
//! first malformed construct in document order. An XML error anywhere
//! outranks a schema error, the order a parse-then-validate front end
//! gives: after a schema violation `model_from_xml` reads on to the end,
//! checking only well-formedness, and returns the schema error only for a
//! well-formed file.

use std::borrow::Cow;
use std::fmt;

/// A parsed XML element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements (text nodes are accumulated into [`XmlElement::text`]).
    pub children: Vec<XmlElement>,
    /// Concatenated character data directly inside this element.
    pub text: String,
}

impl XmlElement {
    /// An element with no attributes, children or text.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Look up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Add an attribute (builder style).
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Add a child element (builder style).
    pub fn with_child(mut self, child: XmlElement) -> Self {
        self.children.push(child);
        self
    }

    /// All children with the given tag name.
    pub fn children_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// First child with the given tag name.
    pub fn child<'a>(&'a self, name: &str) -> Option<&'a XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Serialise to a string with 2-space indentation.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            out.push_str(&escape(&self.text));
        }
        if !self.children.is_empty() {
            out.push('\n');
            for c in &self.children {
                c.write(out, depth + 1);
            }
            out.push_str(&pad);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

/// Escape the five predefined XML entities.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Parse error with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "xml parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Deepest element nesting a document may have (the root is level 1).
///
/// Model files nest three levels (model, actor, param); the cap bounds the
/// reader's open-tag stack, and with it the work one hostile document can
/// cause.
pub const MAX_DEPTH: usize = 256;

/// One step through a document, as returned by [`Reader::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event<'a> {
    /// A start tag. Its attributes are in the reader's `attrs` until the
    /// next call to [`Reader::next_event`].
    Start(&'a str),
    /// An end tag. A self-closing element yields `Start` then `End`.
    End(&'a str),
    /// A run of character data with entities decoded. Comments and child
    /// elements split an element's text into several runs.
    Text(Cow<'a, str>),
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Before the root element.
    Prolog,
    /// Inside the root (or past it, once the open-tag stack is empty).
    Content,
    /// A self-closing start tag was just returned; its `End` is next.
    SelfClosed,
}

/// An iterative pull reader over a document held in memory.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    src: &'a str,
    pos: usize,
    state: State,
    /// Names of the open elements, outermost first.
    open: Vec<&'a str>,
    /// Attributes of the last start tag, in document order.
    attrs: Vec<(&'a str, Cow<'a, str>)>,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's prolog.
    pub(crate) fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            state: State::Prolog,
            open: Vec::new(),
            attrs: Vec::new(),
        }
    }

    /// The next event, or `None` once the root has closed and only
    /// whitespace, comments and processing instructions follow it.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] at the first malformed construct, including
    /// nesting deeper than [`MAX_DEPTH`]. The reader must not be used after
    /// an error.
    pub(crate) fn next_event(&mut self) -> Result<Option<Event<'a>>, XmlError> {
        match self.state {
            State::Prolog => {
                self.skip_misc()?;
                self.start_tag().map(Some)
            }
            State::SelfClosed => {
                self.state = State::Content;
                let name = self.open.pop().expect("a self-closed element is open");
                Ok(Some(Event::End(name)))
            }
            State::Content if self.open.is_empty() => {
                self.skip_misc()?;
                if self.pos < self.src.len() {
                    return Err(self.err("trailing content after root element"));
                }
                Ok(None)
            }
            State::Content => self.content().map(Some),
        }
    }

    /// Number of open elements: after `Start` it counts that element, after
    /// `End` it no longer does, and during `Text` it is the text's depth.
    pub(crate) fn depth(&self) -> usize {
        self.open.len()
    }

    /// The first attribute of the last start tag with the given name.
    pub(crate) fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_ref())
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a [u8] {
        &self.src.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    /// Skip whitespace, comments, declarations and processing instructions.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.starts_with(b"<!--") {
                self.skip_past("-->")?;
            } else if rest.starts_with(b"<?") {
                self.skip_past("?>")?;
            } else if rest.starts_with(b"<!") {
                // DOCTYPE and friends — skip to the closing '>'.
                self.skip_past(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_past(&mut self, end: &str) -> Result<(), XmlError> {
        match self.src[self.pos..].find(end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(format!("unterminated construct, expected {end:?}"))),
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|&c| !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b':' | b'.')))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("expected a name"));
        }
        let start = self.pos;
        self.pos += len;
        Ok(&self.src[start..self.pos])
    }

    fn start_tag(&mut self) -> Result<Event<'a>, XmlError> {
        let at = self.pos;
        self.expect(b'<')?;
        if self.open.len() == MAX_DEPTH {
            return Err(XmlError {
                offset: at,
                message: format!("elements nest deeper than the depth limit of {MAX_DEPTH}"),
            });
        }
        let name = self.name()?;
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    self.state = State::SelfClosed;
                    break;
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.state = State::Content;
                    break;
                }
                Some(_) => {
                    let attr = self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = self
                        .peek()
                        .filter(|&q| q == b'"' || q == b'\'')
                        .ok_or_else(|| self.err("expected quoted attribute value"))?;
                    self.pos += 1;
                    let value = self.text_until(quote)?;
                    self.pos += 1; // the closing quote
                    self.attrs.push((attr, value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        self.open.push(name);
        Ok(Event::Start(name))
    }

    /// Read inside an open element up to the next event.
    fn content(&mut self) -> Result<Event<'a>, XmlError> {
        let open = *self.open.last().expect("content is read inside an element");
        loop {
            let rest = self.rest();
            if rest.starts_with(b"<!--") {
                self.skip_past("-->")?;
                continue;
            }
            if rest.starts_with(b"</") {
                self.pos += 2;
                let close = self.name()?;
                if close != open {
                    return Err(self.err(format!("mismatched close tag </{close}> for <{open}>")));
                }
                self.skip_ws();
                self.expect(b'>')?;
                self.open.pop();
                return Ok(Event::End(close));
            }
            return match rest.first() {
                Some(b'<') => self.start_tag(),
                Some(_) => self.text_until(b'<').map(Event::Text),
                None => Err(self.err(format!("unterminated element <{open}>"))),
            };
        }
    }

    /// Read character data until (not including) the terminator byte,
    /// resolving entities. Borrowed unless an entity needed decoding.
    fn text_until(&mut self, terminator: u8) -> Result<Cow<'a, str>, XmlError> {
        let start = self.pos;
        let mut decoded: Option<String> = None;
        loop {
            let run = self.pos;
            let Some(i) = self
                .rest()
                .iter()
                .position(|&b| b == terminator || b == b'&')
            else {
                self.pos = self.src.len();
                return Err(self.err("unexpected end of input in character data"));
            };
            self.pos += i;
            if self.src.as_bytes()[self.pos] == terminator {
                return Ok(match decoded {
                    None => Cow::Borrowed(&self.src[start..self.pos]),
                    Some(mut s) => {
                        s.push_str(&self.src[run..self.pos]);
                        Cow::Owned(s)
                    }
                });
            }
            let s = decoded.get_or_insert_with(String::new);
            s.push_str(&self.src[run..self.pos]);
            s.push(self.entity()?);
        }
    }

    /// Decode the entity at the cursor (which is on its `&`).
    fn entity(&mut self) -> Result<char, XmlError> {
        let rest = &self.src[self.pos..];
        let semi = rest
            .find(';')
            .ok_or_else(|| self.err("unterminated entity"))?;
        let ent = &rest[1..semi];
        let ch = match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ if ent.starts_with('#') => {
                let num = &ent[1..];
                let code = match num.strip_prefix('x') {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => num.parse(),
                }
                .map_err(|_| self.err("bad character reference"))?;
                char::from_u32(code).ok_or_else(|| self.err("bad character reference"))?
            }
            _ => return Err(self.err("unknown entity")),
        };
        self.pos += semi + 1;
        Ok(ch)
    }
}

/// Parse a document and return its root element.
///
/// # Errors
///
/// Returns [`XmlError`] on malformed input (unterminated tags, mismatched
/// close tags, bad entities, trailing content, nesting deeper than
/// [`MAX_DEPTH`]).
///
/// # Examples
///
/// ```
/// use hcg_model::xml::parse;
/// # fn main() -> Result<(), hcg_model::xml::XmlError> {
/// let doc = parse("<model name=\"m\"><actor kind=\"Add\"/></model>")?;
/// assert_eq!(doc.attr("name"), Some("m"));
/// assert_eq!(doc.children.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(input: &str) -> Result<XmlElement, XmlError> {
    let mut reader = Reader::new(input);
    let mut open: Vec<XmlElement> = Vec::new();
    let mut root = None;
    while let Some(event) = reader.next_event()? {
        match event {
            Event::Start(name) => open.push(XmlElement {
                name: name.to_owned(),
                attrs: reader
                    .attrs
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone().into_owned()))
                    .collect(),
                children: Vec::new(),
                text: String::new(),
            }),
            Event::Text(t) => open
                .last_mut()
                .expect("text is inside an element")
                .text
                .push_str(&t),
            Event::End(_) => {
                let mut el = open.pop().expect("an end tag closes an open element");
                el.text = el.text.trim().to_owned();
                match open.last_mut() {
                    Some(parent) => parent.children.push(el),
                    None => root = Some(el),
                }
            }
        }
    }
    Ok(root.expect("the reader finishes only after the root closes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.name, "a");
        assert!(doc.attrs.is_empty());
    }

    #[test]
    fn attributes_and_children() {
        let doc = parse(r#"<m name="top"><x k="1"/><x k="2"/><y/></m>"#).unwrap();
        assert_eq!(doc.attr("name"), Some("top"));
        assert_eq!(doc.children_named("x").count(), 2);
        assert_eq!(doc.child("y").unwrap().name, "y");
        assert_eq!(doc.children[1].attr("k"), Some("2"));
    }

    #[test]
    fn text_content() {
        let doc = parse("<p>hello <b>world</b> tail</p>").unwrap();
        assert!(doc.text.contains("hello"));
        assert_eq!(doc.child("b").unwrap().text, "world");
    }

    #[test]
    fn entities_decode() {
        let doc = parse(r#"<p a="&lt;&gt;&amp;&quot;&apos;">&#65;&#x42;</p>"#).unwrap();
        assert_eq!(doc.attr("a"), Some("<>&\"'"));
        assert_eq!(doc.text, "AB");
    }

    #[test]
    fn comments_and_prolog_skipped() {
        let doc = parse(
            "<?xml version=\"1.0\"?>\n<!-- c1 --><root><!-- inside --><a/></root><!-- after -->",
        )
        .unwrap();
        assert_eq!(doc.children.len(), 1);
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<a k='v'/>").unwrap();
        assert_eq!(doc.attr("k"), Some("v"));
    }

    #[test]
    fn mismatched_close_rejected() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"));
    }

    #[test]
    fn unterminated_rejected() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a b=>").is_err());
        assert!(parse("<a b=\"x>").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&nope;</a>").is_err());
    }

    #[test]
    fn roundtrip_write_parse() {
        let el = XmlElement::new("model")
            .with_attr("name", "t<&>t")
            .with_child(XmlElement::new("actor").with_attr("kind", "Add"))
            .with_child(XmlElement::new("note"));
        let text = el.to_xml();
        let back = parse(&text).unwrap();
        assert_eq!(back.attr("name"), Some("t<&>t"));
        assert_eq!(back.children.len(), 2);
    }

    #[test]
    fn utf8_text_preserved() {
        let doc = parse("<p>héllo — 世界</p>").unwrap();
        assert_eq!(doc.text, "héllo — 世界");
    }

    #[test]
    fn depth_limit_is_exact() {
        let nest = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            e.offset,
            3 * MAX_DEPTH,
            "reported at the first '<' too deep"
        );
        assert!(e.message.contains("depth limit of 256"), "{e}");
    }

    #[test]
    fn reader_borrows_unless_decoding() {
        let mut r = Reader::new("<p a=\"x\" b=\"&amp;\">one<!-- c -->t&lt;o<q/></p>");
        assert_eq!(r.next_event().unwrap(), Some(Event::Start("p")));
        assert!(matches!(r.attrs[0].1, Cow::Borrowed("x")));
        assert!(matches!(r.attrs[1].1, Cow::Owned(ref v) if v == "&"));
        assert!(matches!(
            r.next_event().unwrap(),
            Some(Event::Text(Cow::Borrowed("one")))
        ));
        assert_eq!(r.depth(), 1);
        assert!(
            matches!(r.next_event().unwrap(), Some(Event::Text(Cow::Owned(ref t))) if t == "t<o")
        );
        assert_eq!(r.next_event().unwrap(), Some(Event::Start("q")));
        assert_eq!(r.depth(), 2);
        assert_eq!(r.next_event().unwrap(), Some(Event::End("q")));
        assert_eq!(r.next_event().unwrap(), Some(Event::End("p")));
        assert_eq!(r.depth(), 0);
        assert_eq!(r.next_event().unwrap(), None);
    }

    #[test]
    fn error_offsets_are_where_the_fault_is() {
        let at = |s: &str| parse(s).unwrap_err().offset;
        assert_eq!(at("<a></b>"), 6);
        assert_eq!(at("<a>&bad;</a>"), 3);
        assert_eq!(at("<a>text"), 7);
        assert_eq!(at("<a/> x"), 5);
        assert_eq!(at("<!-- open"), 0);
    }
}
