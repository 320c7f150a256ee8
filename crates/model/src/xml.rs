//! A small from-scratch XML reader, and the escaping its writer needs.
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
//! The reader has one consumer, the schema walk in [`crate::parser`],
//! which reads events straight into a model and serves both
//! [`crate::parser::model_from_xml`] and
//! [`crate::parser::read_model_file`]; no document tree is built. The
//! writer, [`crate::parser::model_to_xml`], writes the text directly and
//! escapes through `Escaped`.

use std::borrow::Cow;
use std::fmt;

/// A writer that escapes the five predefined XML entities on their way to
/// the writer it wraps.
pub(crate) struct Escaped<'w, W>(pub(crate) &'w mut W);

impl<W: fmt::Write> fmt::Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let entity = match b {
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'&' => "&amp;",
                b'"' => "&quot;",
                b'\'' => "&apos;",
                _ => continue,
            };
            self.0.write_str(&s[run..i])?;
            self.0.write_str(entity)?;
            run = i + 1;
        }
        self.0.write_str(&s[run..])
    }
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
    pub(crate) fn attr(&self, name: &str) -> Option<&Cow<'a, str>> {
        self.attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A document's events written back as markup: start tags with their
    /// attributes unquoted (`<x k=v>`), end tags, and text as decoded.
    fn read_all(src: &str) -> Result<String, XmlError> {
        let mut r = Reader::new(src);
        let mut out = String::new();
        while let Some(event) = r.next_event()? {
            match event {
                Event::Start(name) => {
                    out += &format!("<{name}");
                    r.attrs
                        .iter()
                        .for_each(|(k, v)| out += &format!(" {k}={v}"));
                    out += ">";
                }
                Event::End(name) => out += &format!("</{name}>"),
                Event::Text(text) => out += &text,
            }
        }
        Ok(out)
    }

    #[test]
    fn minimal_document() {
        assert_eq!(read_all("<a/>").unwrap(), "<a></a>");
    }

    #[test]
    fn attributes_and_children() {
        let doc = read_all(r#"<m name="top"><x k="1"/><x k="2"/><y/></m>"#).unwrap();
        assert_eq!(doc, "<m name=top><x k=1></x><x k=2></x><y></y></m>");
    }

    #[test]
    fn text_content() {
        let doc = "<p>hello <b>world</b> tail</p>";
        assert_eq!(read_all(doc).unwrap(), doc);
    }

    #[test]
    fn entities_decode() {
        let doc = read_all(r#"<p a="&lt;&gt;&amp;&quot;&apos;">&#65;&#x42;</p>"#).unwrap();
        assert_eq!(doc, "<p a=<>&\"'>AB</p>");
    }

    #[test]
    fn comments_and_prolog_skipped() {
        let doc =
            "<?xml version=\"1.0\"?>\n<!-- c1 --><root><!-- inside --><a/></root><!-- after -->";
        assert_eq!(read_all(doc).unwrap(), "<root><a></a></root>");
    }

    #[test]
    fn single_quoted_attributes() {
        assert_eq!(read_all("<a k='v'/>").unwrap(), "<a k=v></a>");
    }

    #[test]
    fn mismatched_close_rejected() {
        let e = read_all("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"));
    }

    #[test]
    fn unterminated_rejected() {
        assert!(read_all("<a>").is_err());
        assert!(read_all("<a b=>").is_err());
        assert!(read_all("<a b=\"x>").is_err());
        assert!(read_all("").is_err());
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(read_all("<a/><b/>").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(read_all("<a>&nope;</a>").is_err());
    }

    #[test]
    fn utf8_text_preserved() {
        let doc = "<p>héllo — 世界</p>";
        assert_eq!(read_all(doc).unwrap(), doc);
    }

    #[test]
    fn depth_limit_is_exact() {
        let nest = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(read_all(&nest(MAX_DEPTH)).is_ok());
        let e = read_all(&nest(MAX_DEPTH + 1)).unwrap_err();
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
        let at = |s: &str| read_all(s).unwrap_err().offset;
        assert_eq!(at("<a></b>"), 6);
        assert_eq!(at("<a>&bad;</a>"), 3);
        assert_eq!(at("<a>text"), 7);
        assert_eq!(at("<a/> x"), 5);
        assert_eq!(at("<!-- open"), 0);
    }
}
