//! What the N-Triples and the Turtle reader share: the buffer their
//! streamers drain statements from, and a lexer for the terminals both
//! syntaxes write alike (IRI refs, blank nodes, quoted literals).

use crate::error::{RdfError, Result};
use crate::term::{unescape_literal, Literal, Term};

/// Fed chunks, minus the statements already handed out.
///
/// Taking a statement only moves an offset; the consumed prefix is dropped
/// by the next [`feed`](Self::feed), once per chunk rather than once per
/// statement. The allocation therefore never holds more than the
/// unconsumed tail plus one chunk.
#[derive(Debug, Default)]
pub(crate) struct ChunkBuffer {
    bytes: Vec<u8>,
    /// Length of the prefix of `bytes` already handed out by `take`.
    consumed: usize,
    /// No chunk follows: what is pending is the document's tail.
    pub(crate) finished: bool,
}

impl ChunkBuffer {
    pub(crate) fn feed(&mut self, chunk: &[u8]) {
        debug_assert!(!self.finished, "feed after finish");
        self.bytes.drain(..self.consumed);
        self.consumed = 0;
        self.bytes.extend_from_slice(chunk);
    }

    /// The bytes not handed out yet.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.bytes[self.consumed..]
    }

    /// Hand out the first `len` pending bytes, which start on `line`.
    pub(crate) fn take(&mut self, len: usize, line: usize) -> Result<&str> {
        let start = self.consumed;
        self.consumed += len;
        std::str::from_utf8(&self.bytes[start..self.consumed])
            .map_err(|_| RdfError::parse(line, "invalid UTF-8 in input"))
    }
}

/// A cursor over one statement's text, by byte offset. Terms are sliced
/// out of the text and copied once.
pub(crate) struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based line `text` starts on.
    first_line: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(text: &'a str, first_line: usize) -> Self {
        Lexer {
            text,
            pos: 0,
            first_line,
        }
    }

    /// 1-based line the cursor is on (counted on demand: errors and
    /// statement ends need it, terms do not).
    pub(crate) fn line(&self) -> usize {
        let before = &self.text.as_bytes()[..self.pos];
        self.first_line + before.iter().filter(|&&b| b == b'\n').count()
    }

    /// A parse error at the cursor's line.
    pub(crate) fn err(&self, message: impl Into<String>) -> RdfError {
        RdfError::parse(self.line(), message)
    }

    /// The text from the cursor on.
    pub(crate) fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    pub(crate) fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// Step over `c` if it is next.
    pub(crate) fn eat(&mut self, c: char) -> bool {
        let found = self.rest().starts_with(c);
        self.pos += if found { c.len_utf8() } else { 0 };
        found
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Step over `expected` — or over what stands in its place, so that the
    /// error carries the line after it.
    pub(crate) fn expect(&mut self, expected: char) -> Result<()> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => Err(self.err(format!("expected '{expected}', found '{c}'"))),
            None => Err(self.err(format!("expected '{expected}', found end of input"))),
        }
    }

    /// Advance over the longest prefix of `keep` characters and return it.
    pub(crate) fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let rest = self.rest();
        let taken = &rest[..rest.find(|c| !keep(c)).unwrap_or(rest.len())];
        self.pos += taken.len();
        taken
    }

    pub(crate) fn skip_whitespace(&mut self) {
        self.take_while(char::is_whitespace);
    }

    /// Give back the last `bytes` bytes taken (a prefixed name's trailing
    /// dots belong to the statement).
    pub(crate) fn back_up(&mut self, bytes: usize) {
        self.pos -= bytes;
    }

    /// One term. `name` reads an IRI written without angle brackets — a
    /// Turtle prefixed name; N-Triples has none and passes an error.
    pub(crate) fn term(
        &mut self,
        name: &mut dyn FnMut(&mut Self) -> Result<String>,
    ) -> Result<Term> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.iri_ref()?)),
            Some('"') => self.literal(name),
            Some('_') => self.blank_node(),
            Some(c) if c.is_alphanumeric() => Ok(Term::Iri(name(self)?)),
            Some(c) => Err(self.err(format!("unexpected character '{c}' at start of term"))),
            None => Err(self.err("unexpected end of input, expected a term")),
        }
    }

    /// `<iri>`, without the brackets.
    pub(crate) fn iri_ref(&mut self) -> Result<String> {
        self.expect('<')?;
        let rest = self.rest();
        let Some(end) = rest.find('>') else {
            self.pos = self.text.len();
            return Err(self.err("unterminated IRI"));
        };
        self.pos += end + 1;
        if end == 0 {
            return Err(RdfError::InvalidIri("<>".to_string()));
        }
        Ok(rest[..end].to_string())
    }

    /// `_:label`; a label is alphanumerics, `_` and `-`, so a statement's
    /// dot may follow it directly.
    fn blank_node(&mut self) -> Result<Term> {
        self.expect('_')?;
        self.expect(':')?;
        let label = self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        if label.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        Ok(Term::Blank(label.to_string()))
    }

    /// `"lexical form"`, then `@lang`, `^^<datatype>`, `^^` and a `name`,
    /// or nothing.
    fn literal(&mut self, name: &mut dyn FnMut(&mut Self) -> Result<String>) -> Result<Term> {
        self.expect('"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut escaped = false;
        // Both delimiters are ASCII, so no byte of a multi-byte character
        // is mistaken for one.
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => break,
                Some(b'\\') if self.pos + 1 == bytes.len() => {
                    self.pos += 1;
                    return Err(self.err("dangling escape in literal"));
                }
                Some(b'\\') => {
                    // Past the escaped character's first byte; any
                    // further bytes of it pass as ordinary ones below.
                    escaped = true;
                    self.pos += 2;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated literal")),
            }
        }
        let raw = &self.text[start..self.pos];
        self.pos += 1;
        let value = if escaped {
            unescape_literal(raw)
        } else {
            raw.to_string()
        };
        Ok(Term::Literal(if self.eat('@') {
            let language = self.take_while(|c| c.is_alphanumeric() || c == '-');
            if language.is_empty() {
                return Err(self.err("empty language tag"));
            }
            Literal::lang(value, language)
        } else if self.eat('^') {
            self.expect('^')?;
            let datatype = match self.peek() {
                Some('<') => self.iri_ref()?,
                _ => name(self)?,
            };
            Literal::typed(value, datatype)
        } else {
            Literal::plain(value)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taken_bytes_leave_the_buffer_at_the_next_feed() {
        let mut buf = ChunkBuffer::default();
        buf.feed(b"ab\ncd");
        assert_eq!(buf.take(3, 1), Ok("ab\n"));
        assert_eq!(buf.pending(), b"cd");
        // Not by `take` (a shift of the whole chunk per statement), but
        // before the next chunk lands: the allocation holds the
        // unconsumed tail plus one chunk, never more.
        assert_eq!(buf.bytes, b"ab\ncd");
        buf.feed(b"\nef");
        assert_eq!(buf.bytes, b"cd\nef");
        assert_eq!(buf.take(3, 2), Ok("cd\n"));
        assert_eq!(buf.take(2, 3), Ok("ef"));
        assert!(buf.pending().is_empty());
    }
}
