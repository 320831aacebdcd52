//! What the N-Triples and the Turtle reader share: the buffer their
//! streamers drain statements from, and a lexer for the terminals both
//! syntaxes write alike (IRI refs, blank nodes, quoted literals).

use crate::error::{RdfError, Result};
use crate::term::{unescape_literal, LiteralRef, TermRef};
use std::borrow::Cow;

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

    /// Drop the first `len` pending bytes unread.
    pub(crate) fn skip(&mut self, len: usize) {
        self.consumed += len;
    }

    /// Hand out the first `len` pending bytes, which start on `line`.
    pub(crate) fn take(&mut self, len: usize, line: usize) -> Result<&str> {
        let start = self.consumed;
        self.consumed += len;
        std::str::from_utf8(&self.bytes[start..self.consumed])
            .map_err(|_| RdfError::parse(line, "invalid UTF-8 in input"))
    }
}

/// Length of `bytes` up to and including its first `\n`, looked for a
/// word at a time: a word holds a newline when one of its bytes XORs to
/// zero, and the lowest such byte is the first (a borrow only carries
/// upwards).
pub(crate) fn line_len(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for (i, word) in words.enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of 8")) ^ NEWLINES;
        let zeros = word.wrapping_sub(ONES) & !word & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8 + 1);
        }
    }
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(bytes.len() - tail.len() + at + 1)
}

/// `char::is_whitespace` of an ASCII byte (vertical tab included, which
/// `u8::is_ascii_whitespace` leaves out).
fn is_ascii_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t'..=b'\r')
}

/// `true` when `line` is a line a reader skips: valid UTF-8 that is only
/// whitespace, or whose first other character is `#`. Decided on the
/// bytes; only a line that may be skipped is decoded.
pub(crate) fn is_blank_or_comment(line: &[u8]) -> bool {
    match line.iter().find(|&&b| !is_ascii_space(b)) {
        Some(&b) if b.is_ascii() && b != b'#' => false,
        _ => std::str::from_utf8(line)
            .is_ok_and(|line| line.trim().is_empty() || line.trim().starts_with('#')),
    }
}

/// A cursor over one statement's text, by byte offset. Terms are lent
/// from the text; only an unescaped literal or an expanded prefixed name
/// is owned.
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
        self.line_at(self.pos)
    }

    fn line_at(&self, pos: usize) -> usize {
        let before = &self.text.as_bytes()[..pos];
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

    fn next_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn peek(&self) -> Option<char> {
        match self.next_byte()? {
            b if b.is_ascii() => Some(b as char),
            _ => self.rest().chars().next(),
        }
    }

    /// Step over `c` if it is next.
    pub(crate) fn eat(&mut self, c: char) -> bool {
        let found = match c.is_ascii() {
            true => self.next_byte() == Some(c as u8),
            false => self.rest().starts_with(c),
        };
        self.pos += if found { c.len_utf8() } else { 0 };
        found
    }

    /// Step over `expected` — or over what stands in its place, so that the
    /// error carries the line after it.
    pub(crate) fn expect(&mut self, expected: char) -> Result<()> {
        if self.eat(expected) {
            return Ok(());
        }
        match self.peek() {
            Some(c) => {
                self.pos += c.len_utf8();
                Err(self.err(format!("expected '{expected}', found '{c}'")))
            }
            None => Err(self.err(format!("expected '{expected}', found end of input"))),
        }
    }

    /// Advance over the longest prefix of `keep` characters and return it.
    /// ASCII is judged a byte at a time; from the first other byte on,
    /// characters are decoded.
    pub(crate) fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut end = start;
        while let Some(&b) = bytes.get(end) {
            if !b.is_ascii() {
                let rest = &self.text[end..];
                end += rest.find(|c| !keep(c)).unwrap_or(rest.len());
                break;
            }
            if !keep(b as char) {
                break;
            }
            end += 1;
        }
        self.pos = end;
        &self.text[start..end]
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
        name: &mut impl FnMut(&mut Self) -> Result<Cow<'a, str>>,
    ) -> Result<TermRef<'a>> {
        match self.peek() {
            Some('<') => Ok(TermRef::Iri(Cow::Borrowed(self.iri_ref()?))),
            Some('"') => self.literal(name),
            Some('_') => self.blank_node(),
            Some(c) if c.is_alphanumeric() => Ok(TermRef::Iri(name(self)?)),
            Some(c) => Err(self.err(format!("unexpected character '{c}' at start of term"))),
            None => Err(self.err("unexpected end of input, expected a term")),
        }
    }

    /// `<iri>`, without the brackets.
    pub(crate) fn iri_ref(&mut self) -> Result<&'a str> {
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
        Ok(&rest[..end])
    }

    /// `_:label`; a label is alphanumerics, `_` and `-`, so a statement's
    /// dot may follow it directly.
    fn blank_node(&mut self) -> Result<TermRef<'a>> {
        self.expect('_')?;
        self.expect(':')?;
        let label = self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        if label.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        Ok(TermRef::Blank(label))
    }

    /// `"lexical form"`, then `@lang`, `^^<datatype>`, `^^` and a `name`,
    /// or nothing.
    fn literal(
        &mut self,
        name: &mut impl FnMut(&mut Self) -> Result<Cow<'a, str>>,
    ) -> Result<TermRef<'a>> {
        self.expect('"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut escaped = false;
        // Both delimiters are ASCII, so no byte of a multi-byte character
        // is mistaken for one.
        loop {
            let delimiter = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            let Some(at) = delimiter else {
                self.pos = bytes.len();
                return Err(self.err("unterminated literal"));
            };
            self.pos += at;
            if bytes[self.pos] == b'"' {
                break;
            }
            if self.pos + 1 == bytes.len() {
                self.pos += 1;
                return Err(self.err("dangling escape in literal"));
            }
            // Past the escaped character's first byte; any further bytes
            // of it pass as ordinary ones.
            escaped = true;
            self.pos += 2;
        }
        let raw = &self.text[start..self.pos];
        self.pos += 1;
        let value = match escaped {
            true => Cow::Owned(unescape_literal(raw).map_err(|at| {
                RdfError::parse(
                    self.line_at(start + at),
                    "invalid Unicode escape in literal",
                )
            })?),
            false => Cow::Borrowed(raw),
        };
        let (mut language, mut datatype) = (None, None);
        if self.eat('@') {
            let tag = self.take_while(|c| c.is_alphanumeric() || c == '-');
            if tag.is_empty() {
                return Err(self.err("empty language tag"));
            }
            language = Some(tag);
        } else if self.eat('^') {
            self.expect('^')?;
            datatype = Some(match self.peek() {
                Some('<') => Cow::Borrowed(self.iri_ref()?),
                _ => name(self)?,
            });
        }
        Ok(TermRef::Literal(LiteralRef {
            value,
            language,
            datatype,
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

    #[test]
    fn a_line_ends_at_its_first_newline_in_any_word_lane() {
        for len in 0..40 {
            let mut bytes = vec![b'x'; len];
            assert_eq!(line_len(&bytes), None, "no newline in {len}");
            for at in 0..len {
                bytes[at] = b'\n';
                // A second newline after the first, and bytes the borrow
                // of the word test could confuse with one (0x0b = '\n' + 1).
                if at + 1 < len {
                    bytes[at + 1] = 0x0b;
                }
                assert_eq!(line_len(&bytes), Some(at + 1), "newline at {at} of {len}");
                bytes[at] = 0x8a;
                if at + 1 < len {
                    bytes[at + 1] = b'\n';
                    assert_eq!(line_len(&bytes), Some(at + 2), "after 0x8a at {at}");
                }
                bytes[at] = b'x';
                if at + 1 < len {
                    bytes[at + 1] = b'x';
                }
            }
        }
    }

    #[test]
    fn blank_and_comment_lines_are_told_apart_like_str_trim() {
        let skipped: [&[u8]; 6] = [
            b"",
            b" \t\r\n",
            b"\x0b\n",
            b"# x\n",
            "\u{a0}# x".as_bytes(),
            "\u{2003}\n".as_bytes(),
        ];
        for line in skipped {
            assert!(is_blank_or_comment(line), "{line:?}");
        }
        let read: [&[u8]; 4] = [
            b"<a> <p> <o> .",
            b" _:b",
            b"# \xff\n",
            "\u{a0}<a>".as_bytes(),
        ];
        for line in read {
            assert!(!is_blank_or_comment(line), "{line:?}");
        }
    }
}
