//! N-Triples parsing.
//!
//! N-Triples is the line-oriented RDF exchange syntax: one triple per line,
//! terms written in full — exactly what a [`Triple`]'s `Display` prints, so
//! a document written that way must read back unchanged.
//!
//! Every reading mode shares one code path: [`NTriplesStreamer`] consumes
//! the input as byte chunks (a multi-GB feed is parsed with memory bounded
//! by one line plus one chunk) and lends each line's triple from its
//! buffer ([`NTriplesStreamer::drain`]); [`NTriplesStreamer::next_triple`]
//! copies the terms out of the same path, and the batch [`parse`] is a
//! thin wrapper that feeds the whole document through it. The terms of a
//! line are read by the lexer the Turtle reader uses too (`lex.rs`), so a
//! term means the same in both syntaxes.

use crate::error::Result;
use crate::lex::{is_blank_or_comment, line_len, ChunkBuffer, Lexer};
use crate::term::TermRef;
use crate::triple::{Triple, TripleRef};

/// Parse a complete N-Triples document into its triples, in document
/// order.
///
/// Thin wrapper over [`NTriplesStreamer`]: the whole input is fed as one
/// chunk and the emitted triples are collected.
pub fn parse(input: &str) -> Result<Vec<Triple>> {
    let mut streamer = NTriplesStreamer::new();
    streamer.feed(input.as_bytes());
    streamer.finish();
    std::iter::from_fn(|| streamer.next_triple()).collect()
}

/// An incremental N-Triples reader: push byte chunks in, pull [`Triple`]s out.
///
/// Chunks may split the input anywhere — mid-line, mid-token, even inside a
/// multi-byte UTF-8 sequence — because a line is only decoded once its
/// terminating `\n` (a byte that never occurs inside a UTF-8 continuation)
/// has arrived. Internal buffering is bounded by the longest input line plus
/// the last fed chunk; completed lines are released as soon as they are
/// emitted, so a feed of any size parses in O(line) memory.
///
/// ```
/// use classilink_rdf::NTriplesStreamer;
///
/// let mut streamer = NTriplesStreamer::new();
/// // Chunk boundaries need not align with lines (or even characters).
/// streamer.feed(b"<http://e.org/a> <http://e.org/p> \"v1\" .\n<http://e.org");
/// streamer.feed(b"/b> <http://e.org/p> \"v2\" .");
/// streamer.finish();
/// let mut n = 0;
/// while let Some(triple) = streamer.next_triple() {
///     triple.unwrap();
///     n += 1;
/// }
/// assert_eq!(n, 2);
/// ```
#[derive(Debug, Default)]
pub struct NTriplesStreamer {
    buf: ChunkBuffer,
    /// Pending bytes of `buf` already scanned for a newline (avoids rescans
    /// when a long line arrives across many chunks).
    scanned: usize,
    line_no: usize,
    failed: bool,
}

impl NTriplesStreamer {
    /// A streamer with no input yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a chunk of input bytes. Call [`next_triple`](Self::next_triple)
    /// between feeds to keep the internal buffer bounded.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.feed(chunk);
    }

    /// Signal end of input: a final line without a trailing newline becomes
    /// available to [`next_triple`](Self::next_triple).
    pub fn finish(&mut self) {
        self.buf.finished = true;
    }

    /// Bytes currently buffered (at most one incomplete line once drained).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.pending().len()
    }

    /// Hand every triple of the lines buffered so far to `visit`, its
    /// terms lent by the line (see [`TripleRef`]). Stops at the first
    /// error, which poisons the streamer: later drains hand out nothing.
    pub fn drain(&mut self, mut visit: impl FnMut(TripleRef<'_>)) -> Result<()> {
        while let Some(parsed) = self.next_triple_ref() {
            visit(parsed?);
        }
        Ok(())
    }

    /// Pull the next parsed triple: [`drain`](Self::drain)'s path, one
    /// triple at a time, its terms copied out.
    ///
    /// Returns `None` when every complete line fed so far has been consumed
    /// (feed more chunks, or [`finish`](Self::finish) to flush the tail).
    /// After the first `Err` the streamer is poisoned and yields `None`.
    pub fn next_triple(&mut self) -> Option<Result<Triple>> {
        let parsed = self.next_triple_ref()?;
        Some(parsed.map(TripleRef::into_owned))
    }

    /// The next line's triple, lent by the buffer. Blank and comment lines
    /// are skipped on the pending bytes, before the line is taken, so the
    /// one borrow handed out is the last thing the call does.
    fn next_triple_ref(&mut self) -> Option<Result<TripleRef<'_>>> {
        if self.failed {
            return None;
        }
        let line = loop {
            let pending = self.buf.pending();
            let line = match line_len(&pending[self.scanned..]) {
                Some(len) => self.scanned + len,
                None if self.buf.finished && !pending.is_empty() => pending.len(),
                None => {
                    self.scanned = pending.len();
                    return None;
                }
            };
            self.scanned = 0;
            self.line_no += 1;
            if !is_blank_or_comment(&pending[..line]) {
                break line;
            }
            self.buf.skip(line);
        };
        let line_no = self.line_no;
        let parsed = self
            .buf
            .take(line, line_no)
            .and_then(|line| parse_line(line.trim(), line_no));
        self.failed = parsed.is_err();
        Some(parsed)
    }
}

/// Parse a single N-Triples statement (without the trailing newline). A
/// comment may follow its `.`.
pub fn parse_line(line: &str, line_no: usize) -> Result<TripleRef<'_>> {
    fn term<'a>(lex: &mut Lexer<'a>) -> Result<TermRef<'a>> {
        lex.skip_whitespace();
        lex.term(&mut |lex| Err(lex.err("N-Triples writes every IRI in angle brackets")))
    }
    let mut lex = Lexer::new(line, line_no);
    let triple = TripleRef {
        subject: term(&mut lex)?,
        predicate: term(&mut lex)?,
        object: term(&mut lex)?,
    };
    lex.skip_whitespace();
    lex.expect('.')?;
    lex.skip_whitespace();
    if !lex.rest().is_empty() && !lex.rest().starts_with('#') {
        return Err(lex.err(format!("trailing content after '.': {}", lex.rest())));
    }
    Ok(triple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RdfError;
    use crate::term::Term;
    use crate::term::{escape_literal, unescape_literal};
    use proptest::prelude::*;

    #[test]
    fn parse_simple_document() {
        let doc = r#"
# a comment
<http://e.org/p1> <http://e.org/v#pn> "CRCW0805-10K" .
<http://e.org/p1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e.org/cls#Resistor> .

<http://e.org/p2> <http://e.org/v#label> "10 kΩ resistor"@en .
<http://e.org/p2> <http://e.org/v#value> "10000"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://e.org/v#note> "blank subject" .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn parse_literal_with_escapes() {
        let line = r#"<http://e.org/a> <http://e.org/p> "line1\nline2 \"quoted\"" ."#;
        let t = parse_line(line, 1).unwrap().into_owned();
        assert_eq!(t.object.value_str(), "line1\nline2 \"quoted\"");
    }

    #[test]
    fn parse_errors_are_reported_with_line() {
        let doc = "<http://e.org/a> <http://e.org/p> \"v\" .\nnot a triple";
        let err = parse(doc).unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn missing_dot_is_an_error() {
        assert!(parse_line("<http://a> <http://p> \"v\"", 1).is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_line("<http://a> <http://p> \"v\" . junk", 1).is_err());
        assert!(parse_line("<http://a> <http://p> \"v\" . . # x", 1).is_err());
    }

    #[test]
    fn a_comment_may_follow_the_dot() {
        let plain = parse_line("<http://a> <http://p> \"v\" .", 1).unwrap();
        for line in [
            "<http://a> <http://p> \"v\" . # note",
            "<http://a> <http://p> \"v\" .# note \"with a quote.",
            "<http://a> <http://p> \"v\"\t.\t#",
        ] {
            assert_eq!(parse_line(line, 1), Ok(plain.clone()), "{line}");
        }
    }

    #[test]
    fn a_malformed_unicode_escape_is_an_error_at_its_line() {
        for literal in [
            r#""\uZZZZx""#,
            r#""\u12""#,
            r#""\uDC00""#,
            r#""\U00110000""#,
        ] {
            let doc = format!("<http://a> <http://p> \"v\" .\n<http://a> <http://p> {literal} .\n");
            match parse(&doc) {
                Err(RdfError::Parse { line: 2, .. }) => {}
                other => panic!("{literal}: {other:?}"),
            }
        }
        let t = parse_line(r#"<http://a> <http://p> "\U0001F600\b\f\'" ."#, 1).unwrap();
        assert_eq!(t.into_owned().object.value_str(), "😀\u{8}\u{c}'");
    }

    #[test]
    fn unterminated_iri_and_literal() {
        assert!(parse_line("<http://a <http://p> \"v\" .", 1).is_err());
        assert!(parse_line("<http://a> <http://p> \"v .", 1).is_err());
        assert!(parse_line("<http://a> <http://p> \"v\"@ .", 1).is_err());
        assert!(parse_line("<> <http://p> \"v\" .", 1).is_err());
        assert!(parse_line("_: <http://p> \"v\" .", 1).is_err());
    }

    #[test]
    fn a_dot_ends_a_blank_node_label() {
        let t = parse_line("<http://e.org/s> <http://e.org/p> _:b2.", 1).unwrap();
        assert_eq!(t.object, Term::blank("b2"));
    }

    #[test]
    fn display_then_parse_roundtrip() {
        let triples = vec![
            Triple::literal("http://e.org/a", "http://e.org/p", "plain"),
            Triple::new(
                Term::iri("http://e.org/a"),
                Term::iri("http://e.org/q"),
                crate::term::Literal::lang("étiquette", "fr").into(),
            ),
            Triple::new(
                Term::iri("http://e.org/a"),
                Term::iri("http://e.org/r"),
                crate::term::Literal::typed("3.5", crate::namespace::vocab::XSD_DECIMAL).into(),
            ),
            Triple::new(
                Term::blank("b1"),
                Term::iri("http://e.org/p"),
                Term::literal("with \"quotes\" and \\slashes\\"),
            ),
        ];
        let doc: String = triples.iter().map(|t| format!("{t}\n")).collect();
        assert_eq!(parse(&doc).unwrap(), triples);
    }

    #[test]
    fn empty_document_has_no_triples() {
        assert_eq!(parse("").unwrap().len(), 0);
    }

    #[test]
    fn streamer_handles_mid_utf8_chunk_splits() {
        let doc = "<http://e.org/a> <http://e.org/p> \"10 kΩ – résistance\" .\n\
                   <http://e.org/b> <http://e.org/p> \"élément\"@fr .\n";
        let bytes = doc.as_bytes();
        // Split inside the multi-byte 'Ω' and inside 'é'.
        for split in 1..bytes.len() {
            let mut streamer = NTriplesStreamer::new();
            streamer.feed(&bytes[..split]);
            streamer.feed(&bytes[split..]);
            streamer.finish();
            let mut triples = Vec::new();
            while let Some(t) = streamer.next_triple() {
                triples.push(t.unwrap());
            }
            assert_eq!(triples.len(), 2, "split at byte {split}");
            assert_eq!(triples[0].object.value_str(), "10 kΩ – résistance");
        }
    }

    #[test]
    fn streamer_buffer_stays_bounded_when_drained() {
        let short = "<http://e.org/a> <http://e.org/p> \"v\" .\n";
        let long = "<http://e.org/a> <http://e.org/p> \"a longer value, 10 kΩ\"@en .\n";
        let doc = [short, long].repeat(500).concat();
        // The two streamers share no trait; a Turtle statement starts with
        // the newline that ended the line before it, so it is as long.
        macro_rules! assert_bounded {
            ($new:expr) => {
                for size in [1, 7, 4096] {
                    let mut streamer = $new;
                    let mut emitted = 0;
                    for chunk in doc.as_bytes().chunks(size) {
                        streamer.feed(chunk);
                        while let Some(t) = streamer.next_triple() {
                            t.unwrap();
                            emitted += 1;
                        }
                        assert!(
                            streamer.buffered_bytes() < long.len() + 1,
                            "chunks of {size}: buffer grew past one statement: {}",
                            streamer.buffered_bytes()
                        );
                    }
                    streamer.finish();
                    assert!(streamer.next_triple().is_none());
                    assert_eq!(emitted, 1000);
                }
            };
        }
        assert_bounded!(NTriplesStreamer::new());
        assert_bounded!(crate::turtle::TurtleStreamer::new());
    }

    #[test]
    fn streamer_reports_errors_with_global_line_numbers_and_poisons() {
        let mut streamer = NTriplesStreamer::new();
        streamer.feed(b"<http://e.org/a> <http://e.org/p> \"v\" .\n");
        streamer.feed(b"not a triple\n<http://e.org/b> <http://e.org/p> \"w\" .\n");
        streamer.finish();
        assert!(streamer.next_triple().unwrap().is_ok());
        match streamer.next_triple().unwrap().unwrap_err() {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
        // Poisoned after the first error, like batch parse aborting.
        assert!(streamer.next_triple().is_none());
    }

    proptest! {
        /// Any plain-literal triple with printable content must round-trip
        /// through `Display` → parse unchanged.
        #[test]
        fn prop_literal_roundtrip(value in "[ -~]{0,40}", local in "[a-zA-Z][a-zA-Z0-9]{0,10}") {
            let t = Triple::new(
                Term::iri(format!("http://e.org/{local}")),
                Term::iri("http://e.org/p"),
                Term::literal(value.clone()),
            );
            let line = t.to_string();
            let back = parse_line(&line, 1).unwrap().into_owned();
            prop_assert_eq!(back, t);
        }

        /// Escaping never loses information for arbitrary unicode strings.
        #[test]
        fn prop_escape_roundtrip(value in "\\PC{0,60}") {
            let escaped = escape_literal(&value);
            let back = unescape_literal(&escaped);
            prop_assert_eq!(back, Ok(value));
        }
    }
}
