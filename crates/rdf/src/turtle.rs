//! A pragmatic Turtle subset: enough to read the catalogs and provider
//! documents used by the workspace.
//!
//! Supported syntax:
//!
//! * `@prefix p: <iri> .` directives,
//! * full IRIs `<...>`, prefixed names `p:local`, the `a` keyword,
//! * blank node labels `_:b0`,
//! * plain, language-tagged and typed string literals (single-line),
//! * predicate lists with `;` and object lists with `,`.
//!
//! Not supported (not needed by the workspace): multi-line literals, nested
//! blank node property lists `[...]`, RDF collections `(...)`, numeric or
//! boolean literal shorthand, `@base`.
//!
//! Every reading mode shares one code path, as in [`crate::ntriples`]:
//! [`TurtleStreamer::drain`] lends each statement's triples to a visitor
//! as they are read, [`TurtleStreamer::next_triple`] copies them out of the
//! same path, and the batch [`parse`] feeds the whole document through it.
//! IRI refs, blank nodes and literals are read by the lexer the N-Triples
//! reader uses too (`lex.rs`); this module adds what only Turtle has.

use std::borrow::Cow;
use std::collections::VecDeque;

use crate::error::{RdfError, Result};
use crate::lex::{ChunkBuffer, Lexer};
use crate::namespace::Namespaces;
use crate::term::TermRef;
use crate::triple::{Triple, TripleRef};

/// Parse a Turtle document (subset, see module docs) into its triples, in
/// document order, and its prefix declarations.
///
/// Thin wrapper over [`TurtleStreamer`]: the whole input is fed as one chunk
/// and the emitted triples are collected.
pub fn parse(input: &str) -> Result<(Vec<Triple>, Namespaces)> {
    let mut streamer = TurtleStreamer::new();
    streamer.feed(input.as_bytes());
    streamer.finish();
    let triples = std::iter::from_fn(|| streamer.next_triple()).collect::<Result<_>>()?;
    Ok((triples, streamer.into_namespaces()))
}

/// An incremental Turtle reader: push byte chunks in, pull [`Triple`]s out.
///
/// Chunks may split the input anywhere, including inside a multi-byte UTF-8
/// sequence. A byte-level scanner tracks just enough syntax (IRI refs,
/// string literals with escapes, comments) to recognise the statement
/// terminator `.`; each complete statement is then parsed on its own, with
/// the `@prefix` declarations of the statements before it. Every
/// boundary-relevant byte (`<>"\\#.\n`) is ASCII and so never occurs inside a
/// UTF-8 continuation, which is what makes byte-wise boundary scanning safe.
/// Internal buffering is bounded by the longest single statement plus the
/// last fed chunk.
///
/// ```
/// use classilink_rdf::TurtleStreamer;
///
/// let mut streamer = TurtleStreamer::new();
/// streamer.feed(b"@prefix ex: <http://e.org/v#> .\n");
/// streamer.feed(b"<http://e.org/p1> ex:partNumber \"CRCW0805\" ; ex:mfr \"Vi");
/// streamer.feed(b"shay\" .");
/// streamer.finish();
/// let mut n = 0;
/// while let Some(triple) = streamer.next_triple() {
///     triple.unwrap();
///     n += 1;
/// }
/// assert_eq!(n, 2);
/// ```
#[derive(Debug, Default)]
pub struct TurtleStreamer {
    buf: ChunkBuffer,
    /// Pending bytes of `buf` already examined by the boundary scanner.
    scanned: usize,
    scan: Scan,
    /// 1-based line of the first unconsumed byte (for error reporting).
    line: usize,
    namespaces: Namespaces,
    /// What `next_triple` has copied out of a statement and not yet
    /// returned.
    pending: VecDeque<Triple>,
    failed: bool,
}

/// Boundary-scanner state: which syntactic region the scan head is inside.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Scan {
    #[default]
    Default,
    Iri,
    Literal,
    Escape,
    Comment,
}

impl TurtleStreamer {
    /// A streamer with no input yet.
    pub fn new() -> Self {
        Self {
            line: 1,
            ..Self::default()
        }
    }

    /// Append a chunk of input bytes. Call [`next_triple`](Self::next_triple)
    /// between feeds to keep the internal buffer bounded.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.feed(chunk);
    }

    /// Signal end of input: the final statement (terminated or not) becomes
    /// available to [`next_triple`](Self::next_triple).
    pub fn finish(&mut self) {
        self.buf.finished = true;
    }

    /// Bytes currently buffered (at most one incomplete statement once
    /// drained).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.pending().len()
    }

    /// Consume the streamer, yielding the accumulated prefix table.
    pub fn into_namespaces(self) -> Namespaces {
        self.namespaces
    }

    /// Hand every triple of the statements buffered so far to `visit`,
    /// its terms lent by the statement text (see [`TripleRef`]). Stops at
    /// the first error, which poisons the streamer: later drains hand out
    /// nothing. The triples of the failed statement read before its error
    /// have been handed out.
    pub fn drain(&mut self, mut visit: impl FnMut(TripleRef<'_>)) -> Result<()> {
        while let Some(parsed) = self.next_statement_with(&mut visit) {
            parsed?;
        }
        Ok(())
    }

    /// Pull the next parsed triple: [`drain`](Self::drain)'s path, one
    /// statement at a time, its triples copied out and queued. Nothing of
    /// a statement that fails is emitted.
    ///
    /// Returns `None` when every complete statement fed so far has been
    /// consumed (feed more chunks, or [`finish`](Self::finish) to flush the
    /// tail). After the first `Err` the streamer is poisoned and yields
    /// `None`.
    pub fn next_triple(&mut self) -> Option<Result<Triple>> {
        loop {
            if let Some(triple) = self.pending.pop_front() {
                return Some(Ok(triple));
            }
            let mut pending = std::mem::take(&mut self.pending);
            let parsed = self.next_statement_with(&mut |t| pending.push_back(t.into_owned()));
            self.pending = pending;
            if let Err(error) = parsed? {
                self.pending.clear();
                return Some(Err(error));
            }
        }
    }

    /// Parse the next complete statement, handing its triples to `visit`
    /// as they are read; `None` when no complete statement is buffered or
    /// the streamer is poisoned.
    fn next_statement_with(&mut self, visit: &mut impl FnMut(TripleRef<'_>)) -> Option<Result<()>> {
        if self.failed {
            return None;
        }
        let statement = self.next_statement()?;
        self.scanned = 0;
        let parsed = self.buf.take(statement, self.line).and_then(|text| {
            let parser = Parser {
                lex: Lexer::new(text, self.line),
                namespaces: &mut self.namespaces,
            };
            parser.parse_single(visit)
        });
        Some(match parsed {
            Ok(line) => {
                self.line = line;
                Ok(())
            }
            Err(error) => {
                self.failed = true;
                Err(error)
            }
        })
    }

    /// Length of the next statement, if all of it is buffered. It ends
    /// with a `.` in default state whose following byte is whitespace or a
    /// comment; a trailing `.` stays unscanned until the byte after it
    /// arrives. At the end of input it is whatever is left: whitespace and
    /// comments parse to nothing, a truncated statement reports the same
    /// "unexpected end of input" the batch path would.
    fn next_statement(&mut self) -> Option<usize> {
        let buf = self.buf.pending();
        while self.scanned < buf.len() {
            let byte = buf[self.scanned];
            self.scan = match self.scan {
                Scan::Default => match byte {
                    b'<' => Scan::Iri,
                    b'"' => Scan::Literal,
                    b'#' => Scan::Comment,
                    b'.' => match buf.get(self.scanned + 1) {
                        Some(next) if next.is_ascii_whitespace() || *next == b'#' => {
                            return Some(self.scanned + 1);
                        }
                        None => break,
                        // Part of a prefixed name (`ex:a.b`): not a terminator.
                        Some(_) => Scan::Default,
                    },
                    _ => Scan::Default,
                },
                Scan::Iri => {
                    if byte == b'>' {
                        Scan::Default
                    } else {
                        Scan::Iri
                    }
                }
                Scan::Literal => match byte {
                    b'\\' => Scan::Escape,
                    b'"' => Scan::Default,
                    _ => Scan::Literal,
                },
                Scan::Escape => Scan::Literal,
                Scan::Comment => {
                    if byte == b'\n' {
                        Scan::Default
                    } else {
                        Scan::Comment
                    }
                }
            };
            self.scanned += 1;
        }
        (self.buf.finished && !buf.is_empty()).then_some(buf.len())
    }
}

/// Parses one directive or triple statement: what Turtle adds to the shared
/// terminals, read into the streamer's prefix table and handed triple by
/// triple to a visitor.
struct Parser<'a, 'n> {
    lex: Lexer<'a>,
    namespaces: &'n mut Namespaces,
}

impl<'a> Parser<'a, '_> {
    /// Parse at most one statement (or `@prefix` directive) and require the
    /// input to hold nothing else. Whitespace/comment-only input is fine.
    /// Returns the line the input ends on.
    fn parse_single(mut self, visit: &mut impl FnMut(TripleRef<'_>)) -> Result<usize> {
        self.skip_ws_and_comments();
        if !self.lex.rest().is_empty() {
            if self.keyword("@prefix") {
                self.parse_prefix()?;
            } else {
                self.parse_statement(visit)?;
            }
            self.skip_ws_and_comments();
            if !self.lex.rest().is_empty() {
                return Err(self.lex.err("trailing content after '.'"));
            }
        }
        Ok(self.lex.line())
    }

    fn skip_ws_and_comments(&mut self) {
        self.lex.skip_whitespace();
        while self.lex.eat('#') {
            self.lex.take_while(|c| c != '\n');
            self.lex.skip_whitespace();
        }
    }

    /// Consume `word` if it stands at the cursor as a word of its own:
    /// followed by whitespace or the end of input.
    fn keyword(&mut self, word: &str) -> bool {
        let found = (self.lex.rest().strip_prefix(word))
            .is_some_and(|after| after.chars().next().is_none_or(char::is_whitespace));
        if found {
            self.lex.take_while(|c| !c.is_whitespace());
        }
        found
    }

    fn parse_prefix(&mut self) -> Result<()> {
        self.skip_ws_and_comments();
        let prefix = self.lex.take_while(|c| c != ':' && !c.is_whitespace());
        self.lex.expect(':')?;
        self.skip_ws_and_comments();
        let iri = self.lex.iri_ref()?;
        self.skip_ws_and_comments();
        self.lex.expect('.')?;
        self.namespaces.declare(prefix, iri);
        Ok(())
    }

    /// The subject and each predicate are read once; every triple of the
    /// statement lends them to the visitor.
    fn parse_statement(&mut self, visit: &mut impl FnMut(TripleRef<'_>)) -> Result<()> {
        let subject = self.parse_term()?;
        loop {
            self.skip_ws_and_comments();
            // `a` is only the rdf:type keyword as a word of its own.
            let predicate = if self.keyword("a") {
                TermRef::Iri(Cow::Borrowed(crate::namespace::vocab::RDF_TYPE))
            } else {
                self.parse_term()?
            };
            loop {
                self.skip_ws_and_comments();
                let object = self.parse_term()?;
                visit(TripleRef {
                    subject: subject.reborrow(),
                    predicate: predicate.reborrow(),
                    object,
                });
                self.skip_ws_and_comments();
                if !self.lex.eat(',') {
                    break;
                }
            }
            let listed = self.lex.eat(';');
            if listed {
                self.skip_ws_and_comments();
            }
            // A dangling ';' directly before '.' is tolerated.
            if self.lex.eat('.') {
                return Ok(());
            }
            if !listed {
                return Err(match self.lex.peek() {
                    Some(c) => self.lex.err(format!("expected ';' or '.', found '{c}'")),
                    None => self.lex.err("unexpected end of input inside statement"),
                });
            }
        }
    }

    fn parse_term(&mut self) -> Result<TermRef<'a>> {
        let namespaces = &*self.namespaces;
        self.lex.term(&mut |lex| prefixed_name(lex, namespaces))
    }
}

/// `prefix:local`, expanded through `namespaces` into the one string a
/// prefixed name costs.
fn prefixed_name<'a>(lex: &mut Lexer<'a>, namespaces: &Namespaces) -> Result<Cow<'a, str>> {
    let name = lex.take_while(|c| c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.'));
    // A trailing '.' belongs to the statement terminator, not the name.
    let trimmed = name.trim_end_matches('.');
    lex.back_up(name.len() - trimmed.len());
    let (prefix, local) = trimmed
        .split_once(':')
        .ok_or_else(|| lex.err(format!("expected prefixed name, found '{trimmed}'")))?;
    match namespaces.get(prefix) {
        Some(ns) => Ok(Cow::Owned([ns, local].concat())),
        None => Err(RdfError::UnknownPrefix(prefix.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::vocab;
    use crate::term::{Literal, Term};

    const DOC: &str = r#"
@prefix ex: <http://example.org/vocab#> .
@prefix cls: <http://example.org/classes#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

# A fixed film resistor from the catalog
<http://example.org/prod/1>
    a cls:FixedFilmResistor ;
    ex:partNumber "CRCW0805-10K-5%-63V" ;
    ex:manufacturer "Vishay" , "Vishay Intertechnology" ;
    ex:resistance "10000"^^xsd:integer ;
    ex:label "10 k resistor"@en .

<http://example.org/prod/2> a cls:TantalumCapacitor ; ex:partNumber "T83A225K" .
"#;

    /// The triples of `g` with the given subject and predicate IRIs.
    fn matching<'a>(g: &'a [Triple], subject: &str, predicate: &str) -> Vec<&'a Triple> {
        let (subject, predicate) = (Term::iri(subject), Term::iri(predicate));
        let bound = |t: &&Triple| t.subject == subject && t.predicate == predicate;
        g.iter().filter(bound).collect()
    }

    #[test]
    fn parse_full_document() {
        let (g, ns) = parse(DOC).unwrap();
        let mut declared = Namespaces::new();
        declared.declare("ex", "http://example.org/vocab#");
        declared.declare("cls", "http://example.org/classes#");
        declared.declare("xsd", "http://www.w3.org/2001/XMLSchema#");
        assert_eq!(ns, declared);
        // 6 triples for prod/1 (two manufacturers) + 2 for prod/2
        assert_eq!(g.len(), 8);
        let type_triples = matching(&g, "http://example.org/prod/1", vocab::RDF_TYPE);
        assert_eq!(type_triples.len(), 1);
        assert_eq!(
            type_triples[0].object.as_iri(),
            Some("http://example.org/classes#FixedFilmResistor")
        );
    }

    #[test]
    fn typed_and_lang_literals_parse() {
        let (g, _) = parse(DOC).unwrap();
        let object = |property: &str| {
            let property = format!("http://example.org/vocab#{property}");
            matching(&g, "http://example.org/prod/1", &property)[0]
                .object
                .clone()
        };
        assert_eq!(
            object("resistance"),
            Term::Literal(Literal::typed("10000", vocab::XSD_INTEGER))
        );
        assert_eq!(
            object("label"),
            Term::Literal(Literal::lang("10 k resistor", "en"))
        );
    }

    #[test]
    fn object_lists_expand() {
        let (g, _) = parse(DOC).unwrap();
        let mfrs = matching(
            &g,
            "http://example.org/prod/1",
            "http://example.org/vocab#manufacturer",
        );
        assert_eq!(mfrs.len(), 2);
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let doc = "<http://a.org/x> nope:pred \"v\" .";
        assert!(matches!(parse(doc), Err(RdfError::UnknownPrefix(_))));
    }

    #[test]
    fn prefix_keyword_needs_whitespace_after_it() {
        let doc = "@prefixex: <http://e.org/v#> .\n<http://e.org/a> ex:p \"v\" .";
        assert!(matches!(parse(doc), Err(RdfError::Parse { line: 1, .. })));
    }

    #[test]
    fn missing_terminator_is_an_error() {
        let doc = "@prefix ex: <http://e.org/> .\nex:a ex:b \"v\"";
        assert!(parse(doc).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let doc = "# only a comment\n\n   # another\n";
        let (g, ns) = parse(doc).unwrap();
        assert!(g.is_empty());
        assert_eq!(ns, Namespaces::new());
    }

    #[test]
    fn dangling_semicolon_before_dot_is_tolerated() {
        let doc = "@prefix ex: <http://e.org/> .\nex:a ex:p \"v\" ;\n.";
        let (g, _) = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn blank_node_subjects_parse() {
        let doc = "@prefix ex: <http://e.org/> .\n_:b0 ex:p \"v\" .";
        let (g, _) = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
        assert!(matches!(g[0].subject, Term::Blank(_)));
    }

    #[test]
    fn streamed_parse_matches_batch_at_every_byte_split() {
        let bytes = DOC.as_bytes();
        let (batch, batch_ns) = parse(DOC).unwrap();
        for split in 0..=bytes.len() {
            let mut streamer = TurtleStreamer::new();
            streamer.feed(&bytes[..split]);
            streamer.feed(&bytes[split..]);
            streamer.finish();
            let triples: Vec<Triple> = std::iter::from_fn(|| streamer.next_triple())
                .map(Result::unwrap)
                .collect();
            assert_eq!(triples, batch, "split at byte {split}");
            assert_eq!(
                streamer.into_namespaces(),
                batch_ns,
                "split at byte {split}"
            );
        }
    }

    #[test]
    fn streamer_drains_statements_as_they_complete() {
        let mut streamer = TurtleStreamer::new();
        streamer.feed(b"@prefix ex: <http://e.org/> .\n");
        // The directive is consumable before any triple statement arrives.
        assert!(streamer.next_triple().is_none());
        assert!(streamer.buffered_bytes() < 2);
        streamer.feed(b"ex:a ex:p \"v1\" , \"v2\" . ex:b");
        assert_eq!(
            streamer.next_triple().unwrap().unwrap().object.value_str(),
            "v1"
        );
        assert_eq!(
            streamer.next_triple().unwrap().unwrap().object.value_str(),
            "v2"
        );
        // "ex:b" is an incomplete statement: buffered, not yet emitted.
        assert!(streamer.next_triple().is_none());
        streamer.feed(b" ex:p \"v3\" .");
        streamer.finish();
        assert_eq!(
            streamer.next_triple().unwrap().unwrap().object.value_str(),
            "v3"
        );
        assert!(streamer.next_triple().is_none());
    }

    #[test]
    fn streamer_dot_inside_literal_iri_and_comment_is_not_a_boundary() {
        let doc = "@prefix ex: <http://e.org/x.y/> . # dot. in comment.\n\
                   <http://e.org/a.b> ex:p \"v. 1.5\" .";
        let mut streamer = TurtleStreamer::new();
        streamer.feed(doc.as_bytes());
        streamer.finish();
        let t = streamer.next_triple().unwrap().unwrap();
        assert_eq!(t.subject.as_iri(), Some("http://e.org/a.b"));
        assert_eq!(t.predicate.as_iri(), Some("http://e.org/x.y/p"));
        assert_eq!(t.object.value_str(), "v. 1.5");
        assert!(streamer.next_triple().is_none());
    }

    #[test]
    fn streamer_unterminated_tail_is_an_error_after_finish() {
        let mut streamer = TurtleStreamer::new();
        streamer.feed(b"@prefix ex: <http://e.org/> .\nex:a ex:p \"v\"");
        streamer.finish();
        assert!(streamer.next_triple().unwrap().is_err());
        assert!(streamer.next_triple().is_none());
    }
}
