//! RDF terms: IRIs, blank nodes and literals.
//!
//! Terms are the building blocks of triples, in two forms. A [`Term`]
//! owns its strings: it is what a stored record id or a batch-parsed
//! [`Triple`](crate::Triple) holds. A [`TermRef`] lends them from the
//! statement text a reader is looking at; only an unescaped literal or an
//! expanded Turtle prefixed name owns its string (a [`Cow`]). The readers
//! lex into `TermRef`s, and whoever stores a term (the record stores of
//! `classilink-linking`) copies what it keeps, once.

use std::borrow::Cow;
use std::fmt;

/// A literal value: lexical form plus optional datatype IRI or language tag.
///
/// Following RDF 1.1, a literal has exactly one of:
/// * a plain string value (implicitly `xsd:string`),
/// * a language-tagged string value,
/// * a typed value with an explicit datatype IRI.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form of the literal.
    pub value: String,
    /// Optional language tag (mutually exclusive with `datatype`).
    pub language: Option<String>,
    /// Optional datatype IRI (mutually exclusive with `language`).
    pub datatype: Option<String>,
}

impl Literal {
    /// A plain (untyped, untagged) string literal.
    pub fn plain(value: impl Into<String>) -> Self {
        Literal {
            value: value.into(),
            language: None,
            datatype: None,
        }
    }

    /// A language-tagged string literal, e.g. `"Widerstand"@de`.
    pub fn lang(value: impl Into<String>, language: impl Into<String>) -> Self {
        Literal {
            value: value.into(),
            language: Some(language.into()),
            datatype: None,
        }
    }

    /// A typed literal, e.g. `"42"^^xsd:integer`.
    pub fn typed(value: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal {
            value: value.into(),
            language: None,
            datatype: Some(datatype.into()),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.value))?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^<{dt}>")?;
        }
        Ok(())
    }
}

/// Escape a literal's lexical form for N-Triples/Turtle output.
pub fn escape_literal(s: &str) -> Cow<'_, str> {
    if !s
        .chars()
        .any(|c| matches!(c, '"' | '\\' | '\n' | '\r' | '\t'))
    {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

/// Unescape a literal's lexical form read from N-Triples/Turtle input:
/// `\t \b \n \r \f \" \' \\`, `\uXXXX` and `\UXXXXXXXX`. Any other
/// escaped character is kept as written, backslash included.
///
/// A `\u` or `\U` without all its hex digits, or naming a surrogate or a
/// code point past U+10FFFF, is malformed: `Err` carries the byte offset
/// in `s` of its backslash.
pub fn unescape_literal(s: &str) -> std::result::Result<String, usize> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let escape = &rest[at + 1..];
        let (decoded, len) = match escape.chars().next() {
            Some('t') => ('\t', 1),
            Some('b') => ('\u{8}', 1),
            Some('n') => ('\n', 1),
            Some('r') => ('\r', 1),
            Some('f') => ('\u{c}', 1),
            Some(c @ ('"' | '\'' | '\\')) => (c, 1),
            Some(u @ ('u' | 'U')) => {
                let digits = if u == 'u' { 4 } else { 8 };
                let hex = escape
                    .get(1..=digits)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()));
                let code = hex.and_then(|hex| u32::from_str_radix(hex, 16).ok());
                match code.and_then(char::from_u32) {
                    Some(c) => (c, 1 + digits),
                    None => return Err(s.len() - rest.len() + at),
                }
            }
            Some(other) => {
                out.push('\\');
                (other, other.len_utf8())
            }
            None => ('\\', 0),
        };
        out.push(decoded);
        rest = &escape[len..];
    }
    out.push_str(rest);
    Ok(out)
}

/// An RDF term: IRI, blank node or literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without surrounding angle brackets.
    Iri(String),
    /// A blank node, stored without the leading `_:`.
    Blank(String),
    /// A literal value.
    Literal(Literal),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(iri: impl Into<String>) -> Self {
        Term::Iri(iri.into())
    }

    /// Construct a blank-node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(label.into())
    }

    /// Construct a plain literal term.
    pub fn literal(value: impl Into<String>) -> Self {
        Term::Literal(Literal::plain(value))
    }

    /// The IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The lexical form if this term is a literal.
    pub(crate) fn literal_value(&self) -> Option<&str> {
        match self {
            Term::Literal(l) => Some(&l.value),
            _ => None,
        }
    }

    /// The lexical value for literals, the IRI for IRIs, the label for blanks.
    pub fn value_str(&self) -> &str {
        match self {
            Term::Iri(s) => s,
            Term::Blank(s) => s,
            Term::Literal(l) => &l.value,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::Blank(label) => write!(f, "_:{label}"),
            Term::Literal(lit) => write!(f, "{lit}"),
        }
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

/// A literal whose strings are lent by the text it was read from (see
/// [`TermRef`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralRef<'a> {
    /// The lexical form: owned only when it held an escape.
    pub value: Cow<'a, str>,
    /// Optional language tag (mutually exclusive with `datatype`).
    pub language: Option<&'a str>,
    /// Optional datatype IRI: owned only when written as a Turtle
    /// prefixed name.
    pub datatype: Option<Cow<'a, str>>,
}

/// A [`Term`] whose strings are lent by the statement text it was read
/// from: what the readers lex, and what a
/// [`TripleRef`](crate::TripleRef) holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermRef<'a> {
    /// An IRI, without angle brackets: owned only when expanded from a
    /// Turtle prefixed name.
    Iri(Cow<'a, str>),
    /// A blank node label, without the leading `_:`.
    Blank(&'a str),
    /// A literal value.
    Literal(LiteralRef<'a>),
}

impl TermRef<'_> {
    /// The owned term: copies what is lent, moves what is owned.
    pub fn into_owned(self) -> Term {
        match self {
            TermRef::Iri(iri) => Term::Iri(iri.into_owned()),
            TermRef::Blank(label) => Term::Blank(label.to_string()),
            TermRef::Literal(literal) => Term::Literal(Literal {
                value: literal.value.into_owned(),
                language: literal.language.map(str::to_string),
                datatype: literal.datatype.map(Cow::into_owned),
            }),
        }
    }

    /// The same term, lending what this one owns (no copy).
    pub fn reborrow(&self) -> TermRef<'_> {
        match self {
            TermRef::Iri(iri) => TermRef::Iri(Cow::Borrowed(iri)),
            TermRef::Blank(label) => TermRef::Blank(label),
            TermRef::Literal(literal) => TermRef::Literal(LiteralRef {
                value: Cow::Borrowed(&literal.value),
                language: literal.language,
                datatype: literal.datatype.as_deref().map(Cow::Borrowed),
            }),
        }
    }

    /// The IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            TermRef::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The lexical form if this term is a literal.
    pub(crate) fn literal_value(&self) -> Option<&str> {
        match self {
            TermRef::Literal(literal) => Some(&literal.value),
            _ => None,
        }
    }
}

/// Equal when [`into_owned`](TermRef::into_owned) would give `other`,
/// compared in place.
impl PartialEq<Term> for TermRef<'_> {
    fn eq(&self, other: &Term) -> bool {
        match (self, other) {
            (TermRef::Iri(a), Term::Iri(b)) => a == b,
            (TermRef::Blank(a), Term::Blank(b)) => a == b,
            (TermRef::Literal(a), Term::Literal(b)) => {
                a.value == b.value
                    && a.language == b.language.as_deref()
                    && a.datatype.as_deref() == b.datatype.as_deref()
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_literal_display() {
        let l = Literal::plain("ohm");
        assert_eq!(l.to_string(), "\"ohm\"");
    }

    #[test]
    fn lang_literal_display() {
        let l = Literal::lang("resistance", "en");
        assert_eq!(l.to_string(), "\"resistance\"@en");
    }

    #[test]
    fn typed_literal_display() {
        let l = Literal::typed("42", "http://www.w3.org/2001/XMLSchema#integer");
        assert_eq!(
            l.to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn escape_and_unescape_roundtrip() {
        let original = "a \"quoted\"\nvalue with \\ and\ttab";
        let escaped = escape_literal(original);
        assert!(!escaped.contains('\n'));
        let back = unescape_literal(&escaped);
        assert_eq!(back.as_deref(), Ok(original));
    }

    #[test]
    fn escape_borrows_when_clean() {
        match escape_literal("nothing special") {
            Cow::Borrowed(_) => {}
            Cow::Owned(_) => panic!("expected borrowed"),
        }
    }

    #[test]
    fn unescape_unicode_escape() {
        assert_eq!(unescape_literal("caf\\u00e9").as_deref(), Ok("café"));
        assert_eq!(unescape_literal("\\U0001F600!").as_deref(), Ok("😀!"));
    }

    #[test]
    fn every_escape_of_the_grammar_decodes() {
        let decoded = unescape_literal(r#"\t\b\n\r\f\"\'\\"#);
        assert_eq!(decoded.as_deref(), Ok("\t\u{8}\n\r\u{c}\"'\\"));
    }

    #[test]
    fn unescape_keeps_what_the_grammar_does_not_name() {
        assert_eq!(unescape_literal("x\\").as_deref(), Ok("x\\"));
        assert_eq!(unescape_literal("\\x\\Ω").as_deref(), Ok("\\x\\Ω"));
    }

    #[test]
    fn a_malformed_unicode_escape_is_refused_where_it_starts() {
        for (escaped, at) in [
            ("ab\\uZZZZx", 2),
            ("\\u12", 0),
            ("é\\u+123", 2),
            ("\\uD800", 0),
            ("\\U00110000", 0),
            ("\\U0041", 0),
            ("\\n\\u00é9", 2),
        ] {
            assert_eq!(unescape_literal(escaped), Err(at), "{escaped}");
        }
    }

    #[test]
    fn a_term_ref_equals_the_term_it_owns_into() {
        let lent = [
            TermRef::Iri(Cow::Borrowed("http://e.org/a")),
            TermRef::Blank("b0"),
            TermRef::Literal(LiteralRef {
                value: Cow::Owned("v".to_string()),
                language: Some("en"),
                datatype: None,
            }),
            TermRef::Literal(LiteralRef {
                value: Cow::Borrowed("42"),
                language: None,
                datatype: Some(Cow::Borrowed("http://e.org/int")),
            }),
        ];
        for (i, a) in lent.iter().enumerate() {
            assert_eq!(a.reborrow(), *a);
            for (j, b) in lent.iter().enumerate() {
                assert_eq!(*a == b.clone().into_owned(), i == j, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn term_constructors() {
        let iri = Term::iri("http://example.org/a");
        let blank = Term::blank("b0");
        let lit = Term::literal("v");
        assert_eq!(iri.as_iri(), Some("http://example.org/a"));
        assert_eq!(blank, Term::Blank("b0".to_string()));
        assert_eq!(blank.as_iri(), None);
        assert_eq!(lit, Term::Literal(Literal::plain("v")));
    }

    #[test]
    fn term_display_forms() {
        assert_eq!(Term::iri("http://e.org/x").to_string(), "<http://e.org/x>");
        assert_eq!(Term::blank("n1").to_string(), "_:n1");
        assert_eq!(Term::literal("v").to_string(), "\"v\"");
    }

    #[test]
    fn value_str_for_each_variant() {
        assert_eq!(Term::iri("http://e.org/x").value_str(), "http://e.org/x");
        assert_eq!(Term::blank("b").value_str(), "b");
        assert_eq!(Term::literal("63V").value_str(), "63V");
    }

    #[test]
    fn term_ordering_is_total() {
        let mut terms = vec![
            Term::literal("b"),
            Term::iri("http://a"),
            Term::blank("z"),
            Term::literal("a"),
        ];
        terms.sort();
        // Sorting must not panic and must be stable w.r.t. equality.
        let mut again = terms.clone();
        again.sort();
        assert_eq!(terms, again);
    }
}
