//! RDF terms: IRIs, blank nodes and literals.
//!
//! Terms are the building blocks of triples. The representation here is
//! deliberately simple (owned `String`s): a reader hands each triple on as
//! it is parsed, and whoever stores it (the record stores of
//! `classilink-linking`) interns what it keeps.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// A literal value: lexical form plus optional datatype IRI or language tag.
///
/// Following RDF 1.1, a literal has exactly one of:
/// * a plain string value (implicitly `xsd:string`),
/// * a language-tagged string value,
/// * a typed value with an explicit datatype IRI.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

/// Unescape a literal's lexical form read from N-Triples/Turtle input.
pub fn unescape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Ok(cp) = u32::from_str_radix(&hex, 16) {
                    if let Some(ch) = char::from_u32(cp) {
                        out.push(ch);
                    }
                }
            }
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// An RDF term: IRI, blank node or literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
        assert_eq!(back, original);
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
        assert_eq!(unescape_literal("caf\\u00e9"), "café");
    }

    #[test]
    fn unescape_trailing_backslash_is_kept() {
        assert_eq!(unescape_literal("x\\"), "x\\");
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
