//! Triples: the atomic statements of an RDF graph.

use crate::term::{Term, TermRef};
use std::fmt;

/// An RDF triple `(subject, predicate, object)`.
///
/// The crate does not enforce the RDF restriction that predicates must be
/// IRIs or that literals may only appear in object position — the data the
/// paper works with never violates these, and keeping `Term` uniform makes
/// pattern matching simpler.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// The subject of the statement.
    pub subject: Term,
    /// The predicate (property) of the statement.
    pub predicate: Term,
    /// The object (value) of the statement.
    pub object: Term,
}

impl Triple {
    /// Create a new triple.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        Triple {
            subject,
            predicate,
            object,
        }
    }

    /// Convenience constructor from IRI strings and a plain literal object.
    pub fn literal(
        subject: impl Into<String>,
        predicate: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        Triple::new(
            Term::iri(subject),
            Term::iri(predicate),
            Term::literal(value),
        )
    }

    /// The attribute value this triple gives its subject's record: an IRI
    /// predicate with a literal object is `(predicate IRI, lexical form)`
    /// (datatype and language tag dropped); any other triple gives none.
    /// Every reader that turns triples into records or facts goes through
    /// this one rule.
    pub fn literal_fact(&self) -> Option<(&str, &str)> {
        literal_fact(self.predicate.as_iri(), self.object.literal_value())
    }
}

/// A [`Triple`] whose terms are lent by the statement text it was read
/// from: what the readers' borrowed drains hand out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleRef<'a> {
    /// The subject of the statement.
    pub subject: TermRef<'a>,
    /// The predicate (property) of the statement.
    pub predicate: TermRef<'a>,
    /// The object (value) of the statement.
    pub object: TermRef<'a>,
}

impl TripleRef<'_> {
    /// The owned triple (see [`TermRef::into_owned`]).
    pub fn into_owned(self) -> Triple {
        Triple::new(
            self.subject.into_owned(),
            self.predicate.into_owned(),
            self.object.into_owned(),
        )
    }

    /// [`Triple::literal_fact`] of the owned triple, read in place.
    pub fn literal_fact(&self) -> Option<(&str, &str)> {
        literal_fact(self.predicate.as_iri(), self.object.literal_value())
    }
}

/// The rule both triple forms go through: an IRI predicate and a literal
/// object make a fact.
fn literal_fact<'t>(
    predicate_iri: Option<&'t str>,
    literal_value: Option<&'t str>,
) -> Option<(&'t str, &'t str)> {
    predicate_iri.zip(literal_value)
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_display_is_ntriples_like() {
        let t = Triple::literal("http://e.org/p1", "http://e.org/vocab#pn", "T83-22uF");
        assert_eq!(
            t.to_string(),
            "<http://e.org/p1> <http://e.org/vocab#pn> \"T83-22uF\" ."
        );
    }

    #[test]
    fn only_an_iri_predicate_with_a_literal_object_is_a_fact() {
        use crate::term::Literal;
        let with = |object: Term| {
            Triple::new(
                Term::iri("http://e.org/a"),
                Term::iri("http://e.org/p"),
                object,
            )
        };
        assert_eq!(
            with(Term::literal("10K")).literal_fact(),
            Some(("http://e.org/p", "10K"))
        );
        let typed = Literal::typed("42", crate::namespace::vocab::XSD_INTEGER);
        assert_eq!(
            with(typed.into()).literal_fact(),
            Some(("http://e.org/p", "42"))
        );
        assert_eq!(
            with(Literal::lang("résistance", "fr").into()).literal_fact(),
            Some(("http://e.org/p", "résistance"))
        );
        assert_eq!(with(Term::iri("http://e.org/c#R")).literal_fact(), None);
        assert_eq!(with(Term::blank("b0")).literal_fact(), None);
        let blank_predicate = Triple::new(
            Term::iri("http://e.org/a"),
            Term::blank("p"),
            Term::literal("10K"),
        );
        assert_eq!(blank_predicate.literal_fact(), None);
    }

    #[test]
    fn a_lent_triple_has_the_fact_of_the_triple_it_owns_into() {
        let doc = "<http://e.org/a> <http://e.org/p> \"10\\tK\"@en .\n\
                   <http://e.org/a> <http://e.org/p> <http://e.org/o> .\n\
                   _:b <http://e.org/p> \"42\"^^<http://e.org/int> .\n";
        let mut streamer = crate::NTriplesStreamer::new();
        streamer.feed(doc.as_bytes());
        streamer.finish();
        let mut facts = Vec::new();
        streamer
            .drain(|triple| {
                let fact = triple
                    .literal_fact()
                    .map(|(p, v)| (p.to_string(), v.to_string()));
                let owned = triple.into_owned();
                let owned_fact = owned
                    .literal_fact()
                    .map(|(p, v)| (p.to_string(), v.to_string()));
                assert_eq!(fact, owned_fact);
                facts.push(fact);
            })
            .unwrap();
        let fact = |v: &str| Some(("http://e.org/p".to_string(), v.to_string()));
        assert_eq!(facts, vec![fact("10\tK"), None, fact("42")]);
    }

    #[test]
    fn triples_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = Triple::literal("http://e.org/1", "http://e.org/p", "a");
        let b = Triple::literal("http://e.org/1", "http://e.org/p", "b");
        let mut set = HashSet::new();
        set.insert(a.clone());
        set.insert(b.clone());
        set.insert(a.clone());
        assert_eq!(set.len(), 2);
        assert!(a < b);
    }
}
