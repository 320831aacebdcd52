//! Term interning.
//!
//! Large RDF graphs repeat the same IRIs and literals many times. The
//! [`Dictionary`] maps each distinct [`Term`] to a compact [`TermId`] so the
//! graph indexes can store and compare 8-byte ids instead of whole terms.

use crate::term::Term;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A compact identifier for an interned [`Term`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TermId(pub u64);

/// A bidirectional map between [`Term`]s and [`TermId`]s.
///
/// Ids are assigned densely starting from 0, so they can double as vector
/// indexes (`id.0 as usize`).
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    term_to_id: HashMap<Term, TermId>,
    id_to_term: Vec<Term>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an owned term without cloning when it is new.
    pub fn intern_owned(&mut self, term: Term) -> TermId {
        if let Some(id) = self.term_to_id.get(&term) {
            return *id;
        }
        let id = TermId(self.id_to_term.len() as u64);
        self.term_to_id.insert(term.clone(), id);
        self.id_to_term.push(term);
        id
    }

    /// Look up the id of a term without interning it.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.term_to_id.get(term).copied()
    }

    /// Resolve an id back into its term.
    pub fn resolve(&self, id: TermId) -> Option<&Term> {
        self.id_to_term.get(id.0 as usize)
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.id_to_term.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.id_to_term.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut d = Dictionary::new();
        let a = Term::iri("http://e.org/a");
        let id1 = d.intern_owned(a.clone());
        let id2 = d.intern_owned(a.clone());
        assert_eq!(id1, id2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = (0..10)
            .map(|i| d.intern_owned(Term::literal(format!("v{i}"))))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.0, i as u64);
            assert_eq!(d.resolve(*id).unwrap().value_str(), format!("v{i}"));
        }
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn get_does_not_intern() {
        let mut d = Dictionary::new();
        let t = Term::literal("x");
        assert_eq!(d.get(&t), None);
        assert!(d.is_empty());
        let id = d.intern_owned(t.clone());
        assert_eq!(d.get(&t), Some(id));
    }

    #[test]
    fn resolve_unknown_id_is_none() {
        let d = Dictionary::new();
        assert!(d.resolve(TermId(99)).is_none());
    }

    #[test]
    fn equal_terms_share_an_id() {
        let mut d = Dictionary::new();
        let id1 = d.intern_owned(Term::literal("same"));
        let id2 = d.intern_owned(Term::literal("same"));
        let id3 = d.intern_owned(Term::literal("other"));
        assert_eq!(id1, id2);
        assert_ne!(id1, id3);
    }

    #[test]
    fn distinct_literal_forms_get_distinct_ids() {
        let mut d = Dictionary::new();
        let plain = d.intern_owned(Term::literal("42"));
        let typed = d.intern_owned(Term::Literal(crate::term::Literal::typed(
            "42",
            crate::namespace::vocab::XSD_INTEGER,
        )));
        let iri = d.intern_owned(Term::iri("42"));
        assert_ne!(plain, typed);
        assert_ne!(plain, iri);
        assert_ne!(typed, iri);
    }
}
