//! An indexed in-memory triple store.
//!
//! [`Graph`] interns terms through a [`Dictionary`] and maintains two
//! B-tree indexes (SPO, POS), so that every triple pattern is a range scan
//! of one of them:
//!
//! * `(s, ?, ?)`, `(s, p, ?)`, `(s, p, o)` → SPO index,
//! * `(?, p, ?)`, `(?, p, o)` → POS index,
//! * `(s, ?, o)` → the SPO range of `s`, filtered on `o`,
//! * `(?, ?, o)` → the whole SPO index, filtered on `o` (no reader of the
//!   workspace binds an object without its predicate).
//!
//! This is the storage substrate for both the local catalog `SL` and the
//! external source `SE` of the paper.

use crate::dictionary::{Dictionary, TermId};
use crate::term::Term;
use crate::triple::Triple;
use std::collections::BTreeSet;

type Key = (TermId, TermId, TermId);

/// An in-memory RDF graph with SPO and POS indexes.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    dict: Dictionary,
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// `true` when the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Insert a triple. Returns `true` if the triple was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        let s = self.dict.intern_owned(triple.subject);
        let p = self.dict.intern_owned(triple.predicate);
        let o = self.dict.intern_owned(triple.object);
        self.insert_ids(s, p, o)
    }

    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let newly = self.spo.insert((s, p, o));
        if newly {
            self.pos.insert((p, o, s));
        }
        newly
    }

    fn resolve(&self, key: Key, order: IndexOrder) -> Triple {
        let (a, b, c) = key;
        let (s, p, o) = match order {
            IndexOrder::Spo => (a, b, c),
            IndexOrder::Pos => (c, a, b),
        };
        Triple::new(
            self.dict.resolve(s).expect("dangling subject id").clone(),
            self.dict.resolve(p).expect("dangling predicate id").clone(),
            self.dict.resolve(o).expect("dangling object id").clone(),
        )
    }

    /// Iterate over every triple in the graph (SPO order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(|k| self.resolve(*k, IndexOrder::Spo))
    }

    /// Iterate over triples matching the given pattern. `None` components act
    /// as wildcards.
    ///
    /// Unknown terms (never interned by this graph) simply yield an empty
    /// iterator.
    pub fn triples_matching<'a>(
        &'a self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Box<dyn Iterator<Item = Triple> + 'a> {
        // Resolve bound terms to ids; a bound term that is unknown means no match.
        let s = match subject {
            Some(t) => match self.dict.get(t) {
                Some(id) => Some(id),
                None => return Box::new(std::iter::empty()),
            },
            None => None,
        };
        let p = match predicate {
            Some(t) => match self.dict.get(t) {
                Some(id) => Some(id),
                None => return Box::new(std::iter::empty()),
            },
            None => None,
        };
        let o = match object {
            Some(t) => match self.dict.get(t) {
                Some(id) => Some(id),
                None => return Box::new(std::iter::empty()),
            },
            None => None,
        };
        self.triples_matching_ids(s, p, o)
    }

    fn triples_matching_ids<'a>(
        &'a self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Box<dyn Iterator<Item = Triple> + 'a> {
        const MIN: TermId = TermId(0);
        const MAX: TermId = TermId(u64::MAX);
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let key = (s, p, o);
                let present = self.spo.contains(&key);
                Box::new(
                    present
                        .then(|| self.resolve(key, IndexOrder::Spo))
                        .into_iter(),
                )
            }
            (Some(s), Some(p), None) => Box::new(
                self.spo
                    .range((s, p, MIN)..=(s, p, MAX))
                    .map(move |k| self.resolve(*k, IndexOrder::Spo)),
            ),
            (Some(s), None, None) => Box::new(
                self.spo
                    .range((s, MIN, MIN)..=(s, MAX, MAX))
                    .map(move |k| self.resolve(*k, IndexOrder::Spo)),
            ),
            (None, Some(p), Some(o)) => Box::new(
                self.pos
                    .range((p, o, MIN)..=(p, o, MAX))
                    .map(move |k| self.resolve(*k, IndexOrder::Pos)),
            ),
            (None, Some(p), None) => Box::new(
                self.pos
                    .range((p, MIN, MIN)..=(p, MAX, MAX))
                    .map(move |k| self.resolve(*k, IndexOrder::Pos)),
            ),
            (None, None, Some(o)) => Box::new(
                self.spo
                    .iter()
                    .filter(move |k| k.2 == o)
                    .map(move |k| self.resolve(*k, IndexOrder::Spo)),
            ),
            (Some(s), None, Some(o)) => Box::new(
                self.spo
                    .range((s, MIN, MIN)..=(s, MAX, MAX))
                    .filter(move |k| k.2 == o)
                    .map(move |k| self.resolve(*k, IndexOrder::Spo)),
            ),
            (None, None, None) => Box::new(self.iter()),
        }
    }

    /// The set of distinct subjects in the graph.
    pub fn subjects(&self) -> Vec<Term> {
        let mut last: Option<TermId> = None;
        let mut out = Vec::new();
        for (s, _, _) in self.spo.iter() {
            if last != Some(*s) {
                out.push(self.dict.resolve(*s).expect("dangling subject id").clone());
                last = Some(*s);
            }
        }
        out
    }
}

impl Extend<Triple> for Graph {
    fn extend<T: IntoIterator<Item = Triple>>(&mut self, iter: T) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<T: IntoIterator<Item = Triple>>(iter: T) -> Self {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

#[derive(Clone, Copy)]
enum IndexOrder {
    Spo,
    Pos,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(Triple::literal(
            "http://e.org/p1",
            "http://e.org/v#pn",
            "CRCW0805-10K",
        ));
        g.insert(Triple::literal(
            "http://e.org/p1",
            "http://e.org/v#mfr",
            "Vishay",
        ));
        g.insert(Triple::literal(
            "http://e.org/p2",
            "http://e.org/v#pn",
            "T83-22uF",
        ));
        g.insert(Triple::iris(
            "http://e.org/p1",
            crate::namespace::vocab::RDF_TYPE,
            "http://e.org/cls#FixedFilmResistor",
        ));
        g
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut g = Graph::new();
        let t = Triple::literal("http://e.org/a", "http://e.org/p", "v");
        assert!(g.insert(t.clone()));
        assert!(!g.insert(t.clone()));
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![t]);
    }

    #[test]
    fn pattern_sp_wildcard_object() {
        let g = sample();
        let found: Vec<_> = g
            .triples_matching(
                Some(&Term::iri("http://e.org/p1")),
                Some(&Term::iri("http://e.org/v#pn")),
                None,
            )
            .collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].object.value_str(), "CRCW0805-10K");
    }

    #[test]
    fn pattern_p_only() {
        let g = sample();
        let found: Vec<_> = g
            .triples_matching(None, Some(&Term::iri("http://e.org/v#pn")), None)
            .collect();
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn pattern_object_only() {
        let g = sample();
        let found: Vec<_> = g
            .triples_matching(None, None, Some(&Term::literal("Vishay")))
            .collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].subject.as_iri(), Some("http://e.org/p1"));
    }

    #[test]
    fn pattern_subject_object() {
        let g = sample();
        let found: Vec<_> = g
            .triples_matching(
                Some(&Term::iri("http://e.org/p1")),
                None,
                Some(&Term::literal("Vishay")),
            )
            .collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].predicate.as_iri(), Some("http://e.org/v#mfr"));
    }

    #[test]
    fn pattern_with_unknown_term_is_empty() {
        let g = sample();
        let found: Vec<_> = g
            .triples_matching(Some(&Term::iri("http://unknown.org/x")), None, None)
            .collect();
        assert!(found.is_empty());
    }

    #[test]
    fn fully_bound_pattern() {
        let g = sample();
        let t = Triple::literal("http://e.org/p2", "http://e.org/v#pn", "T83-22uF");
        let found: Vec<_> = g
            .triples_matching(Some(&t.subject), Some(&t.predicate), Some(&t.object))
            .collect();
        assert_eq!(found.len(), 1);
        let missing: Vec<_> = g
            .triples_matching(
                Some(&t.subject),
                Some(&t.predicate),
                Some(&Term::literal("nope")),
            )
            .collect();
        assert!(missing.is_empty());
    }

    #[test]
    fn subjects_are_distinct() {
        let g = sample();
        let subjects = g.subjects();
        assert_eq!(subjects.len(), 2);
    }

    #[test]
    fn extend_and_from_iterator() {
        let triples = vec![
            Triple::literal("http://e.org/a", "http://e.org/p", "1"),
            Triple::literal("http://e.org/b", "http://e.org/p", "2"),
        ];
        let g: Graph = triples.clone().into_iter().collect();
        assert_eq!(g.len(), 2);
        let mut g2 = Graph::new();
        g2.extend(triples.clone());
        g2.extend(triples);
        assert_eq!(g2.len(), 2);
    }

    #[test]
    fn iter_returns_all_triples() {
        let g = sample();
        assert_eq!(g.iter().count(), 4);
    }
}
