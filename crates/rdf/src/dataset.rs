//! Provenance-aware datasets.
//!
//! The paper assumes two RDF sources: the **local** catalog `SL` (described by
//! the ontology `OL`) and an **external** provider document `SE` whose schema
//! is unknown. The training set of `same-as` links is stored "with their
//! provenance information (external or local)". [`Dataset`] models exactly
//! this: one graph per [`Source`], plus a dedicated link graph.

use crate::graph::Graph;
use crate::namespace::vocab;
use crate::term::Term;
use crate::triple::Triple;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The provenance of a data item: the local catalog or an external provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Source {
    /// The local data source `SL`, conforming to the local ontology `OL`.
    Local,
    /// The external data source `SE`, whose schema is unknown.
    External,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Local => write!(f, "local"),
            Source::External => write!(f, "external"),
        }
    }
}

/// A pair of provenance-tagged graphs plus the `same-as` link graph between
/// them.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    local: Graph,
    external: Graph,
    links: Graph,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// The graph holding data of the given source.
    pub fn graph(&self, source: Source) -> &Graph {
        match source {
            Source::Local => &self.local,
            Source::External => &self.external,
        }
    }

    /// The local graph `SL`.
    pub fn local(&self) -> &Graph {
        &self.local
    }

    /// The external graph `SE`.
    pub fn external(&self) -> &Graph {
        &self.external
    }

    /// Insert a triple into the graph of the given source. Returns `true` if
    /// it was new.
    pub fn insert(&mut self, source: Source, triple: Triple) -> bool {
        match source {
            Source::Local => self.local.insert(triple),
            Source::External => self.external.insert(triple),
        }
    }

    /// Declare a `same-as` link between an external item and a local item.
    ///
    /// The convention throughout the workspace is `external owl:sameAs local`.
    pub fn link(&mut self, external_item: &Term, local_item: &Term) -> bool {
        self.links.insert(Triple::new(
            external_item.clone(),
            Term::iri(vocab::OWL_SAME_AS),
            local_item.clone(),
        ))
    }

    /// Iterate over `(external, local)` pairs of declared links.
    pub fn link_pairs(&self) -> impl Iterator<Item = (Term, Term)> + '_ {
        self.links
            .triples_matching(None, Some(&Term::iri(vocab::OWL_SAME_AS)), None)
            .map(|t| (t.subject, t.object))
    }

    /// Number of declared links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of distinct subjects (data items) in the given source.
    pub fn item_count(&self, source: Source) -> usize {
        self.graph(source).subjects().len()
    }

    /// The size of the naive linking space `|SE| × |SL|` — the quantity the
    /// paper's classification rules are designed to shrink.
    pub fn naive_linking_space(&self) -> u64 {
        self.item_count(Source::External) as u64 * self.item_count(Source::Local) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(n: u32, src: Source) -> Term {
        match src {
            Source::Local => Term::iri(format!("http://local.example.org/prod/{n}")),
            Source::External => Term::iri(format!("http://provider.example.org/item/{n}")),
        }
    }

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        for n in 0..3 {
            ds.insert(
                Source::Local,
                Triple::new(
                    item(n, Source::Local),
                    Term::iri("http://local.example.org/v#pn"),
                    Term::literal(format!("PN-{n}")),
                ),
            );
        }
        for n in 0..2 {
            ds.insert(
                Source::External,
                Triple::new(
                    item(n, Source::External),
                    Term::iri("http://provider.example.org/v#ref"),
                    Term::literal(format!("PN-{n}")),
                ),
            );
        }
        ds.link(&item(0, Source::External), &item(0, Source::Local));
        ds.link(&item(1, Source::External), &item(1, Source::Local));
        ds
    }

    #[test]
    fn source_display() {
        assert_eq!(Source::Local.to_string(), "local");
        assert_eq!(Source::External.to_string(), "external");
    }

    #[test]
    fn graphs_are_separate() {
        let ds = sample();
        assert_eq!(ds.local().len(), 3);
        assert_eq!(ds.external().len(), 2);
    }

    #[test]
    fn item_counts_and_naive_space() {
        let ds = sample();
        assert_eq!(ds.item_count(Source::Local), 3);
        assert_eq!(ds.item_count(Source::External), 2);
        assert_eq!(ds.naive_linking_space(), 6);
    }

    #[test]
    fn links_are_recorded_with_direction() {
        let ds = sample();
        assert_eq!(ds.link_count(), 2);
        let pairs: Vec<_> = ds.link_pairs().collect();
        assert_eq!(pairs.len(), 2);
        for (ext, loc) in pairs {
            assert!(ext.as_iri().unwrap().contains("provider"));
            assert!(loc.as_iri().unwrap().contains("local"));
        }
    }

    #[test]
    fn duplicate_links_are_ignored() {
        let mut ds = sample();
        assert!(!ds.link(&item(0, Source::External), &item(0, Source::Local)));
        assert_eq!(ds.link_count(), 2);
    }
}
