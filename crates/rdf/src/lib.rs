//! # classilink-rdf
//!
//! A minimal, dependency-light, in-memory RDF substrate used by the
//! `classilink` workspace (a reproduction of *"Classification Rule Learning
//! for Data Linking"*, Pernelle & Saïs, LWDM @ EDBT 2012).
//!
//! The paper operates on two RDF data sources: a **local** source `SL`
//! described by an OWL ontology, and an **external** source `SE` whose schema
//! is unknown. This crate provides everything the rest of the workspace needs
//! to represent and query such sources:
//!
//! * [`term`] — IRIs, blank nodes, plain/typed/language-tagged literals.
//! * [`dictionary`] — string interning so that triples are stored as compact
//!   integer ids.
//! * [`graph`] — an indexed in-memory triple store with SPO and POS indexes
//!   and triple-pattern iteration.
//! * [`dataset`] — a provenance-aware collection of graphs (the paper stores
//!   linked pairs "with their provenance information (external or local)").
//! * [`ntriples`] / [`turtle`] — streaming readers for N-Triples and a
//!   pragmatic Turtle subset (a [`Triple`]'s `Display` is its N-Triples
//!   line).
//!
//! ## Quick example
//!
//! ```
//! use classilink_rdf::{Graph, Term, Triple};
//!
//! let mut g = Graph::new();
//! let s = Term::iri("http://example.org/prod/1");
//! let p = Term::iri("http://example.org/vocab#partNumber");
//! let o = Term::literal("CRCW0805-10K");
//! g.insert(Triple::new(s.clone(), p.clone(), o.clone()));
//!
//! assert_eq!(g.len(), 1);
//! let found: Vec<_> = g.triples_matching(Some(&s), None, None).collect();
//! assert_eq!(found.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod dataset;
pub mod dictionary;
pub mod error;
pub mod graph;
mod lex;
pub mod namespace;
pub mod ntriples;
pub mod term;
pub mod triple;
pub mod turtle;

pub use dataset::{Dataset, Source};
pub use dictionary::{Dictionary, TermId};
pub use error::{RdfError, Result};
pub use graph::Graph;
pub use namespace::Namespaces;
pub use ntriples::NTriplesStreamer;
pub use term::{Literal, Term};
pub use triple::Triple;
pub use turtle::TurtleStreamer;
