//! # classilink-rdf
//!
//! A minimal, dependency-light, in-memory RDF substrate used by the
//! `classilink` workspace (a reproduction of *"Classification Rule Learning
//! for Data Linking"*, Pernelle & Saïs, LWDM @ EDBT 2012).
//!
//! The paper operates on two RDF data sources: a **local** source `SL`
//! described by an OWL ontology, and an **external** source `SE` whose schema
//! is unknown. This crate reads such sources as a stream of triples; it
//! stores none of them (the record stores of `classilink-linking` do):
//!
//! * [`term`] — IRIs, blank nodes, plain/typed/language-tagged literals,
//!   owned ([`Term`]) or lent by the text they were read from
//!   ([`TermRef`]).
//! * [`triple`] — a statement, owned ([`Triple`]) or lent
//!   ([`TripleRef`]), and the one rule ([`Triple::literal_fact`]) that
//!   turns either into an attribute value.
//! * [`ntriples`] / [`turtle`] — streaming readers for N-Triples and a
//!   pragmatic Turtle subset (a [`Triple`]'s `Display` is its N-Triples
//!   line). Each has one path: its `drain` lends every triple of the
//!   statements buffered so far, and `next_triple` is that path with the
//!   terms copied out.
//! * [`namespace`] — well-known IRIs and the Turtle prefix table.
//!
//! ## Quick example
//!
//! ```
//! use classilink_rdf::{ntriples, Term, Triple};
//!
//! let fact = Triple::literal(
//!     "http://example.org/prod/1",
//!     "http://example.org/vocab#partNumber",
//!     "CRCW0805-10K",
//! );
//! let triples = ntriples::parse(&format!("{fact}\n")).unwrap();
//! assert_eq!(triples, vec![fact]);
//! assert_eq!(
//!     triples[0].literal_fact(),
//!     Some(("http://example.org/vocab#partNumber", "CRCW0805-10K"))
//! );
//! assert_eq!(triples[0].subject, Term::iri("http://example.org/prod/1"));
//! ```

#![forbid(unsafe_code)]

pub mod error;
mod lex;
pub mod namespace;
pub mod ntriples;
pub mod term;
pub mod triple;
pub mod turtle;

pub use error::{RdfError, Result};
pub use namespace::Namespaces;
pub use ntriples::NTriplesStreamer;
pub use term::{Literal, LiteralRef, Term, TermRef};
pub use triple::{Triple, TripleRef};
pub use turtle::TurtleStreamer;
