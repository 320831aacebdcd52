//! # classilink-ontology
//!
//! An OWL-lite ontology substrate for the `classilink` workspace
//! (reproduction of *"Classification Rule Learning for Data Linking"*,
//! Pernelle & Saïs, LWDM @ EDBT 2012).
//!
//! The paper assumes the local data source `SL` is described by an OWL
//! ontology `OL`; the learnt classification rules conclude on classes of
//! `OL`, frequencies are computed "only for the most specific classes of the
//! ontology", and the future-work extension generalises rules by exploiting
//! "the semantics of the subsumption between classes". This crate provides
//! exactly those capabilities:
//!
//! * [`model`] — classes and their ids.
//! * [`ontology`] — the ontology itself: subsumption hierarchy with
//!   ancestor/descendant closure, leaves, depth and most-specific-class
//!   filtering.
//! * [`instances`] — class-membership assertions for data items and
//!   extents under subsumption.
//! * [`builder`] — ergonomic construction.
//! * [`stats`] — summary statistics (class counts, leaf counts, depth
//!   histograms) matching the numbers the paper reports about its ontology
//!   (566 classes, 226 leaves).
//!
//! ## Quick example
//!
//! ```
//! use classilink_ontology::builder::OntologyBuilder;
//!
//! let mut b = OntologyBuilder::new("http://example.org/classes#");
//! let component = b.class("Component", None);
//! let resistor = b.class("Resistor", Some(component));
//! let fixed_film = b.class("FixedFilmResistor", Some(resistor));
//! let capacitor = b.class("Capacitor", Some(component));
//! let onto = b.build();
//!
//! assert!(onto.is_subclass_of(fixed_film, component));
//! assert!(!onto.is_subclass_of(capacitor, resistor));
//! assert_eq!(onto.most_specific(&[component, fixed_film]), vec![fixed_film]);
//! assert_eq!(onto.leaves().len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod error;
pub mod instances;
pub mod model;
pub mod ontology;
pub mod stats;

pub use builder::OntologyBuilder;
pub use error::{OntologyError, Result};
pub use instances::InstanceStore;
pub use model::{ClassId, OntClass};
pub use ontology::Ontology;
pub use stats::OntologyStats;
