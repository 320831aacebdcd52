//! # classilink
//!
//! Umbrella crate for the `classilink` workspace — a Rust reproduction of
//! *"Classification Rule Learning for Data Linking"* (Pernelle & Saïs,
//! LWDM @ EDBT 2012).
//!
//! This crate simply re-exports the workspace crates under stable module
//! names so that downstream users (and the `examples/`) need a single
//! dependency:
//!
//! * [`rdf`] — RDF substrate (terms, triples, streaming N-Triples/Turtle readers).
//! * [`ontology`] — OWL-lite ontology model with subsumption and instances.
//! * [`segment`] — property-value segmentation (separators, n-grams).
//! * [`core`] — the paper's contribution: classification rule learning,
//!   quality measures, rule ordering, classification of new items.
//! * [`linking`] — similarity measures, record comparison, blocking
//!   baselines, the rule-based blocker that resolves an item's linking
//!   subspace, and the end-to-end linkage pipeline.
//! * [`datagen`] — synthetic electronic-components catalogs, provider
//!   documents and training sets reproducing the paper's data shape.
//! * [`eval`] — metrics, the Table 1 experiment and report rendering.

pub use classilink_core as core;
pub use classilink_datagen as datagen;
pub use classilink_eval as eval;
pub use classilink_linking as linking;
pub use classilink_ontology as ontology;
pub use classilink_rdf as rdf;
pub use classilink_segment as segment;

/// The version of the workspace, taken from the umbrella crate.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
