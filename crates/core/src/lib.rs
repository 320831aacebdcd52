//! # classilink-core
//!
//! The primary contribution of *"Classification Rule Learning for Data
//! Linking"* (Pernelle & Saïs, LWDM @ EDBT 2012), implemented as a library:
//! learning **value-based classification rules** from a training set of
//! validated `same-as` links, and using them to shrink the data-linking
//! space.
//!
//! A rule has the form `p(X, Y) ∧ subsegment(Y, a) ⇒ c(X)`: if the value of
//! data property `p` on an external item contains the segment `a`, the item
//! likely belongs to local class `c` — so it only needs to be compared with
//! the instances of `c` instead of the whole catalog.
//!
//! ## Modules
//!
//! * [`training`] — the training set `TS` (linked pairs with the external
//!   item's property facts and the local item's classes).
//! * [`measures`] — support, confidence, lift (plus coverage, specificity,
//!   leverage, conviction) from contingency counts.
//! * [`rule`] — the [`ClassificationRule`] type.
//! * [`config`] — learner configuration (support threshold `th`, property
//!   selection, segmentation).
//! * [`learner`] — Algorithm 1 ([`RuleLearner`]) and run statistics, counted
//!   on premise columns and class rows segmented once from `TS`.
//! * [`ordering`] — confidence-tier grouping of ranked rules (Table 1).
//! * [`classifier`] — applying rules to new external items. The linking
//!   subspace the predicted classes determine is resolved in one place,
//!   `classilink-linking`'s `RuleBasedBlocker`; `classilink-eval` measures
//!   the reduction (E3/E4) off the candidates it streams.
//! * [`pruning`] — redundancy and quality-based pruning.
//! * [`mod@generalize`] — subsumption-based rule generalisation (the paper's
//!   future-work extension): class rows OR-ed up the hierarchy.
//!
//! ## Quick example
//!
//! ```
//! use classilink_core::prelude::*;
//! use classilink_ontology::OntologyBuilder;
//! use classilink_rdf::Term;
//!
//! // A tiny ontology and training set.
//! let mut b = OntologyBuilder::new("http://example.org/classes#");
//! let root = b.class("Component", None);
//! let resistor = b.class("FixedFilmResistor", Some(root));
//! let capacitor = b.class("TantalumCapacitor", Some(root));
//! let ontology = b.build();
//!
//! let pn = "http://provider.example.org/vocab#partNumber";
//! let mut ts = TrainingSet::new();
//! for i in 0..10 {
//!     ts.push(TrainingExample::new(
//!         Term::iri(format!("http://provider.example.org/item/{i}")),
//!         Term::iri(format!("http://local.example.org/prod/{i}")),
//!         vec![(pn.to_string(), format!("CRCW08{i:02}-10K-ohm"))],
//!         vec![resistor],
//!     ));
//! }
//! for i in 10..20 {
//!     ts.push(TrainingExample::new(
//!         Term::iri(format!("http://provider.example.org/item/{i}")),
//!         Term::iri(format!("http://local.example.org/prod/{i}")),
//!         vec![(pn.to_string(), format!("T83-A{i}-22uF"))],
//!         vec![capacitor],
//!     ));
//! }
//!
//! // Learn rules and classify a new external item.
//! let config = LearnerConfig::default().with_support_threshold(0.05);
//! let outcome = RuleLearner::new(config.clone()).learn(&ts, &ontology).unwrap();
//! assert!(!outcome.rules.is_empty());
//!
//! let classifier = RuleClassifier::from_outcome(&outcome, &config);
//! let decision = classifier
//!     .decide(&[(pn.to_string(), "CRCW0899-47K-ohm".to_string())])
//!     .unwrap();
//! assert_eq!(decision.class, resistor);
//! ```

#![forbid(unsafe_code)]

pub mod classifier;
pub mod config;
pub mod error;
pub mod generalize;
pub mod learner;
pub mod measures;
pub mod ordering;
pub mod pruning;
pub mod rule;
pub mod training;

pub use classifier::{Prediction, RuleClassifier};
pub use config::{LearnerConfig, PropertySelection};
pub use error::{CoreError, Result};
pub use generalize::{generalize, GeneralizeConfig, GeneralizeOutcome};
pub use learner::{LearnOutcome, LearnStats, RuleLearner};
pub use measures::{Contingency, RuleQuality};
pub use ordering::group_by_confidence_tiers;
pub use pruning::{
    filter_by_quality, prune_hierarchy_redundant, top_k_per_class, HierarchyPreference,
};
pub use rule::ClassificationRule;
pub use training::{TrainingExample, TrainingSet};

/// A convenience prelude re-exporting the types most programs need.
pub mod prelude {
    pub use crate::classifier::{Prediction, RuleClassifier};
    pub use crate::config::{LearnerConfig, PropertySelection};
    pub use crate::learner::{LearnOutcome, LearnStats, RuleLearner};
    pub use crate::measures::{Contingency, RuleQuality};
    pub use crate::rule::ClassificationRule;
    pub use crate::training::{TrainingExample, TrainingSet};
}
