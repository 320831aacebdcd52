//! # classilink-datagen
//!
//! Synthetic data for the `classilink` workspace (reproduction of
//! *"Classification Rule Learning for Data Linking"*, Pernelle & Saïs,
//! LWDM @ EDBT 2012).
//!
//! The paper's evaluation uses a proprietary industrial data set (the Thales
//! electronic-products catalog and 10 265 expert reconciliations). That data
//! is not available, so this crate generates the closest synthetic
//! equivalent, preserving the statistical shape the learning algorithm
//! depends on (the experiments run on it are indexed in the
//! `classilink-eval` crate docs):
//!
//! * [`taxonomy`] — a 566-class / 226-leaf electronic-components ontology
//!   built from ten realistic component families, plus per-leaf part-number
//!   profiles (class-unique, family-shared and global segments).
//! * [`partnumber`] — part numbers such as `CRCW000-A04D3-ohm-63V-ROHS` whose
//!   segments span the whole confidence spectrum of Table 1.
//! * [`perturb`] — provider-side rewriting of part numbers (separator swaps,
//!   typos, suffixes).
//! * [`scenario`] — full worlds: local catalog `SL`, provider items `SE`,
//!   expert links `TS`, gold classes and held-out items; presets `paper()`,
//!   `small()`, `tiny()`.
//! * [`geo`] — a toponym scenario ("Copacabana Beach", "Place de la
//!   Concorde") exercising the generality claim of the paper's conclusion.
//! * [`vocab`] — namespaces and property IRIs of both sources.
//!
//! Everything is deterministic under a configured seed.
//!
//! ## Quick example
//!
//! ```
//! use classilink_datagen::scenario::{generate, ScenarioConfig};
//!
//! let scenario = generate(&ScenarioConfig::tiny());
//! assert_eq!(scenario.training.len(), 120);
//! assert!(scenario.ontology.class_count() >= 30);
//! ```

#![forbid(unsafe_code)]

pub mod geo;
pub mod partnumber;
pub mod perturb;
pub mod scenario;
pub mod taxonomy;
pub mod vocab;

pub use geo::{geo_scenario, GeoScenario};
pub use partnumber::{PartNumberConfig, PartNumberGenerator};
pub use perturb::PerturbationConfig;
pub use scenario::{generate, GeneratedScenario, ScenarioConfig, MANUFACTURERS};
pub use taxonomy::{families, generate_taxonomy, Family, LeafProfile, TaxonomyConfig};
