//! # classilink-eval
//!
//! The evaluation harness of the `classilink` workspace (reproduction of
//! *"Classification Rule Learning for Data Linking"*, Pernelle & Saïs,
//! LWDM @ EDBT 2012).
//!
//! Every table and figure of the paper's evaluation, and the ablations this
//! reproduction adds, is computed by this crate, printed by an example and
//! timed by `linkbench/` (the one timing harness, see `BENCHMARK.json`).
//!
//! ## Experiment index
//!
//! | id | what | computed by | printed by | `linkbench` lines |
//! |---|---|---|---|---|
//! | E1 | Table 1: rules by confidence tier | [`Table1Experiment`] | `electronics_catalog` | `eval.table1.*`, `learn_ms` |
//! | E3/E4 | linking-space reduction and lift vs confidence, counted off the candidates the strict `RuleBasedBlocker` streams | [`reduction_sweep`] | `electronics_catalog` | `reduction_ratio`, `blocking.rules.*` on `rule_link` |
//! | E5 | rules vs the blocking baselines | [`compare_blockers`] | `blocking_comparison` | `blocking.*`, `pair_precision`, `pair_recall` |
//! | A1 | segmenter (`split`) ablation | [`segmenter_ablation`] | `electronics_catalog` | `segment.split_ms` |
//! | A2 | support threshold `th` sweep | [`support_sweep`] | `electronics_catalog` | `learn_ms`, `core.learn_x10_ms` |
//! | A3 | subsumption-generalised rules | [`generalization_ablation`] | `rule_generalization` | `core.generalize_ms` |
//!
//! `linkbench` times the paper's configuration only (`th = 0.002`, separator
//! segmentation); the other points of a sweep are computed, not timed.
//! `electronics_catalog -- small` is pinned byte for byte by
//! `examples/expected/electronics_catalog_small.txt` (CI diffs it).
//!
//! ## Modules
//!
//! * [`metrics`] — decisions, precision, recall, F1 for rule-based
//!   classification.
//! * [`table1`] — the Table 1 experiment: rules grouped by confidence tier,
//!   with #rules / #decisions / precision / recall / lift per row.
//! * [`sweeps`] — the linking-space reduction sweep (E3/E4), the support
//!   threshold sweep (A2), the segmenter ablation (A1) and the
//!   subsumption-generalisation ablation (A3).
//! * [`blocking_eval`] — the comparison with the related-work blocking
//!   baselines (E5).
//! * [`report`] — ASCII and CSV table rendering.
//!
//! ## Quick example
//!
//! ```
//! use classilink_datagen::scenario::{generate, ScenarioConfig};
//! use classilink_eval::table1::Table1Experiment;
//! use classilink_core::{LearnerConfig, PropertySelection};
//! use classilink_datagen::vocab;
//!
//! let scenario = generate(&ScenarioConfig::tiny());
//! let experiment = Table1Experiment::with_learner(
//!     LearnerConfig::default()
//!         .with_support_threshold(0.01)
//!         .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER)),
//! );
//! let (_outcome, report) = experiment
//!     .run_on_training(&scenario.training, &scenario.ontology)
//!     .unwrap();
//! assert_eq!(report.rows.len(), 4);
//! println!("{}", report.to_table().to_ascii());
//! ```

#![forbid(unsafe_code)]

pub mod blocking_eval;
pub mod metrics;
pub mod report;
pub mod sweeps;
pub mod table1;

pub use blocking_eval::{compare_blockers, BlockingComparisonRow};
pub use metrics::ClassificationOutcome;
pub use report::Table;
pub use sweeps::{
    generalization_ablation, reduction_sweep, segmenter_ablation, support_sweep,
    GeneralizationPoint, ReductionPoint, SegmenterPoint, SupportPoint,
};
pub use table1::{Table1Experiment, Table1Report, Table1Row};
