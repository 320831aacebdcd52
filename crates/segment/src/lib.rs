//! # classilink-segment
//!
//! Property-value segmentation for the `classilink` workspace (reproduction
//! of *"Classification Rule Learning for Data Linking"*, Pernelle & Saïs,
//! LWDM @ EDBT 2012).
//!
//! The paper's classification rules have the form
//! `p(X, Y) ∧ subsegment(Y, a) ⇒ c(X)`, where `subsegment(Y, a)` holds when
//! the segment `a` occurs at least once in the value `Y`. How a value is
//! split into segments "is specified by a domain expert. One can use
//! separation characters (e.g., ':', '-', ';', ' ') or n-grams."
//!
//! This crate owns the workspace's only split of a value: [`Normalizer`]
//! folds it (into a reused buffer, [`Normalizer::apply_into`]), then a
//! [`Segmenter`] lends its segments one by one to
//! [`Segmenter::for_each_segment`] — slices of the value wherever they are
//! one. The rule learner and the rule classifier (`classilink-core`) split
//! through their configured [`SegmenterKind`]; the comparator's token
//! tables (`classilink-linking`) tokenise with the [`SeparatorSegmenter`],
//! so a token and a learnt segment are the same string. `split` and
//! `split_distinct` return owned segments, for reports and tests.
//!
//! * [`separator`] — split on separator characters (the paper's evaluation
//!   splits part numbers "using non-alphabetical and non-numerical
//!   characters").
//! * [`alphanum`] — additionally split at letter/digit transitions (ablation
//!   A1 of the experiment index in the `classilink-eval` crate docs).
//! * [`ngram`] — character and word n-grams, padded bigrams.
//! * [`normalize`] — the one normalization applied before segmentation:
//!   case folding, accent stripping, whitespace collapsing.
//! * [`pipeline`] — the [`Segmenter`] trait and the serialisable
//!   [`SegmenterKind`] configuration, itself a segmenter.
//! * [`dictionary`] — segment interning (the paper reports 7 842 distinct
//!   segments for its data set).
//!
//! ## Quick example
//!
//! ```
//! use classilink_segment::{Segmenter, SeparatorSegmenter};
//!
//! let splitter = SeparatorSegmenter::non_alphanumeric();
//! assert_eq!(
//!     splitter.split("CRCW0805-10K 5% 63V"),
//!     vec!["CRCW0805", "10K", "5", "63V"]
//! );
//! ```

#![forbid(unsafe_code)]

pub mod alphanum;
pub mod dictionary;
pub mod ngram;
pub mod normalize;
pub mod pipeline;
pub mod separator;

pub use alphanum::AlphaNumSegmenter;
pub use dictionary::{SegmentDictionary, SegmentId};
pub use ngram::{CharNGramSegmenter, WordNGramSegmenter};
pub use normalize::Normalizer;
pub use pipeline::{Segmenter, SegmenterKind};
pub use separator::{SeparatorClass, SeparatorSegmenter};
