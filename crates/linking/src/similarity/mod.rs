//! String similarity measures used by the linking method.
//!
//! The paper assumes a downstream "linking method" that compares the
//! descriptions of two data items and computes a similarity between them
//! (section 1). This module provides the classic measures such a method
//! needs; every function returns a similarity in `[0, 1]`, where `1` means
//! identical.
//!
//! The comparison hot path uses the **scratch-buffer kernels** — the
//! `*_with(scratch, a, b)` variants threading a [`SimScratch`] through
//! [`edit`] and [`mod@jaro`] — and the precomputed token-index kernels of
//! [`crate::token_index`] for the set measures. Each string kernel has a
//! cheap **upper bound** beside it (`*_bound_at`, a function of how many
//! symbols the two strings share, their lengths and their common prefix —
//! see [`symbols`] for the two ways that count is had), which lets the
//! comparator skip a kernel that cannot lift its pair over the non-match
//! threshold.
//! The plain functions
//! re-exported here keep the classic one-call API (each allocates a
//! fresh scratch); [`naive`] holds the reference implementations the
//! kernels are equivalence-tested against.

pub mod edit;
pub mod jaro;
#[doc(hidden)]
pub mod naive;
pub mod scratch;
pub mod symbols;
pub mod token;

pub use edit::{
    damerau_levenshtein, damerau_levenshtein_similarity, damerau_levenshtein_similarity_with,
    damerau_levenshtein_with, edit_similarity_bound, edit_similarity_bound_at, levenshtein,
    levenshtein_similarity, levenshtein_similarity_with, levenshtein_with,
};
pub use jaro::{
    common_prefix, jaro, jaro_bound, jaro_bound_at, jaro_winkler, jaro_winkler_bound,
    jaro_winkler_bound_at, jaro_winkler_with, jaro_with,
};
pub use scratch::SimScratch;
pub use token::{dice_bigrams, jaccard_chars, jaccard_tokens, monge_elkan};

/// A serialisable choice of string similarity measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimilarityMeasure {
    /// Normalised Levenshtein similarity.
    #[default]
    Levenshtein,
    /// Normalised Damerau-Levenshtein similarity (transpositions count as one
    /// edit).
    DamerauLevenshtein,
    /// Jaro similarity.
    Jaro,
    /// Jaro-Winkler similarity (prefix-boosted Jaro).
    JaroWinkler,
    /// Jaccard similarity over alphanumeric tokens: the value normalised
    /// (lowercased, accents folded) and split on non-alphanumerics, the
    /// learner's segmentation.
    JaccardTokens,
    /// Jaccard similarity over character bigrams.
    JaccardChars,
    /// Dice coefficient over character bigrams.
    DiceBigrams,
    /// Monge-Elkan: average best Jaro-Winkler match of each token.
    MongeElkan,
}

impl SimilarityMeasure {
    /// Compute the similarity between two strings with this measure.
    pub fn compare(&self, a: &str, b: &str) -> f64 {
        match self {
            SimilarityMeasure::Levenshtein => levenshtein_similarity(a, b),
            SimilarityMeasure::DamerauLevenshtein => damerau_levenshtein_similarity(a, b),
            SimilarityMeasure::Jaro => jaro(a, b),
            SimilarityMeasure::JaroWinkler => jaro_winkler(a, b),
            SimilarityMeasure::JaccardTokens => jaccard_tokens(a, b),
            SimilarityMeasure::JaccardChars => jaccard_chars(a, b),
            SimilarityMeasure::DiceBigrams => dice_bigrams(a, b),
            SimilarityMeasure::MongeElkan => monge_elkan(a, b),
        }
    }

    /// Compute the similarity using `scratch` for working memory.
    ///
    /// The edit/Jaro measures run allocation-free on the scratch
    /// kernels; the token/bigram measures still tokenise the pair into a
    /// two-value token table (the allocation-free path for those is the
    /// stores' per-column token tables used by
    /// [`CompiledComparator::score`](crate::comparator::CompiledComparator::score)).
    /// Results are bit-identical to [`Self::compare`].
    pub fn compare_with(&self, scratch: &mut scratch::SimScratch, a: &str, b: &str) -> f64 {
        match self {
            SimilarityMeasure::Levenshtein => levenshtein_similarity_with(scratch, a, b),
            SimilarityMeasure::DamerauLevenshtein => {
                damerau_levenshtein_similarity_with(scratch, a, b)
            }
            SimilarityMeasure::Jaro => jaro_with(scratch, a, b),
            SimilarityMeasure::JaroWinkler => jaro_winkler_with(scratch, a, b),
            SimilarityMeasure::JaccardTokens => jaccard_tokens(a, b),
            SimilarityMeasure::JaccardChars => jaccard_chars(a, b),
            SimilarityMeasure::DiceBigrams => dice_bigrams(a, b),
            SimilarityMeasure::MongeElkan => monge_elkan(a, b),
        }
    }

    /// All available measures (useful for benchmark sweeps).
    pub fn all() -> &'static [SimilarityMeasure] {
        &[
            SimilarityMeasure::Levenshtein,
            SimilarityMeasure::DamerauLevenshtein,
            SimilarityMeasure::Jaro,
            SimilarityMeasure::JaroWinkler,
            SimilarityMeasure::JaccardTokens,
            SimilarityMeasure::JaccardChars,
            SimilarityMeasure::DiceBigrams,
            SimilarityMeasure::MongeElkan,
        ]
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SimilarityMeasure::Levenshtein => "levenshtein",
            SimilarityMeasure::DamerauLevenshtein => "damerau-levenshtein",
            SimilarityMeasure::Jaro => "jaro",
            SimilarityMeasure::JaroWinkler => "jaro-winkler",
            SimilarityMeasure::JaccardTokens => "jaccard-tokens",
            SimilarityMeasure::JaccardChars => "jaccard-chars",
            SimilarityMeasure::DiceBigrams => "dice-bigrams",
            SimilarityMeasure::MongeElkan => "monge-elkan",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_measure_is_reflexive_and_named() {
        for m in SimilarityMeasure::all() {
            assert!(
                (m.compare("CRCW0805-10K", "CRCW0805-10K") - 1.0).abs() < 1e-9,
                "{} not reflexive",
                m.name()
            );
            assert!(!m.name().is_empty());
        }
        let names: std::collections::HashSet<_> =
            SimilarityMeasure::all().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), SimilarityMeasure::all().len());
    }

    #[test]
    fn default_measure_is_levenshtein() {
        assert_eq!(SimilarityMeasure::default(), SimilarityMeasure::Levenshtein);
    }

    proptest! {
        /// All measures stay within [0, 1] and are symmetric on arbitrary input.
        #[test]
        fn prop_range_and_symmetry(a in "[a-zA-Z0-9 -]{0,20}", b in "[a-zA-Z0-9 -]{0,20}") {
            for m in SimilarityMeasure::all() {
                let ab = m.compare(&a, &b);
                let ba = m.compare(&b, &a);
                prop_assert!((0.0..=1.0).contains(&ab), "{} out of range: {}", m.name(), ab);
                prop_assert!((ab - ba).abs() < 1e-9, "{} not symmetric", m.name());
            }
        }
    }
}
