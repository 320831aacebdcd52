//! Token- and set-based similarities: Jaccard, Dice and Monge-Elkan.
//!
//! # Tokenisation and bigram conventions
//!
//! All token measures share one tokenisation, the learner's: the value is
//! normalised by `classilink_segment::Normalizer` (lowercased, accents
//! folded, whitespace collapsed) and split by its `SeparatorSegmenter` on
//! non-alphanumeric characters, empty fragments dropped — so `"Würth"`
//! and `"wurth"` are one token.
//!
//! All character-bigram measures share one **short-string convention**:
//! bigrams are adjacent pairs of the *lowercased*
//! string's scalar values, and a string with fewer than two scalar
//! values has **no** bigrams (it is never smuggled in as a unigram, so a
//! unigram can never "intersect" a bigram). When *both* sides of a
//! bigram measure have no bigrams the measure falls back to lowercased
//! string equality (`1.0` if equal, `0.0` otherwise); when exactly one
//! side has no bigrams the similarity is `0.0`.
//!
//! The four measures run the kernels the comparator runs on a store's
//! per-column token tables (`crate::token_index`), on a two-value table
//! built for the one pair; `similarity::naive` holds the per-pair
//! `HashSet` versions they are tested against.

use super::scratch::SimScratch;
use crate::token_index::{
    dice_bigrams_kernel, jaccard_bigrams_kernel, jaccard_tokens_kernel, monge_elkan_kernel,
    TokenTable, ValueTokens,
};

/// Adjacent scalar-value pairs of the lowercased string — the shared
/// bigram alphabet of [`char_bigrams`] and the token-index kernels. An
/// ASCII value is lowercased byte by byte, allocating nothing (what
/// `str::to_lowercase` answers for it); any other takes `to_lowercase`,
/// whose final-sigma rule depends on the whole value.
pub(crate) fn bigram_pairs(s: &str) -> impl Iterator<Item = (char, char)> + '_ {
    let (ascii, lowered): (&[u8], Vec<char>) = if s.is_ascii() {
        (s.as_bytes(), Vec::new())
    } else {
        (&[], s.to_lowercase().chars().collect())
    };
    let lower = |b: u8| char::from(b.to_ascii_lowercase());
    let ascii = ascii.windows(2).map(move |w| (lower(w[0]), lower(w[1])));
    ascii.chain((1..lowered.len()).map(move |i| (lowered[i - 1], lowered[i])))
}

/// The character bigrams of the lowercased string. A string with fewer
/// than two scalar values (after lowercasing) has **no** bigrams — see
/// the short-string convention in the [module docs](self).
pub(crate) fn char_bigrams(s: &str) -> Vec<String> {
    bigram_pairs(s)
        .map(|(a, b)| {
            let mut gram = String::with_capacity(a.len_utf8() + b.len_utf8());
            gram.push(a);
            gram.push(b);
            gram
        })
        .collect()
}

/// Case-insensitive string equality without allocating (compares the
/// `char::to_lowercase` expansions) — the bigram measures' tie-breaker
/// when neither side has any bigram.
pub(crate) fn lowercase_eq(a: &str, b: &str) -> bool {
    a.chars()
        .flat_map(char::to_lowercase)
        .eq(b.chars().flat_map(char::to_lowercase))
}

/// Tokenise the two sides into one two-value [`TokenTable`] and run
/// `kernel` on their views — the one-pair form of what a store does per
/// column.
fn pair_kernel(
    a: &str,
    b: &str,
    kernel: impl FnOnce(&ValueTokens<'_>, &ValueTokens<'_>) -> f64,
) -> f64 {
    let table = TokenTable::build([a, b].into_iter());
    kernel(&table.value_tokens(0, a), &table.value_tokens(1, b))
}

/// Jaccard similarity over normalised alphanumeric tokens (see the
/// [module docs](self)).
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    pair_kernel(a, b, jaccard_tokens_kernel)
}

/// Jaccard similarity over character bigrams (short-string convention:
/// see the [module docs](self)).
pub fn jaccard_chars(a: &str, b: &str) -> f64 {
    pair_kernel(a, b, jaccard_bigrams_kernel)
}

/// Dice coefficient over character bigrams: `2·|A∩B| / (|A| + |B|)`
/// (short-string convention: see the [module docs](self)).
pub fn dice_bigrams(a: &str, b: &str) -> f64 {
    pair_kernel(a, b, dice_bigrams_kernel)
}

/// Monge-Elkan similarity: for each token of `a`, take its best
/// Jaro-Winkler match among the tokens of `b`, then average; symmetrised by
/// taking the mean of both directions.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    let mut scratch = SimScratch::new();
    pair_kernel(a, b, |x, y| monge_elkan_kernel(x, y, &mut scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`bigram_pairs`] through `str::to_lowercase` alone, for any value.
    fn lowercased_pairs(s: &str) -> Vec<(char, char)> {
        let lowered: Vec<char> = s.to_lowercase().chars().collect();
        lowered.windows(2).map(|w| (w[0], w[1])).collect()
    }

    proptest! {
        /// The ASCII byte path yields what `to_lowercase` yields.
        #[test]
        fn ascii_bigram_pairs_agree_with_to_lowercase(s in "[\\x00-\\x7f]{0,24}") {
            prop_assert!(s.is_ascii());
            prop_assert_eq!(bigram_pairs(&s).collect::<Vec<_>>(), lowercased_pairs(&s));
        }
    }

    #[test]
    fn bigram_pairs_keep_to_lowercase_beyond_ascii() {
        for s in [
            "",
            "A",
            "AB",
            "CRCW0805-10K",
            "ΟΔΟΣ",
            "Σ",
            "İx",
            "Straße",
            "aÉb",
        ] {
            assert_eq!(
                bigram_pairs(s).collect::<Vec<_>>(),
                lowercased_pairs(s),
                "{s:?}"
            );
        }
        // The final sigma is a property of the whole value.
        assert_eq!(bigram_pairs("ΟΣ").last(), Some(('ο', 'ς')));
    }

    #[test]
    fn jaccard_tokens_basic() {
        assert_eq!(
            jaccard_tokens("fixed film resistor", "fixed film resistor"),
            1.0
        );
        assert_eq!(jaccard_tokens("fixed film", "film fixed"), 1.0);
        assert!((jaccard_tokens("fixed film resistor", "film capacitor") - 0.25).abs() < 1e-12);
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert_eq!(jaccard_tokens("abc", ""), 0.0);
        // Accents fold the way the learner folds them.
        assert_eq!(jaccard_tokens("Würth", "wurth"), 1.0);
        assert_eq!(
            jaccard_tokens("Résistance à couche", "resistance-a-couche"),
            1.0
        );
    }

    #[test]
    fn jaccard_and_dice_chars() {
        assert_eq!(jaccard_chars("night", "night"), 1.0);
        assert!(jaccard_chars("night", "nacht") < 1.0);
        assert!(jaccard_chars("night", "nacht") > 0.0);
        assert!(dice_bigrams("night", "nacht") >= jaccard_chars("night", "nacht"));
        assert_eq!(dice_bigrams("", ""), 1.0);
        assert_eq!(dice_bigrams("a", "a"), 1.0);
    }

    #[test]
    fn short_string_convention() {
        // Fewer than two chars → no bigrams; never a unigram-vs-bigram
        // comparison.
        assert!(char_bigrams("a").is_empty());
        assert!(char_bigrams("").is_empty());
        assert_eq!(char_bigrams("ab"), vec!["ab".to_string()]);
        // Both sides bigram-less: lowercased equality decides.
        assert_eq!(dice_bigrams("a", "A"), 1.0);
        assert_eq!(jaccard_chars("a", "b"), 0.0);
        assert_eq!(jaccard_chars("a", ""), 0.0);
        // One side bigram-less: 0, not a unigram intersection.
        assert_eq!(dice_bigrams("a", "ab"), 0.0);
        assert_eq!(jaccard_chars("x", "xyz"), 0.0);
    }

    #[test]
    fn monge_elkan_tolerates_token_typos() {
        let a = "vishay fixed film resistor";
        let b = "vishai fixd film resistor";
        assert!(monge_elkan(a, b) > 0.9);
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(monge_elkan("a", ""), 0.0);
        assert!(monge_elkan("abc def", "abc def") > 0.999);
    }

    proptest! {
        /// Set-based measures stay within [0,1], are symmetric and reflexive.
        #[test]
        fn prop_token_measures(a in "[a-z0-9 ]{0,25}", b in "[a-z0-9 ]{0,25}") {
            for f in [jaccard_tokens, jaccard_chars, dice_bigrams, monge_elkan] {
                let ab = f(&a, &b);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
                prop_assert!((ab - f(&b, &a)).abs() < 1e-9);
                prop_assert!((f(&a, &a) - 1.0).abs() < 1e-9);
            }
        }
    }
}
