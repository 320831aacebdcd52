//! N-gram segmentation.
//!
//! The paper mentions that values may be split "using separation characters
//! (e.g., ':', '-', ';', ' ') **or n-grams**", and its related-work section
//! describes bi-gram blocking. This module provides character n-grams
//! (optionally padded, as used by bi-gram indexing) and word n-grams.

use crate::pipeline::Segmenter;
use serde::{Deserialize, Serialize};

/// Character n-gram segmenter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CharNGramSegmenter {
    /// The n-gram size (≥ 1).
    pub n: usize,
    /// Pad the value with `n - 1` occurrences of `#` on both sides, so that
    /// prefixes/suffixes produce their own grams (classic blocking
    /// practice).
    pub padded: bool,
}

impl CharNGramSegmenter {
    /// Unpadded character n-grams.
    pub fn new(n: usize) -> Self {
        CharNGramSegmenter {
            n: n.max(1),
            padded: false,
        }
    }

    /// Padded character bigrams, as used by the bi-gram blocking baseline.
    pub fn padded_bigrams() -> Self {
        CharNGramSegmenter { n: 2, padded: true }
    }
}

impl Segmenter for CharNGramSegmenter {
    fn for_each_segment(&self, value: &str, visit: &mut dyn FnMut(&str)) {
        let padded;
        let text = if self.padded {
            let pad = "#".repeat(self.n - 1);
            padded = format!("{pad}{value}{pad}");
            &padded
        } else {
            value
        };
        // Gram `i` runs from the start of scalar `i` to the start of scalar
        // `i + n` (or the end). A text shorter than `n` has one end and so
        // yields itself, if non-empty: no information is silently lost.
        let bounds = || text.char_indices().map(|(i, _)| i);
        let ends = bounds().skip(self.n).chain([text.len()]);
        bounds().zip(ends).for_each(|(a, b)| visit(&text[a..b]));
    }
}

/// Word n-gram segmenter: n-grams over whitespace-separated tokens, the
/// words of one gram joined by a single space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordNGramSegmenter {
    /// The n-gram size (≥ 1). `n = 1` is plain word tokenisation.
    pub n: usize,
}

impl WordNGramSegmenter {
    /// Word n-grams.
    pub fn new(n: usize) -> Self {
        WordNGramSegmenter { n: n.max(1) }
    }
}

impl Segmenter for WordNGramSegmenter {
    fn for_each_segment(&self, value: &str, visit: &mut dyn FnMut(&str)) {
        let words: Vec<&str> = value.split_whitespace().collect();
        // Fewer words than `n`: the one gram is all of them (none if none).
        let mut gram = String::new();
        for window in words.windows(self.n.min(words.len()).max(1)) {
            gram.clear();
            for word in window {
                gram.push_str(word);
                gram.push(' ');
            }
            visit(&gram[..gram.len() - 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn char_bigrams_unpadded() {
        let s = CharNGramSegmenter::new(2);
        assert_eq!(s.split("ohm"), vec!["oh", "hm"]);
        assert_eq!(s.split("ab"), vec!["ab"]);
    }

    #[test]
    fn char_trigram() {
        let s = CharNGramSegmenter::new(3);
        assert_eq!(s.split("t83a"), vec!["t83", "83a"]);
    }

    #[test]
    fn short_values_yield_themselves() {
        let s = CharNGramSegmenter::new(3);
        assert_eq!(s.split("ab"), vec!["ab"]);
        assert_eq!(s.split("a"), vec!["a"]);
        assert!(s.split("").is_empty());
    }

    #[test]
    fn padded_bigrams_cover_prefix_and_suffix() {
        let s = CharNGramSegmenter::padded_bigrams();
        assert_eq!(s.split("ab"), vec!["#a", "ab", "b#"]);
        assert_eq!(s.split("x"), vec!["#x", "x#"]);
    }

    #[test]
    fn n_zero_is_clamped_to_one() {
        let s = CharNGramSegmenter::new(0);
        assert_eq!(s.n, 1);
        assert_eq!(s.split("ab"), vec!["a", "b"]);
    }

    #[test]
    fn unicode_grams_do_not_split_codepoints() {
        let s = CharNGramSegmenter::new(2);
        assert_eq!(s.split("éà"), vec!["éà"]);
        assert_eq!(s.split("éàe"), vec!["éà", "àe"]);
    }

    #[test]
    fn word_unigrams_and_bigrams() {
        let w1 = WordNGramSegmenter::new(1);
        assert_eq!(
            w1.split("Dresden Elbe Valley"),
            vec!["Dresden", "Elbe", "Valley"]
        );
        let w2 = WordNGramSegmenter::new(2);
        assert_eq!(
            w2.split("Dresden Elbe Valley"),
            vec!["Dresden Elbe", "Elbe Valley"]
        );
    }

    #[test]
    fn word_ngrams_short_input() {
        let w3 = WordNGramSegmenter::new(3);
        assert_eq!(w3.split("Copacabana Beach"), vec!["Copacabana Beach"]);
        assert!(w3.split("   ").is_empty());
        assert!(w3.split("").is_empty());
    }

    proptest! {
        /// Unpadded char n-grams: every gram has exactly n chars (when the
        /// input is at least n chars long) and the number of grams is
        /// len - n + 1.
        #[test]
        fn prop_char_ngram_counts(value in "[a-z0-9]{0,30}", n in 1usize..5) {
            let s = CharNGramSegmenter::new(n);
            let grams = s.split(&value);
            let len = value.chars().count();
            if len >= n {
                prop_assert_eq!(grams.len(), len - n + 1);
                for g in &grams {
                    prop_assert_eq!(g.chars().count(), n);
                    prop_assert!(value.contains(g.as_str()));
                }
            } else if len > 0 {
                prop_assert_eq!(grams, vec![value.clone()]);
            } else {
                prop_assert!(grams.is_empty());
            }
        }

        /// Word n-grams always contain between 1 and n words.
        #[test]
        fn prop_word_ngram_word_counts(value in "[a-z ]{0,40}", n in 1usize..4) {
            let s = WordNGramSegmenter::new(n);
            for gram in s.split(&value) {
                let words = gram.split_whitespace().count();
                prop_assert!(words >= 1 && words <= n);
            }
        }
    }
}
