//! Alphanumeric-transition segmentation.
//!
//! Part numbers such as `"CRCW0805"` or `"63V"` pack several meaningful
//! pieces into one token: a series prefix (`CRCW`), a package size (`0805`),
//! a value and a unit (`63` + `V`). The separator segmenter of the paper
//! keeps these fused; [`AlphaNumSegmenter`] keeps them too and additionally
//! emits the pieces between letter↔digit boundaries, which is one of the
//! ablations studied (experiment A1 of the experiment index in the
//! `classilink-eval` crate docs).

use crate::pipeline::Segmenter;

/// Splits on non-alphanumeric characters *and* at letter/digit transitions,
/// keeping the undivided separator-level tokens too (both `crcw0805` and
/// `crcw` / `0805`): more candidate segments, more recall of the learnt
/// rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlphaNumSegmenter;

impl AlphaNumSegmenter {
    /// A segmenter that keeps both compound tokens and their alpha/digit parts.
    pub fn new() -> Self {
        AlphaNumSegmenter
    }
}

impl Segmenter for AlphaNumSegmenter {
    fn for_each_segment(&self, value: &str, visit: &mut dyn FnMut(&str)) {
        for token in value.split(|c: char| !c.is_alphanumeric()) {
            let mut chars = token.char_indices();
            let Some((_, first)) = chars.next() else {
                continue;
            };
            visit(token);
            // The pieces between digit/non-digit transitions, each a slice
            // of the token. A token without a transition is one piece equal
            // to itself: it is not emitted twice.
            let (mut start, mut digit) = (0, first.is_numeric());
            for (i, c) in chars {
                if c.is_numeric() != digit {
                    visit(&token[start..i]);
                    (start, digit) = (i, !digit);
                }
            }
            if start > 0 {
                visit(&token[start..]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_at_letter_digit_boundaries() {
        let s = AlphaNumSegmenter::new();
        assert_eq!(s.split("CRCW0805"), vec!["CRCW0805", "CRCW", "0805"]);
        assert_eq!(s.split("63V"), vec!["63V", "63", "V"]);
        assert_eq!(
            s.split("T83A225K"),
            vec!["T83A225K", "T", "83", "A", "225", "K"]
        );
    }

    #[test]
    fn compound_tokens_are_kept_by_default() {
        let s = AlphaNumSegmenter::new();
        let segs = s.split("CRCW0805-10K");
        assert!(segs.contains(&"CRCW0805".to_string()));
        assert!(segs.contains(&"CRCW".to_string()));
        assert!(segs.contains(&"0805".to_string()));
        assert!(segs.contains(&"10K".to_string()));
        assert!(segs.contains(&"10".to_string()));
        assert!(segs.contains(&"K".to_string()));
    }

    #[test]
    fn no_transition_token_is_not_duplicated() {
        let s = AlphaNumSegmenter::new();
        assert_eq!(s.split("ohm"), vec!["ohm"]);
        assert_eq!(s.split("4700"), vec!["4700"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        let s = AlphaNumSegmenter::new();
        assert!(s.split("").is_empty());
        assert!(s.split("-- . --").is_empty());
    }

    proptest! {
        /// Every segment is a non-empty substring of the input, and every
        /// segment that is not a whole separator-level token is single-kind
        /// (all digits or all non-digits).
        #[test]
        fn prop_pieces_are_uniform(value in "[A-Za-z0-9 -]{0,40}") {
            let tokens: Vec<&str> = value.split([' ', '-']).collect();
            for seg in AlphaNumSegmenter::new().split(&value) {
                prop_assert!(!seg.is_empty());
                prop_assert!(value.contains(&seg));
                let all_digits = seg.chars().all(|c| c.is_numeric());
                let no_digits = seg.chars().all(|c| !c.is_numeric());
                prop_assert!(all_digits || no_digits || tokens.contains(&seg.as_str()));
            }
        }
    }
}
