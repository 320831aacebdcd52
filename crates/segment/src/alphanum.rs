//! Alphanumeric-transition segmentation.
//!
//! Part numbers such as `"CRCW0805"` or `"63V"` pack several meaningful
//! pieces into one token: a series prefix (`CRCW`), a package size (`0805`),
//! a value and a unit (`63` + `V`). The separator segmenter of the paper
//! keeps these fused; [`AlphaNumSegmenter`] additionally splits at every
//! letter↔digit boundary, which is one of the ablations studied (experiment
//! A1 of the experiment index in the `classilink-eval` crate docs).

use crate::pipeline::Segmenter;
use serde::{Deserialize, Serialize};

/// Splits on non-alphanumeric characters *and* at letter/digit transitions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlphaNumSegmenter {
    /// Minimum segment length (in characters); shorter segments are dropped.
    pub min_length: usize,
    /// Also keep the undivided separator-level tokens (e.g. keep both
    /// `crcw0805` and `crcw` / `0805`). This increases recall of the learnt
    /// rules at the cost of more candidate segments.
    pub keep_compound: bool,
}

impl Default for AlphaNumSegmenter {
    fn default() -> Self {
        AlphaNumSegmenter {
            min_length: 1,
            keep_compound: true,
        }
    }
}

impl AlphaNumSegmenter {
    /// A segmenter that keeps both compound tokens and their alpha/digit parts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the compound tokens and keep only the finest pieces.
    pub fn fine_only() -> Self {
        AlphaNumSegmenter {
            min_length: 1,
            keep_compound: false,
        }
    }

    /// Set the minimum kept segment length.
    pub fn min_length(mut self, min_length: usize) -> Self {
        self.min_length = min_length.max(1);
        self
    }

    fn split_token(&self, token: &str, out: &mut Vec<String>) {
        if self.keep_compound && token.chars().count() >= self.min_length {
            out.push(token.to_string());
        }
        let mut current = String::new();
        let mut current_is_digit: Option<bool> = None;
        let mut pieces = Vec::new();
        for c in token.chars() {
            let is_digit = c.is_numeric();
            match current_is_digit {
                Some(prev) if prev == is_digit => current.push(c),
                Some(_) => {
                    pieces.push(std::mem::take(&mut current));
                    current.push(c);
                    current_is_digit = Some(is_digit);
                }
                None => {
                    current.push(c);
                    current_is_digit = Some(is_digit);
                }
            }
        }
        if !current.is_empty() {
            pieces.push(current);
        }
        // If the token did not actually contain a transition, the single
        // piece equals the compound token — avoid emitting it twice.
        if pieces.len() == 1 && self.keep_compound {
            return;
        }
        for p in pieces {
            if p.chars().count() >= self.min_length {
                out.push(p);
            }
        }
    }
}

impl Segmenter for AlphaNumSegmenter {
    fn split(&self, value: &str) -> Vec<String> {
        let mut out = Vec::new();
        for token in value.split(|c: char| !c.is_alphanumeric()) {
            if token.is_empty() {
                continue;
            }
            self.split_token(token, &mut out);
        }
        out
    }

    fn name(&self) -> &'static str {
        "alphanum-transition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_at_letter_digit_boundaries() {
        let s = AlphaNumSegmenter::fine_only();
        assert_eq!(s.split("CRCW0805"), vec!["CRCW", "0805"]);
        assert_eq!(s.split("63V"), vec!["63", "V"]);
        assert_eq!(s.split("T83A225K"), vec!["T", "83", "A", "225", "K"]);
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
    fn min_length_applies_to_all_pieces() {
        let s = AlphaNumSegmenter::fine_only().min_length(2);
        assert_eq!(s.split("63V"), vec!["63"]);
        let s2 = AlphaNumSegmenter::new().min_length(3);
        assert_eq!(s2.split("63V"), vec!["63V"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        let s = AlphaNumSegmenter::new();
        assert!(s.split("").is_empty());
        assert!(s.split("-- . --").is_empty());
    }

    #[test]
    fn segmenter_name() {
        assert_eq!(AlphaNumSegmenter::new().name(), "alphanum-transition");
    }

    proptest! {
        /// Fine pieces are single-kind (all digits or all non-digits) and are
        /// substrings of the input.
        #[test]
        fn prop_fine_pieces_are_uniform(value in "[A-Za-z0-9 -]{0,40}") {
            let s = AlphaNumSegmenter::fine_only();
            for seg in s.split(&value) {
                prop_assert!(!seg.is_empty());
                prop_assert!(value.contains(&seg));
                let all_digits = seg.chars().all(|c| c.is_numeric());
                let no_digits = seg.chars().all(|c| !c.is_numeric());
                prop_assert!(all_digits || no_digits);
            }
        }

        /// With compounds kept, the output is a superset of the fine-only output.
        #[test]
        fn prop_compound_is_superset(value in "[A-Za-z0-9 -]{0,40}") {
            let fine: Vec<String> = AlphaNumSegmenter::fine_only().split(&value);
            let full: Vec<String> = AlphaNumSegmenter::new().split(&value);
            for seg in fine {
                prop_assert!(full.contains(&seg), "missing {seg}");
            }
        }
    }
}
