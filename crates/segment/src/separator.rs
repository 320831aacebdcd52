//! Separator-based segmentation — the splitter used in the paper's
//! evaluation.
//!
//! > "Partnumbers have been split into 7842 distinct segments (26077
//! > occurrences) using non-alphabetical and non-numerical characters
//! > (e.g. space, '-', '.', ...)."
//!
//! [`SeparatorSegmenter`] splits a value on a class of separator characters
//! and discards empty pieces; every segment is a slice of the value. On a
//! normalised value it is also the comparator's tokenisation.

use crate::pipeline::Segmenter;

/// Which characters act as separators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeparatorClass {
    /// Any character that is neither alphabetic nor numeric (the paper's
    /// choice for part numbers).
    NonAlphanumeric,
    /// Whitespace only (suitable for natural-language labels).
    Whitespace,
}

impl SeparatorClass {
    fn is_separator(&self, c: char) -> bool {
        match self {
            SeparatorClass::NonAlphanumeric => !c.is_alphanumeric(),
            SeparatorClass::Whitespace => c.is_whitespace(),
        }
    }
}

/// Splits values on separator characters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeparatorSegmenter {
    /// The class of characters treated as separators.
    pub class: SeparatorClass,
}

impl SeparatorSegmenter {
    /// The paper's configuration: split on non-alphanumeric characters and
    /// keep every non-empty segment.
    pub fn non_alphanumeric() -> Self {
        SeparatorSegmenter {
            class: SeparatorClass::NonAlphanumeric,
        }
    }

    /// Split on whitespace only.
    pub fn whitespace() -> Self {
        SeparatorSegmenter {
            class: SeparatorClass::Whitespace,
        }
    }
}

impl Default for SeparatorSegmenter {
    fn default() -> Self {
        Self::non_alphanumeric()
    }
}

impl Segmenter for SeparatorSegmenter {
    fn for_each_segment(&self, value: &str, visit: &mut dyn FnMut(&str)) {
        value
            .split(|c| self.class.is_separator(c))
            .filter(|s| !s.is_empty())
            .for_each(visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_part_numbers_like_the_paper() {
        let s = SeparatorSegmenter::non_alphanumeric();
        assert_eq!(
            s.split("CRCW0805-10K 5% 63V"),
            vec!["CRCW0805", "10K", "5", "63V"]
        );
        assert_eq!(s.split("T83.A225/K"), vec!["T83", "A225", "K"]);
        assert_eq!(s.split("ohm"), vec!["ohm"]);
    }

    #[test]
    fn empty_and_separator_only_values() {
        let s = SeparatorSegmenter::non_alphanumeric();
        assert!(s.split("").is_empty());
        assert!(s.split("--- . ;;").is_empty());
    }

    #[test]
    fn whitespace_class_keeps_punctuation() {
        let s = SeparatorSegmenter::whitespace();
        assert_eq!(
            s.split("Place de la Concorde"),
            vec!["Place", "de", "la", "Concorde"]
        );
        assert_eq!(s.split("10-K ohm"), vec!["10-K", "ohm"]);
    }

    #[test]
    fn unicode_values_split_cleanly() {
        let s = SeparatorSegmenter::non_alphanumeric();
        assert_eq!(
            s.split("résistance—à_couche"),
            vec!["résistance", "à", "couche"]
        );
    }

    proptest! {
        /// Every produced segment is a non-empty substring of the input and
        /// contains no separator character.
        #[test]
        fn prop_segments_are_clean_substrings(value in "\\PC{0,50}") {
            let s = SeparatorSegmenter::non_alphanumeric();
            for seg in s.split(&value) {
                prop_assert!(!seg.is_empty());
                prop_assert!(value.contains(&seg));
                prop_assert!(seg.chars().all(|c| c.is_alphanumeric()));
            }
        }

        /// Splitting is insensitive to leading/trailing separators.
        #[test]
        fn prop_outer_separators_ignored(value in "[A-Za-z0-9]{1,10}") {
            let s = SeparatorSegmenter::non_alphanumeric();
            let padded = format!("--{value}..");
            prop_assert_eq!(s.split(&padded), s.split(&value));
        }
    }
}
