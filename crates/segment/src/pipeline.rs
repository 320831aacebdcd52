//! The [`Segmenter`] trait and the [`SegmenterKind`] configuration.
//!
//! The paper leaves the choice of the `split` function to a domain expert:
//! "The way a value is split into segments is specified by a domain expert.
//! One can use separation characters (e.g., ':', '-', ';', ' ') or n-grams."
//! The trait below is that extension point; [`SegmenterKind`] is a serialisable
//! configuration enum so experiments can sweep over segmenters. Values reach
//! a segmenter already normalised (see [`crate::normalize`]).

use crate::alphanum::AlphaNumSegmenter;
use crate::ngram::{CharNGramSegmenter, WordNGramSegmenter};
use crate::separator::SeparatorSegmenter;
use serde::{Deserialize, Serialize};

/// Splits a property value into segments.
pub trait Segmenter: Send + Sync {
    /// Hand every segment of `value` to `visit`, in order; segments may
    /// repeat. A segment is borrowed for the one call — a slice of `value`
    /// wherever it is one — so a caller that looks segments up or interns
    /// them allocates nothing per segment.
    fn for_each_segment(&self, value: &str, visit: &mut dyn FnMut(&str));

    /// The segments of `value` as owned strings, in order; segments may
    /// repeat. The caller decides whether occurrences or distinct segments
    /// matter.
    fn split(&self, value: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_segment(value, &mut |segment| out.push(segment.to_string()));
        out
    }

    /// Split and deduplicate, preserving first-occurrence order. The paper's
    /// `subsegment` predicate only expresses that a segment "occurs at least
    /// one time in the value".
    fn split_distinct(&self, value: &str) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        self.split(value)
            .into_iter()
            .filter(|s| seen.insert(s.clone()))
            .collect()
    }
}

/// A serialisable choice of segmentation strategy. It segments by itself:
/// the learner and the classifier split through their configured kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SegmenterKind {
    /// Split on non-alphanumeric separators (the paper's default).
    #[default]
    Separator,
    /// Split on whitespace only.
    Whitespace,
    /// Split on separators and letter/digit transitions.
    AlphaNumTransition,
    /// Character n-grams of the given size.
    CharNGram(usize),
    /// Padded character bigrams.
    PaddedBigram,
    /// Word n-grams of the given size.
    WordNGram(usize),
}

impl SegmenterKind {
    /// This configuration as a boxed segmenter.
    pub fn build(&self) -> Box<dyn Segmenter> {
        Box::new(self.clone())
    }

    /// A short, stable name for reports.
    pub fn name(&self) -> String {
        match self {
            SegmenterKind::Separator => "separator".to_string(),
            SegmenterKind::Whitespace => "whitespace".to_string(),
            SegmenterKind::AlphaNumTransition => "alphanum-transition".to_string(),
            SegmenterKind::CharNGram(n) => format!("char-{n}gram"),
            SegmenterKind::PaddedBigram => "padded-bigram".to_string(),
            SegmenterKind::WordNGram(n) => format!("word-{n}gram"),
        }
    }
}

impl Segmenter for SegmenterKind {
    fn for_each_segment(&self, value: &str, visit: &mut dyn FnMut(&str)) {
        let segmenter: &dyn Segmenter = match self {
            SegmenterKind::Separator => &SeparatorSegmenter::non_alphanumeric(),
            SegmenterKind::Whitespace => &SeparatorSegmenter::whitespace(),
            SegmenterKind::AlphaNumTransition => &AlphaNumSegmenter,
            SegmenterKind::CharNGram(n) => &CharNGramSegmenter::new(*n),
            SegmenterKind::PaddedBigram => &CharNGramSegmenter::padded_bigrams(),
            SegmenterKind::WordNGram(n) => &WordNGramSegmenter::new(*n),
        };
        segmenter.for_each_segment(value, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_distinct_deduplicates_in_order() {
        let s = SeparatorSegmenter::non_alphanumeric();
        assert_eq!(
            s.split_distinct("A-B-A-C-B"),
            vec!["A".to_string(), "B".to_string(), "C".to_string()]
        );
        assert_eq!(s.split("A-B-A").len(), 3);
    }

    #[test]
    fn kind_builds_matching_segmenter() {
        for (kind, value, expect_contains) in [
            (SegmenterKind::Separator, "CRCW0805-63V", "CRCW0805"),
            (SegmenterKind::Whitespace, "Louvre Museum", "Museum"),
            (SegmenterKind::AlphaNumTransition, "63V", "V"),
            (SegmenterKind::CharNGram(2), "ohm", "oh"),
            (SegmenterKind::PaddedBigram, "ab", "#a"),
            (
                SegmenterKind::WordNGram(2),
                "Dresden Elbe Valley",
                "Dresden Elbe",
            ),
        ] {
            let seg = kind.build();
            let out = seg.split(value);
            assert!(
                out.iter().any(|s| s == expect_contains),
                "{kind:?} on {value:?} gave {out:?}, expected to contain {expect_contains:?}"
            );
        }
    }

    #[test]
    fn kind_names_are_distinct() {
        let kinds = [
            SegmenterKind::Separator,
            SegmenterKind::Whitespace,
            SegmenterKind::AlphaNumTransition,
            SegmenterKind::CharNGram(3),
            SegmenterKind::PaddedBigram,
            SegmenterKind::WordNGram(2),
        ];
        let names: std::collections::HashSet<String> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
        assert_eq!(SegmenterKind::default(), SegmenterKind::Separator);
    }

    #[test]
    fn boxed_segmenter_delegates() {
        let boxed: Box<dyn Segmenter> = SegmenterKind::Separator.build();
        assert_eq!(boxed.split("a-b"), vec!["a", "b"]);
        assert_eq!(boxed.split_distinct("a-a"), vec!["a"]);
    }
}
