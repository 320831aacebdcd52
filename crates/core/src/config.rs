//! Configuration of the rule learner.

use classilink_segment::SegmenterKind;
use serde::{Deserialize, Serialize};

/// Which properties of the external source the learner considers.
///
/// The paper: "Let P be a set of properties that are selected by an expert"
/// (Algorithm 1 also accepts "all if no selection"). In the evaluation, "the
/// expert has chosen the property part-number to predict the class".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PropertySelection {
    /// Use every data property observed in the training data.
    #[default]
    All,
    /// Use only the listed property IRIs.
    Only(Vec<String>),
    /// Use everything except the listed property IRIs (useful to drop
    /// properties known to be non-discriminative, such as the manufacturer
    /// in the paper's data).
    Except(Vec<String>),
}

impl PropertySelection {
    /// `true` when the property IRI should be considered by the learner.
    pub fn includes(&self, property_iri: &str) -> bool {
        match self {
            PropertySelection::All => true,
            PropertySelection::Only(list) => list.iter().any(|p| p == property_iri),
            PropertySelection::Except(list) => !list.iter().any(|p| p == property_iri),
        }
    }

    /// Select exactly one property.
    pub fn single(property_iri: impl Into<String>) -> Self {
        PropertySelection::Only(vec![property_iri.into()])
    }
}

/// Configuration of the learning algorithm (Algorithm 1 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnerConfig {
    /// The support threshold `th`: premise, class and conjunction frequencies
    /// must strictly exceed `th · |TS|` to be retained. The paper's
    /// evaluation uses `th = 0.002`.
    pub support_threshold: f64,
    /// Which external-source properties to consider.
    pub properties: PropertySelection,
    /// How property values are split into segments. Every value is first
    /// normalised with [`Normalizer::default`](classilink_segment::Normalizer).
    pub segmenter: SegmenterKind,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            support_threshold: 0.002,
            properties: PropertySelection::All,
            segmenter: SegmenterKind::Separator,
        }
    }
}

impl LearnerConfig {
    /// The configuration used in the paper's evaluation: `th = 0.002`,
    /// separator segmentation, most-specific classes.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Builder-style setter for the support threshold.
    pub fn with_support_threshold(mut self, th: f64) -> Self {
        self.support_threshold = th;
        self
    }

    /// Builder-style setter for the property selection.
    pub fn with_properties(mut self, properties: PropertySelection) -> Self {
        self.properties = properties;
        self
    }

    /// Builder-style setter for the segmenter.
    pub fn with_segmenter(mut self, segmenter: SegmenterKind) -> Self {
        self.segmenter = segmenter;
        self
    }

    /// Validate threshold ranges.
    pub fn validate(&self) -> crate::error::Result<()> {
        if !(self.support_threshold > 0.0 && self.support_threshold <= 1.0) {
            return Err(crate::error::CoreError::InvalidThreshold(
                self.support_threshold,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = LearnerConfig::default();
        assert_eq!(c.support_threshold, 0.002);
        assert_eq!(c.properties, PropertySelection::All);
        assert_eq!(c.segmenter, SegmenterKind::Separator);
        assert_eq!(LearnerConfig::paper(), c);
    }

    #[test]
    fn property_selection_includes() {
        let all = PropertySelection::All;
        assert!(all.includes("http://e.org/v#anything"));
        let only = PropertySelection::single("http://e.org/v#partNumber");
        assert!(only.includes("http://e.org/v#partNumber"));
        assert!(!only.includes("http://e.org/v#manufacturer"));
        let except = PropertySelection::Except(vec!["http://e.org/v#manufacturer".to_string()]);
        assert!(except.includes("http://e.org/v#partNumber"));
        assert!(!except.includes("http://e.org/v#manufacturer"));
    }

    #[test]
    fn builder_setters() {
        let c = LearnerConfig::default()
            .with_support_threshold(0.01)
            .with_properties(PropertySelection::single("http://e.org/v#pn"))
            .with_segmenter(SegmenterKind::CharNGram(3));
        assert_eq!(c.support_threshold, 0.01);
        assert_eq!(c.segmenter, SegmenterKind::CharNGram(3));
    }

    #[test]
    fn validation_rejects_bad_thresholds() {
        assert!(LearnerConfig::default().validate().is_ok());
        assert!(LearnerConfig::default()
            .with_support_threshold(0.0)
            .validate()
            .is_err());
        assert!(LearnerConfig::default()
            .with_support_threshold(-0.1)
            .validate()
            .is_err());
        assert!(LearnerConfig::default()
            .with_support_threshold(1.5)
            .validate()
            .is_err());
        assert!(LearnerConfig::default()
            .with_support_threshold(1.0)
            .validate()
            .is_ok());
    }
}
