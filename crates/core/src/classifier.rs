//! Applying learnt rules to classify new external data items.
//!
//! "When new data has to be integrated in an existing RDF data source, these
//! rules are used to identify the classes which have to be compared to these
//! new data." The [`RuleClassifier`] indexes the learnt rules by
//! `(property, segment)` so that classifying one external item only touches
//! the rules its own segments can trigger.

use crate::config::LearnerConfig;
use crate::learner::LearnOutcome;
use crate::rule::ClassificationRule;
use classilink_ontology::ClassId;
use classilink_segment::{Normalizer, Segmenter, SegmenterKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A predicted class for one external item, scored by the best rule that
/// concluded it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// The predicted class.
    pub class: ClassId,
    /// IRI of the predicted class.
    pub class_iri: String,
    /// Confidence of the best rule that fired for this class.
    pub confidence: f64,
    /// Lift of the best rule that fired for this class.
    pub lift: f64,
}

/// A classifier built from learnt rules.
///
/// Rules concluding on the same class for a given item determine the same
/// linking subspace; following the paper, only the best-confidence one is
/// kept per class (its confidence and lift become the prediction's scores).
#[derive(Debug, Clone)]
pub struct RuleClassifier {
    rules: Vec<ClassificationRule>,
    /// property IRI → segment → indexes into `rules`. Nested maps so that
    /// classification can look facts up with borrowed `&str` keys —
    /// columnar record stores feed this without allocating per fact.
    index: HashMap<String, HashMap<String, Vec<usize>>>,
    segmenter: SegmenterKind,
}

impl RuleClassifier {
    /// Build a classifier from rules, using the given segmenter (it must
    /// match the one the rules were learnt with).
    pub fn new(rules: Vec<ClassificationRule>, segmenter: SegmenterKind) -> Self {
        let mut index: HashMap<String, HashMap<String, Vec<usize>>> = HashMap::new();
        for (i, rule) in rules.iter().enumerate() {
            index
                .entry(rule.property.clone())
                .or_default()
                .entry(rule.segment.clone())
                .or_default()
                .push(i);
        }
        RuleClassifier {
            rules,
            index,
            segmenter,
        }
    }

    /// Build a classifier directly from a learning outcome and the
    /// configuration it was produced with.
    pub fn from_outcome(outcome: &LearnOutcome, config: &LearnerConfig) -> Self {
        Self::new(outcome.rules.clone(), config.segmenter.clone())
    }

    /// The rules backing this classifier, in ranking order.
    pub fn rules(&self) -> &[ClassificationRule] {
        &self.rules
    }

    /// A classifier restricted to rules with confidence at least
    /// `min_confidence` (used to produce the rows of Table 1).
    pub fn with_min_confidence(&self, min_confidence: f64) -> RuleClassifier {
        let rules: Vec<ClassificationRule> = self
            .rules
            .iter()
            .filter(|r| r.confidence() >= min_confidence - 1e-12)
            .cloned()
            .collect();
        Self::new(rules, self.segmenter.clone())
    }

    /// Classify an external item given as borrowed `(property IRI, value)`
    /// facts — what a columnar record store's `facts(e)` yields. Each value
    /// is normalised into one buffer and its segments are looked up as
    /// borrowed slices: nothing is allocated per segment.
    ///
    /// Returns one prediction per class that at least one rule concluded,
    /// ranked by confidence then lift (the paper's subspace ordering).
    pub fn classify_fact_refs<'f>(
        &self,
        facts: impl IntoIterator<Item = (&'f str, &'f str)>,
    ) -> Vec<Prediction> {
        // class → best rule index. A segment repeated in a value re-fires
        // rules whose best is already kept, so segments need no dedup.
        let mut best_of: HashMap<ClassId, usize> = HashMap::new();
        let segmenter = &self.segmenter;
        let mut normalised = String::new();
        for (property, value) in facts {
            let Some(segment_index) = self.index.get(property) else {
                continue;
            };
            Normalizer.apply_into(value, &mut normalised);
            segmenter.for_each_segment(&normalised, &mut |segment| {
                let Some(rule_indexes) = segment_index.get(segment) else {
                    return;
                };
                for &ri in rule_indexes {
                    let best = best_of.entry(self.rules[ri].class).or_insert(ri);
                    // Keep the best-ranked rule as the representative.
                    if self.rules[*best].ranking_cmp(&self.rules[ri]).is_gt() {
                        *best = ri;
                    }
                }
            });
        }
        let mut predictions: Vec<Prediction> = best_of
            .into_iter()
            .map(|(class, best)| {
                let rule = &self.rules[best];
                Prediction {
                    class,
                    class_iri: rule.class_iri.clone(),
                    confidence: rule.confidence(),
                    lift: rule.lift(),
                }
            })
            .collect();
        predictions.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    b.lift
                        .partial_cmp(&a.lift)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then_with(|| a.class_iri.cmp(&b.class_iri))
        });
        predictions
    }

    /// The single best prediction for an item's facts (a "decision" in the
    /// paper's Table 1 vocabulary), if any rule fired.
    pub fn decide(&self, facts: &[(String, String)]) -> Option<Prediction> {
        self.classify_fact_refs(facts.iter().map(|(p, v)| (p.as_str(), v.as_str())))
            .into_iter()
            .next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LearnerConfig, PropertySelection};
    use crate::learner::RuleLearner;
    use crate::measures::Contingency;
    use crate::training::{TrainingExample, TrainingSet};
    use classilink_ontology::OntologyBuilder;
    use classilink_rdf::Term;

    const PN: &str = "http://provider.e.org/v#partNumber";

    fn rule(segment: &str, class: u32, premise: u64, both: u64) -> ClassificationRule {
        ClassificationRule {
            property: PN.to_string(),
            segment: segment.to_string(),
            class: ClassId(class),
            class_iri: format!("http://e.org/c#C{class}"),
            class_label: format!("C{class}"),
            quality: Contingency::new(1000, premise, 100, both).quality(),
        }
    }

    fn facts(pn: &str) -> Vec<(String, String)> {
        vec![(PN.to_string(), pn.to_string())]
    }

    fn classifier(rules: Vec<ClassificationRule>) -> RuleClassifier {
        RuleClassifier::new(rules, SegmenterKind::Separator)
    }

    fn classify(c: &RuleClassifier, pn: &str) -> Vec<Prediction> {
        c.classify_fact_refs([(PN, pn)])
    }

    #[test]
    fn classification_returns_ranked_predictions() {
        let c = classifier(vec![
            rule("ohm", 1, 50, 50),  // conf 1.0
            rule("63v", 2, 100, 60), // conf 0.6
            rule("63v", 1, 100, 40), // conf 0.4 (same premise, class 1)
        ]);
        let preds = classify(&c, "CRCW0805-10K-ohm-63V");
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].class, ClassId(1));
        assert_eq!(preds[0].confidence, 1.0);
        assert_eq!(preds[1].class, ClassId(2));
        assert!((preds[1].confidence - 0.6).abs() < 1e-12);
    }

    #[test]
    fn same_class_rules_are_deduplicated_keeping_best() {
        let c = classifier(vec![rule("ohm", 1, 50, 50), rule("63v", 1, 100, 40)]);
        let preds = classify(&c, "ohm 63V");
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].confidence, 1.0);
    }

    #[test]
    fn no_matching_rule_means_no_prediction() {
        let c = classifier(vec![rule("ohm", 1, 50, 50)]);
        assert!(classify(&c, "T83-A225").is_empty());
        assert!(c.classify_fact_refs([]).is_empty());
        assert!(c.decide(&facts("T83-A225")).is_none());
    }

    #[test]
    fn property_must_match() {
        let c = classifier(vec![rule("ohm", 1, 50, 50)]);
        assert!(c
            .classify_fact_refs([("http://other.org/v#label", "ohm")])
            .is_empty());
    }

    #[test]
    fn decide_returns_top_prediction() {
        let c = classifier(vec![rule("ohm", 1, 50, 50), rule("t83", 2, 80, 40)]);
        let d = c.decide(&facts("ohm")).unwrap();
        assert_eq!(d.class, ClassId(1));
    }

    #[test]
    fn min_confidence_filter() {
        let c = classifier(vec![rule("ohm", 1, 50, 50), rule("63v", 2, 100, 60)]);
        let strict = c.with_min_confidence(0.9);
        assert_eq!(strict.rules().len(), 1);
        assert!(classify(&strict, "63V").is_empty());
        assert_eq!(classify(&strict, "ohm").len(), 1);
        // Threshold exactly at a rule's confidence keeps the rule.
        let exact = c.with_min_confidence(0.6);
        assert_eq!(exact.rules().len(), 2);
    }

    #[test]
    fn normalization_matches_learning() {
        // Rules store lowercase segments; classification of an uppercase
        // value must still fire.
        let c = classifier(vec![rule("ohm", 1, 50, 50)]);
        assert_eq!(classify(&c, "10K-OHM").len(), 1);
    }

    #[test]
    fn end_to_end_learn_then_classify() {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let resistor = b.class("FixedFilmResistor", Some(root));
        let capacitor = b.class("TantalumCapacitor", Some(root));
        let onto = b.build();

        let mut ts = TrainingSet::new();
        for i in 0..10 {
            ts.push(TrainingExample::new(
                Term::iri(format!("http://p.e.org/{i}")),
                Term::iri(format!("http://l.e.org/{i}")),
                facts(&format!("CRCW08{i:02}-ohm")),
                vec![resistor],
            ));
        }
        for i in 10..20 {
            ts.push(TrainingExample::new(
                Term::iri(format!("http://p.e.org/{i}")),
                Term::iri(format!("http://l.e.org/{i}")),
                facts(&format!("T83-A{i}")),
                vec![capacitor],
            ));
        }
        let config = LearnerConfig::default()
            .with_support_threshold(0.05)
            .with_properties(PropertySelection::single(PN));
        let outcome = RuleLearner::new(config.clone()).learn(&ts, &onto).unwrap();
        let classifier = RuleClassifier::from_outcome(&outcome, &config);

        let d = classifier.decide(&facts("CRCW0899-10K-ohm")).unwrap();
        assert_eq!(d.class, resistor);
        assert_eq!(d.confidence, 1.0);
        let d2 = classifier.decide(&facts("T83-B777")).unwrap();
        assert_eq!(d2.class, capacitor);
    }
}
