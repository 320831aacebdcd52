//! The rule learning algorithm (Algorithm 1 of the paper).
//!
//! The algorithm "is based on the idea of finding frequent subsegments in
//! frequent property instances of the data source SE appearing in TS". Its
//! steps, mirrored by [`RuleLearner::learn`]:
//!
//! 1. For each property instance `p(i, v)` of the external source, split the
//!    value `v` into segments and create the facts `subsegment(v, a)`.
//! 2. For each property `p` and segment `a`, compute the frequency of
//!    `p(X, Y) ∧ subsegment(Y, a)`; keep the pairs whose frequency exceeds
//!    the support threshold `th`.
//! 3. For each (most specific) class `c` of the local ontology, compute its
//!    frequency in `TS`; keep the classes whose frequency exceeds `th`.
//! 4. Compute the frequency of each conjunction
//!    `p(X, Y) ∧ subsegment(Y, a) ∧ c(X)`; keep those above `th`.
//! 5. Build the classification rules and compute their confidence and lift.

use crate::config::LearnerConfig;
use crate::error::Result;
use crate::measures::Contingency;
use crate::rule::ClassificationRule;
use crate::training::TrainingSet;
use classilink_ontology::{ClassId, Ontology};
use classilink_segment::{Normalizer, SegmentDictionary, SegmentId, Segmenter};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Statistics reported by a learning run, mirroring the quantities the paper
/// reports about its own run (7 842 distinct segments, 26 077 occurrences,
/// 7 058 selected occurrences, 68 frequent classes, 144 rules, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LearnStats {
    /// `|TS|`: number of training examples.
    pub examples: usize,
    /// Number of properties considered after selection.
    pub properties: usize,
    /// Number of distinct segments observed across all considered values.
    pub distinct_segments: usize,
    /// Total number of segment occurrences (one value may contain a segment
    /// several times; following the paper's `subsegment` semantics, an
    /// occurrence here is "segment s appears in value v", counted once per
    /// value).
    pub segment_occurrences: u64,
    /// Number of segment occurrences that belong to a *frequent*
    /// `(property, segment)` pair (the paper's "7058 occurrences of segments
    /// are selected").
    pub selected_segment_occurrences: u64,
    /// Number of frequent `(property, segment)` pairs.
    pub frequent_pairs: usize,
    /// Number of classes whose frequency exceeds the threshold.
    pub frequent_classes: usize,
    /// Number of classes observed in the training set (before filtering).
    pub observed_classes: usize,
    /// Number of rules produced.
    pub rules: usize,
    /// Number of distinct classes concluded by at least one rule (the paper:
    /// "we have found interesting segments for 16 classes … among 67 frequent
    /// classes").
    pub classes_with_rules: usize,
}

/// The outcome of a learning run: the rules plus run statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LearnOutcome {
    /// The learnt classification rules, ranked by confidence then lift.
    pub rules: Vec<ClassificationRule>,
    /// Statistics about the run.
    pub stats: LearnStats,
}

impl LearnOutcome {
    /// The rules whose confidence is at least `min_confidence`.
    pub fn rules_with_confidence(&self, min_confidence: f64) -> Vec<&ClassificationRule> {
        self.rules
            .iter()
            .filter(|r| r.confidence() >= min_confidence)
            .collect()
    }
}

/// The rule learner: applies Algorithm 1 to a training set.
#[derive(Debug, Clone, Default)]
pub struct RuleLearner {
    config: LearnerConfig,
}

impl RuleLearner {
    /// A learner with the given configuration.
    pub fn new(config: LearnerConfig) -> Self {
        RuleLearner { config }
    }

    /// Learn classification rules from `training` against `ontology`.
    pub fn learn(&self, training: &TrainingSet, ontology: &Ontology) -> Result<LearnOutcome> {
        self.config.validate()?;
        if training.is_empty() {
            return Err(crate::error::CoreError::EmptyTrainingSet);
        }
        let n = training.len() as u64;
        // Frequencies must *strictly exceed* th (the paper: "having a
        // frequency greater than th"). Compared as a frequency: flooring
        // `th · n` first would let a count *equal* to it through whenever the
        // product rounds just below the integer (0.29 · 100).
        let threshold = self.config.support_threshold;
        let exceeds_th = |count: u64| count as f64 / n as f64 > threshold;

        let segmenter = self.config.segmenter.build();
        let split = |value: &str| segmenter.split_distinct(&Normalizer.apply(value));

        // ------------------------------------------------------------------
        // Step 1 + 2: segment every considered value and count, per property,
        // how many examples contain each segment.
        // ------------------------------------------------------------------
        let mut properties: Vec<String> = Vec::new();
        let mut property_index: HashMap<String, u32> = HashMap::new();
        let mut dictionary = SegmentDictionary::new();
        // Per example: the set of (property index, segment id) pairs it exhibits.
        let mut example_pairs: Vec<Vec<(u32, SegmentId)>> = Vec::with_capacity(training.len());
        // (property index, segment id) → number of examples exhibiting it.
        let mut pair_counts: HashMap<(u32, SegmentId), u64> = HashMap::new();

        for example in training.examples() {
            let mut pairs: BTreeSet<(u32, SegmentId)> = BTreeSet::new();
            for (prop, value) in &example.facts {
                if !self.config.properties.includes(prop) {
                    continue;
                }
                let p_idx = *property_index.entry(prop.clone()).or_insert_with(|| {
                    properties.push(prop.clone());
                    (properties.len() - 1) as u32
                });
                for segment in split(value) {
                    let seg_id = dictionary.intern(&segment);
                    pairs.insert((p_idx, seg_id));
                }
            }
            for pair in &pairs {
                *pair_counts.entry(*pair).or_insert(0) += 1;
            }
            example_pairs.push(pairs.into_iter().collect());
        }

        let segment_occurrences: u64 = pair_counts.values().sum();
        let frequent_pairs: HashMap<(u32, SegmentId), u64> = pair_counts
            .iter()
            .filter(|(_, count)| exceeds_th(**count))
            .map(|(pair, count)| (*pair, *count))
            .collect();
        let selected_segment_occurrences: u64 = frequent_pairs.values().sum();

        // ------------------------------------------------------------------
        // Step 3: frequent classes.
        // ------------------------------------------------------------------
        let class_counts: BTreeMap<ClassId, u64> = training.class_frequencies();
        let frequent_classes: BTreeMap<ClassId, u64> = class_counts
            .iter()
            .filter(|(_, count)| exceeds_th(**count))
            .map(|(c, count)| (*c, *count))
            .collect();

        // ------------------------------------------------------------------
        // Step 4: frequency of the conjunctions, restricted to frequent
        // pairs × frequent classes, computed in one pass over the examples.
        // ------------------------------------------------------------------
        let mut joint_counts: HashMap<((u32, SegmentId), ClassId), u64> = HashMap::new();
        for (example, pairs) in training.examples().iter().zip(&example_pairs) {
            if example.classes.is_empty() {
                continue;
            }
            for pair in pairs {
                if !frequent_pairs.contains_key(pair) {
                    continue;
                }
                for class in &example.classes {
                    if frequent_classes.contains_key(class) {
                        *joint_counts.entry((*pair, *class)).or_insert(0) += 1;
                    }
                }
            }
        }

        // ------------------------------------------------------------------
        // Step 5: build the rules and their measures.
        // ------------------------------------------------------------------
        let mut rules: Vec<ClassificationRule> = Vec::new();
        for (((p_idx, seg_id), class), both) in &joint_counts {
            if !exceeds_th(*both) {
                continue;
            }
            let premise = frequent_pairs[&(*p_idx, *seg_id)];
            let conclusion = frequent_classes[class];
            let quality = Contingency::new(n, premise, conclusion, *both).quality();
            let (class_iri, class_label) = match ontology.class_info(*class) {
                Some(info) => (info.iri.clone(), info.label.clone()),
                None => (class.to_string(), class.to_string()),
            };
            rules.push(ClassificationRule {
                property: properties[*p_idx as usize].clone(),
                segment: dictionary
                    .text(*seg_id)
                    .expect("segment id interned above")
                    .to_string(),
                class: *class,
                class_iri,
                class_label,
                quality,
            });
        }
        rules.sort_by(|a, b| a.ranking_cmp(b));

        let classes_with_rules = rules.iter().map(|r| r.class).collect::<BTreeSet<_>>().len();
        let stats = LearnStats {
            examples: training.len(),
            properties: properties.len(),
            distinct_segments: dictionary.distinct_count(),
            segment_occurrences,
            selected_segment_occurrences,
            frequent_pairs: frequent_pairs.len(),
            frequent_classes: frequent_classes.len(),
            observed_classes: class_counts.len(),
            rules: rules.len(),
            classes_with_rules,
        };
        Ok(LearnOutcome { rules, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PropertySelection;
    use crate::training::TrainingExample;
    use classilink_ontology::OntologyBuilder;
    use classilink_rdf::Term;

    const PN: &str = "http://provider.e.org/v#partNumber";
    const MFR: &str = "http://provider.e.org/v#manufacturer";

    fn ontology() -> (Ontology, ClassId, ClassId) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let resistor = b.class("FixedFilmResistor", Some(root));
        let capacitor = b.class("TantalumCapacitor", Some(root));
        (b.build(), resistor, capacitor)
    }

    fn example(n: usize, pn: &str, classes: Vec<ClassId>) -> TrainingExample {
        TrainingExample::new(
            Term::iri(format!("http://provider.e.org/item/{n}")),
            Term::iri(format!("http://local.e.org/prod/{n}")),
            vec![
                (PN.to_string(), pn.to_string()),
                (MFR.to_string(), "ACME Components".to_string()),
            ],
            classes,
        )
    }

    /// 10 resistors whose part numbers contain "crcw"/"ohm", 10 capacitors
    /// whose part numbers contain "t83", plus a shared ambiguous segment
    /// "63v" appearing in both classes.
    fn training(resistor: ClassId, capacitor: ClassId) -> TrainingSet {
        let mut ts = TrainingSet::new();
        for i in 0..10 {
            ts.push(example(
                i,
                &format!("CRCW08{i:02}-10K-ohm-63V"),
                vec![resistor],
            ));
        }
        for i in 10..20 {
            ts.push(example(i, &format!("T83-A{i}-uF-63V"), vec![capacitor]));
        }
        ts
    }

    fn config() -> LearnerConfig {
        LearnerConfig::default()
            .with_support_threshold(0.05)
            .with_properties(PropertySelection::single(PN))
    }

    #[test]
    fn learns_discriminative_rules_with_perfect_confidence() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let outcome = RuleLearner::new(config()).learn(&ts, &onto).unwrap();

        let ohm_rule = outcome
            .rules
            .iter()
            .find(|r| r.segment == "ohm")
            .expect("an 'ohm' rule must be learnt");
        assert_eq!(ohm_rule.class, resistor);
        assert_eq!(ohm_rule.confidence(), 1.0);
        assert_eq!(ohm_rule.lift(), 2.0);
        assert_eq!(ohm_rule.quality.counts.premise, 10);
        assert_eq!(ohm_rule.quality.counts.both, 10);
        assert!((ohm_rule.support() - 0.5).abs() < 1e-12);

        let t83_rule = outcome
            .rules
            .iter()
            .find(|r| r.segment == "t83")
            .expect("a 't83' rule must be learnt");
        assert_eq!(t83_rule.class, capacitor);
        assert_eq!(t83_rule.confidence(), 1.0);
    }

    #[test]
    fn ambiguous_segments_get_low_confidence() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let outcome = RuleLearner::new(config()).learn(&ts, &onto).unwrap();
        let ambiguous: Vec<_> = outcome
            .rules
            .iter()
            .filter(|r| r.segment == "63v")
            .collect();
        assert_eq!(
            ambiguous.len(),
            2,
            "one rule per class for the shared segment"
        );
        for r in ambiguous {
            assert!((r.confidence() - 0.5).abs() < 1e-12);
            assert!((r.lift() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rules_are_ranked_by_confidence_then_lift() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let outcome = RuleLearner::new(config()).learn(&ts, &onto).unwrap();
        let confidences: Vec<f64> = outcome.rules.iter().map(|r| r.confidence()).collect();
        let mut sorted = confidences.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(confidences, sorted);
    }

    #[test]
    fn property_selection_excludes_manufacturer() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let outcome = RuleLearner::new(config()).learn(&ts, &onto).unwrap();
        assert!(outcome.rules.iter().all(|r| r.property == PN));
        assert_eq!(outcome.stats.properties, 1);

        let all_props = LearnerConfig::default().with_support_threshold(0.05);
        let outcome_all = RuleLearner::new(all_props).learn(&ts, &onto).unwrap();
        assert!(outcome_all.rules.iter().any(|r| r.property == MFR));
        assert_eq!(outcome_all.stats.properties, 2);
        // The manufacturer segment "acme" appears in every example, so its
        // rules have lift 1 — still produced, but not positively correlated.
        let acme = outcome_all
            .rules
            .iter()
            .find(|r| r.property == MFR && r.segment == "acme")
            .unwrap();
        assert!((acme.lift() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn support_threshold_prunes_rare_segments() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        // th = 0.4 → a pair must appear in > 8 of the 20 examples.
        let cfg = config().with_support_threshold(0.4);
        let outcome = RuleLearner::new(cfg).learn(&ts, &onto).unwrap();
        // Only "ohm"/"crcw08xx"? No: "ohm" (10), "10k" (10), "t83" (10),
        // "uf" (10), "63v" (20) survive as pairs; segments unique to one
        // example (e.g. "a15") are pruned.
        assert!(outcome.rules.iter().all(|r| r.quality.counts.premise > 8));
        assert!(outcome
            .rules
            .iter()
            .all(|r| !r.segment.starts_with("crcw08")));
    }

    #[test]
    fn a_frequency_equal_to_th_does_not_exceed_it() {
        // th = 0.29, |TS| = 100: `0.29 * 100.0` is 28.999999999999996, so a
        // floored bound of 28 would keep a premise, a class and a
        // conjunction seen exactly 29 times — a frequency of 0.29, not more.
        let (onto, resistor, capacitor) = ontology();
        let mut ts = TrainingSet::new();
        for i in 0..29 {
            ts.push(example(i, &format!("AAA-{i}"), vec![resistor]));
        }
        for i in 29..59 {
            ts.push(example(i, &format!("BBB-{i}"), vec![capacitor]));
        }
        for i in 59..100 {
            ts.push(example(i, &format!("CCC-{i}"), vec![ClassId(0)]));
        }
        let outcome = RuleLearner::new(config().with_support_threshold(0.29))
            .learn(&ts, &onto)
            .unwrap();
        assert_eq!(outcome.stats.frequent_pairs, 2, "bbb (30) and ccc (41)");
        assert_eq!(outcome.stats.frequent_classes, 2);
        let learnt: Vec<(&str, ClassId)> = outcome
            .rules
            .iter()
            .map(|r| (r.segment.as_str(), r.class))
            .collect();
        assert_eq!(learnt, vec![("bbb", capacitor), ("ccc", ClassId(0))]);
    }

    #[test]
    fn higher_threshold_yields_fewer_or_equal_rules() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let low = RuleLearner::new(config().with_support_threshold(0.01))
            .learn(&ts, &onto)
            .unwrap();
        let high = RuleLearner::new(config().with_support_threshold(0.3))
            .learn(&ts, &onto)
            .unwrap();
        assert!(high.rules.len() <= low.rules.len());
        assert!(high.stats.frequent_pairs <= low.stats.frequent_pairs);
    }

    #[test]
    fn stats_reflect_the_run() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let outcome = RuleLearner::new(config()).learn(&ts, &onto).unwrap();
        let stats = &outcome.stats;
        assert_eq!(stats.examples, 20);
        assert_eq!(stats.properties, 1);
        assert!(stats.distinct_segments > 0);
        assert!(stats.segment_occurrences >= stats.selected_segment_occurrences);
        assert!(stats.frequent_classes <= stats.observed_classes);
        assert_eq!(stats.rules, outcome.rules.len());
        assert_eq!(stats.observed_classes, 2);
        assert_eq!(stats.frequent_classes, 2);
        assert_eq!(stats.classes_with_rules, 2);
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let (onto, ..) = ontology();
        let err = RuleLearner::new(config()).learn(&TrainingSet::new(), &onto);
        assert!(matches!(
            err,
            Err(crate::error::CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn invalid_threshold_is_an_error() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let cfg = LearnerConfig::default().with_support_threshold(0.0);
        assert!(RuleLearner::new(cfg).learn(&ts, &onto).is_err());
    }

    #[test]
    fn outcome_helpers() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let outcome = RuleLearner::new(config()).learn(&ts, &onto).unwrap();
        let perfect = outcome.rules_with_confidence(1.0);
        assert!(!perfect.is_empty());
        assert!(perfect.iter().all(|r| r.confidence() >= 1.0));
    }

    #[test]
    fn deterministic_output() {
        let (onto, resistor, capacitor) = ontology();
        let ts = training(resistor, capacitor);
        let a = RuleLearner::new(config()).learn(&ts, &onto).unwrap();
        let b = RuleLearner::new(config()).learn(&ts, &onto).unwrap();
        assert_eq!(a, b);
    }
}
