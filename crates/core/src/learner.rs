//! The rule learning algorithm (Algorithm 1 of the paper).
//!
//! The algorithm "is based on the idea of finding frequent subsegments in
//! frequent property instances of the data source SE appearing in TS". Its
//! steps, mirrored by [`RuleLearner::learn`], read one counting table:
//!
//! 1. One pass splits each considered value `v` of `p(i, v)` into the facts
//!    `subsegment(v, a)` and fills a **premise column** per `(p, a)` — the
//!    ascending ids of the examples exhibiting `p(X, Y) ∧ subsegment(Y, a)`
//!    — and a **class row** per observed class `c`, a bitmap over examples.
//! 2. A premise's frequency is its column's length; keep the premises whose
//!    frequency exceeds the support threshold `th`.
//! 3. A (most specific) class's frequency is its row's popcount; keep the
//!    classes whose frequency exceeds `th`.
//! 4. The frequency of `p(X, Y) ∧ subsegment(Y, a) ∧ c(X)` is the number of
//!    the column's examples whose bit is set in the row; keep those above
//!    `th`.
//! 5. Build the classification rules and compute their confidence and lift.

use crate::config::LearnerConfig;
use crate::error::{CoreError, Result};
use crate::measures::Contingency;
use crate::rule::ClassificationRule;
use crate::training::TrainingSet;
use classilink_ontology::{ClassId, Ontology};
use classilink_segment::{Normalizer, SegmentDictionary, SegmentId, Segmenter};
use std::collections::{BTreeSet, HashMap};

/// Statistics reported by a learning run, mirroring the quantities the paper
/// reports about its own run (7 842 distinct segments, 26 077 occurrences,
/// 7 058 selected occurrences, 68 frequent classes, 144 rules, …).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LearnStats {
    /// `|TS|`: number of training examples.
    pub examples: usize,
    /// Number of properties considered after selection.
    pub properties: usize,
    /// Number of distinct segments observed across all considered values.
    pub distinct_segments: usize,
    /// Total number of segment occurrences. Following the paper's
    /// `subsegment` semantics, an occurrence is "segment s appears in a value
    /// of property p of example i", counted once per (example, property)
    /// however many times, and in however many of its values, s appears.
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
#[derive(Debug, Clone, PartialEq, Default)]
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
        let table = CountTable::build(training, &self.config)?;
        Ok(table.learn(self.config.support_threshold, ontology))
    }
}

/// The counts Algorithm 1 reads, segmented once from a training set:
/// premise columns and class rows (see the module docs).
pub(crate) struct CountTable {
    /// `|TS|`.
    examples: usize,
    /// The considered properties, in order of first appearance.
    properties: Vec<String>,
    /// Every distinct segment of a considered value.
    segments: SegmentDictionary,
    /// Per observed premise `(property index, segment)`, its column: the
    /// ascending ids of the examples exhibiting it.
    premises: Vec<((u32, SegmentId), Vec<u32>)>,
    /// Class rows indexed by [`ClassId`]: bit `i` of a row is set when
    /// example `i` asserts the class. An unobserved class has an empty row.
    rows: Vec<Vec<u64>>,
}

impl CountTable {
    /// Segment every considered value of `training` once and fill the
    /// premise columns and class rows. Each value is normalised into one
    /// buffer and its segments are interned as borrowed slices.
    pub(crate) fn build(training: &TrainingSet, config: &LearnerConfig) -> Result<Self> {
        config.validate()?;
        if training.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        let segmenter = &config.segmenter;
        let mut table = CountTable {
            examples: training.len(),
            properties: Vec::new(),
            segments: SegmentDictionary::new(),
            premises: Vec::new(),
            rows: Vec::new(),
        };
        let mut premise_of: HashMap<(u32, SegmentId), usize> = HashMap::new();
        let mut normalised = String::new();
        for (id, example) in (0u32..).zip(training.examples()) {
            for (prop, value) in &example.facts {
                if !config.properties.includes(prop) {
                    continue;
                }
                let properties = &mut table.properties;
                let property = properties
                    .iter()
                    .position(|p| p == prop)
                    .unwrap_or_else(|| {
                        properties.push(prop.clone());
                        properties.len() - 1
                    }) as u32;
                Normalizer.apply_into(value, &mut normalised);
                segmenter.for_each_segment(&normalised, &mut |segment| {
                    let key = (property, table.segments.intern(segment));
                    let index = *premise_of.entry(key).or_insert(table.premises.len());
                    if index == table.premises.len() {
                        table.premises.push((key, Vec::new()));
                    }
                    // A segment repeated within a value, or across two values
                    // of the property, is one `subsegment` fact per example.
                    let column = &mut table.premises[index].1;
                    if column.last() != Some(&id) {
                        column.push(id);
                    }
                });
            }
            for class in &example.classes {
                table.row_mut(class.index())[id as usize / 64] |= 1 << (id % 64);
            }
        }
        Ok(table)
    }

    /// The row of class index `class`, all zeros if it was unobserved.
    fn row_mut(&mut self, class: usize) -> &mut [u64] {
        let words = self.examples.div_ceil(64);
        if self.rows.len() <= class {
            self.rows.resize(class + 1, Vec::new());
        }
        let row = &mut self.rows[class];
        if row.is_empty() {
            *row = vec![0; words];
        }
        row
    }

    /// Close the class rows under subsumption: OR each observed class's row
    /// into the row of every one of its ancestors, so that a row holds the
    /// examples of its class and of all its subclasses.
    pub(crate) fn close_under_subsumption(&mut self, ontology: &Ontology) {
        let observed: Vec<usize> = (0..self.rows.len())
            .filter(|c| !self.rows[*c].is_empty())
            .collect();
        for class in observed {
            // The hierarchy is acyclic: no class is its own ancestor.
            let row = std::mem::take(&mut self.rows[class]);
            for ancestor in ontology.ancestors(ClassId(class as u32)) {
                for (t, w) in self.row_mut(ancestor.index()).iter_mut().zip(&row) {
                    *t |= w;
                }
            }
            self.rows[class] = row;
        }
    }

    /// Steps 2–5: the frequent premises, the frequent classes and the rules
    /// their frequent conjunctions yield at support threshold `threshold`.
    pub(crate) fn learn(&self, threshold: f64, ontology: &Ontology) -> LearnOutcome {
        let n = self.examples as u64;
        // Frequencies must *strictly exceed* th (the paper: "having a
        // frequency greater than th"). Compared as a frequency: flooring
        // `th · n` first would let a count *equal* to it through whenever the
        // product rounds just below the integer (0.29 · 100).
        let exceeds_th = |count: u64| count as f64 / n as f64 > threshold;

        // Step 2: a premise's frequency is its column's length.
        let frequent_premises: Vec<&((u32, SegmentId), Vec<u32>)> = self
            .premises
            .iter()
            .filter(|(_, column)| exceeds_th(column.len() as u64))
            .collect();

        // Step 3: a class's frequency is its row's popcount.
        let rows = (0u32..).map(ClassId).zip(&self.rows);
        let observed: Vec<(ClassId, &Vec<u64>)> = rows.filter(|(_, r)| !r.is_empty()).collect();
        let frequent_classes: Vec<(ClassId, &Vec<u64>, u64)> = observed
            .iter()
            .map(|&(class, row)| (class, row, row.iter().map(|w| w.count_ones() as u64).sum()))
            .filter(|&(.., count)| exceeds_th(count))
            .collect();

        // Steps 4 + 5: a conjunction's frequency is the number of the
        // premise's examples whose bit is set in the class row.
        let mut rules: Vec<ClassificationRule> = Vec::new();
        for &(class, row, conclusion) in &frequent_classes {
            let (class_iri, class_label) = match ontology.class_info(class) {
                Some(info) => (info.iri.clone(), info.label.clone()),
                None => (class.to_string(), class.to_string()),
            };
            for ((property, segment), column) in &frequent_premises {
                let both = column
                    .iter()
                    .filter(|&&e| row[e as usize / 64] >> (e % 64) & 1 == 1)
                    .count() as u64;
                if !exceeds_th(both) {
                    continue;
                }
                let counts = Contingency::new(n, column.len() as u64, conclusion, both);
                rules.push(ClassificationRule {
                    property: self.properties[*property as usize].clone(),
                    segment: self
                        .segments
                        .text(*segment)
                        .expect("a premise segment is interned")
                        .to_string(),
                    class,
                    class_iri: class_iri.clone(),
                    class_label: class_label.clone(),
                    quality: counts.quality(),
                });
            }
        }
        rules.sort_by(|a, b| a.ranking_cmp(b));

        let stats = LearnStats {
            examples: self.examples,
            properties: self.properties.len(),
            distinct_segments: self.segments.distinct_count(),
            segment_occurrences: self.premises.iter().map(|(_, c)| c.len() as u64).sum(),
            selected_segment_occurrences: frequent_premises.iter().map(|p| p.1.len() as u64).sum(),
            frequent_pairs: frequent_premises.len(),
            frequent_classes: frequent_classes.len(),
            observed_classes: observed.len(),
            rules: rules.len(),
            classes_with_rules: rules.iter().map(|r| r.class).collect::<BTreeSet<_>>().len(),
        };
        LearnOutcome { rules, stats }
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
    fn a_class_listed_twice_counts_one_example() {
        let (onto, resistor, capacitor) = ontology();
        let mut ts = TrainingSet::new();
        for i in 0..5 {
            ts.push(example(i, "CRCW-ohm", vec![resistor, resistor]));
        }
        for i in 5..10 {
            ts.push(example(i, "T83-uF", vec![capacitor]));
        }
        let outcome = RuleLearner::new(config()).learn(&ts, &onto).unwrap();
        let ohm = outcome.rules.iter().find(|r| r.segment == "ohm").unwrap();
        assert_eq!(ohm.class, resistor);
        assert_eq!(
            ohm.quality.counts,
            Contingency {
                n: 10,
                premise: 5,
                conclusion: 5,
                both: 5
            }
        );
        assert_eq!(ohm.confidence(), 1.0);
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
