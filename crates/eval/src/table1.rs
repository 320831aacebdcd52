//! The Table 1 experiment: classification rule results by confidence tier.
//!
//! The paper's Table 1 reports, for confidence thresholds 1 / 0.8 / 0.6 /
//! 0.4: the number of rules, the number of decisions, the precision, the
//! recall and the average lift. The paper groups rules by confidence and
//! evaluates on `TS` itself ("For each confidence threshold, we have used TS
//! to compute the number of decisions that can be made, the precision, and
//! the recall").
//!
//! Interpretation implemented here (recorded in EXPERIMENTS.md): the
//! `#rules` column counts the rules whose confidence falls in the tier
//! `[threshold, previous threshold)`, exactly as the paper's buckets do
//! (44 + 22 + 13 + 17 ≤ 144); decisions / precision / recall / lift are
//! computed with the **cumulative** rule set of confidence ≥ threshold,
//! which reproduces the monotone behaviour of the published row values
//! (precision decreasing, recall increasing, lift slowly decreasing).

use crate::metrics::ClassificationOutcome;
use crate::report::{float, percent, Table};
use classilink_core::{
    group_by_confidence_tiers, LearnOutcome, LearnerConfig, RuleClassifier, RuleLearner,
    TrainingSet,
};
use classilink_ontology::ClassId;
use classilink_ontology::Ontology;
use std::collections::BTreeMap;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The confidence threshold of the tier.
    pub confidence: f64,
    /// Number of rules whose confidence falls in this tier (non-cumulative).
    pub rules_in_tier: usize,
    /// Number of rules with confidence ≥ the threshold (cumulative).
    pub rules_cumulative: usize,
    /// Number of items for which the cumulative rule set made a decision.
    pub decisions: usize,
    /// Precision of those decisions.
    pub precision: f64,
    /// Recall over all evaluated items.
    pub recall: f64,
    /// Average lift of the cumulative rule set.
    pub avg_lift: f64,
}

/// The full Table 1 report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table1Report {
    /// One row per confidence threshold, in the order given.
    pub rows: Vec<Table1Row>,
    /// Number of evaluated items.
    pub evaluated_items: usize,
    /// Total number of learnt rules (the paper: 144 at `th = 0.002`).
    pub total_rules: usize,
    /// Number of distinct classes concluded by at least one rule (the paper:
    /// 16 classes).
    pub classes_with_rules: usize,
    /// Number of frequent classes observed in the training set (the paper:
    /// 67/68).
    pub frequent_classes: usize,
    /// Distinct segments observed while learning (the paper: 7 842).
    pub distinct_segments: usize,
    /// Total segment occurrences (the paper: 26 077).
    pub segment_occurrences: u64,
    /// Occurrences belonging to frequent (selected) pairs (the paper: 7 058).
    pub selected_segment_occurrences: u64,
}

impl Table1Report {
    /// Render the table in the paper's layout.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Table 1: Classification rule results",
            &["conf.", "#rules", "#dec.", "prec.", "recall", "lift"],
        );
        for row in &self.rows {
            table.row(&[
                float(row.confidence, if row.confidence == 1.0 { 0 } else { 1 }),
                row.rules_in_tier.to_string(),
                row.decisions.to_string(),
                percent(row.precision),
                percent(row.recall),
                float(row.avg_lift, 0),
            ]);
        }
        table
    }
}

/// The items used to evaluate the rules: `(gold class, facts)` pairs.
pub type EvaluationItem = (Option<ClassId>, Vec<(String, String)>);

/// Configuration and runner for the Table 1 experiment.
pub struct Table1Experiment {
    /// The learner configuration (the paper's `th = 0.002` by default).
    pub learner: LearnerConfig,
    /// The confidence thresholds of the rows, in descending order.
    pub thresholds: Vec<f64>,
}

impl Default for Table1Experiment {
    fn default() -> Self {
        Table1Experiment {
            learner: LearnerConfig::paper(),
            thresholds: vec![1.0, 0.8, 0.6, 0.4],
        }
    }
}

impl Table1Experiment {
    /// An experiment with a custom learner configuration.
    pub fn with_learner(learner: LearnerConfig) -> Self {
        Table1Experiment {
            learner,
            ..Default::default()
        }
    }

    /// Learn rules on `training` and evaluate them on the training set
    /// itself, as the paper does.
    pub fn run_on_training(
        &self,
        training: &TrainingSet,
        ontology: &Ontology,
    ) -> classilink_core::Result<(LearnOutcome, Table1Report)> {
        let items: Vec<EvaluationItem> = training
            .examples()
            .iter()
            .map(|e| (e.classes.first().copied(), e.facts.clone()))
            .collect();
        self.run(training, ontology, &items)
    }

    /// Learn rules on `training` and evaluate them on explicit items (e.g.
    /// held-out external items with gold classes).
    pub fn run(
        &self,
        training: &TrainingSet,
        ontology: &Ontology,
        items: &[EvaluationItem],
    ) -> classilink_core::Result<(LearnOutcome, Table1Report)> {
        let outcome = RuleLearner::new(self.learner.clone()).learn(training, ontology)?;
        let report = self.evaluate(&outcome, items);
        Ok((outcome, report))
    }

    /// Evaluate an existing learning outcome on the given items.
    pub fn evaluate(&self, outcome: &LearnOutcome, items: &[EvaluationItem]) -> Table1Report {
        let tiers = group_by_confidence_tiers(&outcome.rules, &self.thresholds);
        let tier_counts: BTreeMap<usize, usize> = tiers
            .iter()
            .enumerate()
            .map(|(i, (_, rules))| (i, rules.len()))
            .collect();
        let base_classifier = RuleClassifier::from_outcome(outcome, &self.learner);
        let mut rows = Vec::with_capacity(self.thresholds.len());
        for (i, threshold) in self.thresholds.iter().enumerate() {
            let classifier = base_classifier.with_min_confidence(*threshold);
            let cumulative_rules = classifier.rules().len();
            let avg_lift = if cumulative_rules == 0 {
                0.0
            } else {
                classifier.rules().iter().map(|r| r.lift()).sum::<f64>() / cumulative_rules as f64
            };
            let mut tally = ClassificationOutcome::new(items.len());
            for (gold, facts) in items {
                let predicted = classifier.decide(facts).map(|p| p.class);
                tally.record(predicted, *gold);
            }
            rows.push(Table1Row {
                confidence: *threshold,
                rules_in_tier: tier_counts.get(&i).copied().unwrap_or(0),
                rules_cumulative: cumulative_rules,
                decisions: tally.decisions,
                precision: tally.precision(),
                recall: tally.recall(),
                avg_lift,
            });
        }
        Table1Report {
            rows,
            evaluated_items: items.len(),
            total_rules: outcome.rules.len(),
            classes_with_rules: outcome.stats.classes_with_rules,
            frequent_classes: outcome.stats.frequent_classes,
            distinct_segments: outcome.stats.distinct_segments,
            segment_occurrences: outcome.stats.segment_occurrences,
            selected_segment_occurrences: outcome.stats.selected_segment_occurrences,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classilink_core::{PropertySelection, TrainingExample};
    use classilink_ontology::OntologyBuilder;
    use classilink_rdf::Term;

    const PN: &str = "http://provider.e.org/v#partNumber";

    fn setup() -> (Ontology, TrainingSet) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let resistor = b.class("FixedFilmResistor", Some(root));
        let capacitor = b.class("TantalumCapacitor", Some(root));
        let onto = b.build();
        let mut ts = TrainingSet::new();
        // 20 resistors: half with the discriminative "ohm" segment.
        for i in 0..20 {
            let pn = if i % 2 == 0 {
                format!("CRCW-S{i:03}-ohm")
            } else {
                format!("S{i:03}-63V")
            };
            ts.push(TrainingExample::new(
                Term::iri(format!("http://p.e.org/{i}")),
                Term::iri(format!("http://l.e.org/{i}")),
                vec![(PN.to_string(), pn)],
                vec![resistor],
            ));
        }
        // 20 capacitors: half with "t83", all with the ambiguous "63v"? keep
        // "63V" on half so an ambiguous mid-confidence rule appears.
        for i in 20..40 {
            let pn = if i % 2 == 0 {
                format!("T83-S{i:03}")
            } else {
                format!("S{i:03}-63V-uF")
            };
            ts.push(TrainingExample::new(
                Term::iri(format!("http://p.e.org/{i}")),
                Term::iri(format!("http://l.e.org/{i}")),
                vec![(PN.to_string(), pn)],
                vec![capacitor],
            ));
        }
        (onto, ts)
    }

    fn experiment() -> Table1Experiment {
        Table1Experiment::with_learner(
            LearnerConfig::default()
                .with_support_threshold(0.05)
                .with_properties(PropertySelection::single(PN)),
        )
    }

    #[test]
    fn table_has_one_row_per_threshold() {
        let (onto, ts) = setup();
        let (outcome, report) = experiment().run_on_training(&ts, &onto).unwrap();
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.evaluated_items, 40);
        assert_eq!(report.total_rules, outcome.rules.len());
        assert!(report.total_rules > 0);
    }

    #[test]
    fn precision_decreases_and_recall_increases_with_lower_thresholds() {
        let (onto, ts) = setup();
        let (_, report) = experiment().run_on_training(&ts, &onto).unwrap();
        for pair in report.rows.windows(2) {
            assert!(pair[0].precision >= pair[1].precision - 1e-9);
            assert!(pair[0].recall <= pair[1].recall + 1e-9);
            assert!(pair[0].decisions <= pair[1].decisions);
        }
        // Confidence-1 rules are perfectly precise on the training set.
        assert_eq!(report.rows[0].precision, 1.0);
        assert!(report.rows[0].recall > 0.0);
    }

    #[test]
    fn tier_rule_counts_sum_to_at_most_total() {
        let (onto, ts) = setup();
        let (_, report) = experiment().run_on_training(&ts, &onto).unwrap();
        let tier_sum: usize = report.rows.iter().map(|r| r.rules_in_tier).sum();
        assert!(tier_sum <= report.total_rules);
        // Cumulative counts are non-decreasing down the rows.
        for pair in report.rows.windows(2) {
            assert!(pair[0].rules_cumulative <= pair[1].rules_cumulative);
        }
    }

    #[test]
    fn rendered_table_has_paper_columns() {
        let (onto, ts) = setup();
        let (_, report) = experiment().run_on_training(&ts, &onto).unwrap();
        let ascii = report.to_table().to_ascii();
        assert!(ascii.contains("conf."));
        assert!(ascii.contains("#rules"));
        assert!(ascii.contains("lift"));
        assert!(ascii.contains("Table 1"));
        let csv = report.to_table().to_csv();
        assert!(csv.lines().count() >= 5);
    }

    #[test]
    fn evaluation_on_heldout_items() {
        let (onto, ts) = setup();
        let resistor = onto.class("http://e.org/c#FixedFilmResistor").unwrap();
        let capacitor = onto.class("http://e.org/c#TantalumCapacitor").unwrap();
        let items: Vec<EvaluationItem> = vec![
            (
                Some(resistor),
                vec![(PN.to_string(), "CRCW-X999-ohm".to_string())],
            ),
            (
                Some(capacitor),
                vec![(PN.to_string(), "T83-X998".to_string())],
            ),
            (
                Some(capacitor),
                vec![(PN.to_string(), "NOHINT-X997".to_string())],
            ),
        ];
        let (_, report) = experiment().run(&ts, &onto, &items).unwrap();
        let last = report.rows.last().unwrap();
        assert_eq!(report.evaluated_items, 3);
        assert_eq!(last.decisions, 2);
        assert_eq!(last.precision, 1.0);
        assert!((last.recall - 2.0 / 3.0).abs() < 1e-9);
    }
}
