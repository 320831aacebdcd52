//! Parameter sweeps and ablations (experiments E3, E4, A1, A2, A3 of the
//! [experiment index](crate#experiment-index)).
//!
//! * [`reduction_sweep`] — linking-space reduction as a function of the
//!   confidence threshold (the paper's motivation and its in-text claims
//!   about lift > 20 and "linkage space divided by 5").
//! * [`support_sweep`] — number of rules / precision / recall as a function
//!   of the support threshold `th` (ablation A2).
//! * [`segmenter_ablation`] — the same experiment under different
//!   segmentation strategies (ablation A1).
//! * [`generalization_ablation`] — recall gained by subsumption-generalised
//!   rules (extension A3).
//!
//! The `*_table` functions render the point lists for the terminal / CSV.

use crate::metrics::ClassificationOutcome;
use crate::report::{float, Table};
use crate::table1::EvaluationItem;
use classilink_core::{
    generalize, GeneralizeConfig, LearnerConfig, RuleClassifier, RuleLearner, SubspaceBuilder,
    TrainingSet,
};
use classilink_ontology::{InstanceStore, Ontology};
use classilink_rdf::Term;
use classilink_segment::SegmenterKind;
use serde::{Deserialize, Serialize};

/// One point of the reduction sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReductionPoint {
    /// Minimum rule confidence used for classification.
    pub confidence_threshold: f64,
    /// Number of rules retained.
    pub rules: usize,
    /// Fraction of external items classified by at least one rule.
    pub classified_fraction: f64,
    /// Fraction of the naive `|SE|×|SL|` space that remains
    /// (unclassified items still count the full catalog).
    pub remaining_fraction: f64,
    /// Mean factor by which a classified item's candidate list shrinks.
    pub mean_reduction_factor: f64,
    /// Average lift of the retained rules.
    pub avg_lift: f64,
}

/// Sweep the confidence threshold and measure the linking-space reduction on
/// a batch of external items.
pub fn reduction_sweep(
    outcome: &classilink_core::LearnOutcome,
    learner: &LearnerConfig,
    instances: &InstanceStore,
    ontology: &Ontology,
    batch: &[(Term, Vec<(String, String)>)],
    local_size: usize,
    thresholds: &[f64],
) -> Vec<ReductionPoint> {
    let base = RuleClassifier::from_outcome(outcome, learner);
    thresholds
        .iter()
        .map(|threshold| {
            let classifier = base.with_min_confidence(*threshold);
            let builder = SubspaceBuilder::new(&classifier, instances, ontology);
            let stats = builder.reduction_stats(batch, local_size);
            let rules = classifier.rules().len();
            let avg_lift = if rules == 0 {
                0.0
            } else {
                classifier.rules().iter().map(|r| r.lift()).sum::<f64>() / rules as f64
            };
            ReductionPoint {
                confidence_threshold: *threshold,
                rules,
                classified_fraction: if stats.external_items == 0 {
                    0.0
                } else {
                    stats.classified_items as f64 / stats.external_items as f64
                },
                remaining_fraction: 1.0 - stats.reduction_ratio,
                mean_reduction_factor: stats.mean_reduction_factor,
                avg_lift,
            }
        })
        .collect()
}

/// Render the reduction sweep (E3/E4), one row per confidence threshold.
pub fn reduction_table(points: &[ReductionPoint]) -> Table {
    let mut table = Table::new(
        "E3/E4: linking-space reduction vs rule confidence",
        &[
            "conf.",
            "rules",
            "classified",
            "remaining",
            "mean-factor",
            "avg-lift",
        ],
    );
    for p in points {
        table.row(&[
            p.confidence_threshold.to_string(),
            p.rules.to_string(),
            float(p.classified_fraction, 3),
            float(p.remaining_fraction, 3),
            float(p.mean_reduction_factor, 1),
            float(p.avg_lift, 1),
        ]);
    }
    table
}

/// One point of the support-threshold sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupportPoint {
    /// The support threshold `th`.
    pub support_threshold: f64,
    /// Number of rules learnt.
    pub rules: usize,
    /// Number of frequent `(property, segment)` pairs.
    pub frequent_pairs: usize,
    /// Precision on the evaluation items (using all rules).
    pub precision: f64,
    /// Recall on the evaluation items (using all rules).
    pub recall: f64,
}

/// Sweep the support threshold `th` (ablation A2).
pub fn support_sweep(
    training: &TrainingSet,
    ontology: &Ontology,
    items: &[EvaluationItem],
    base_config: &LearnerConfig,
    thresholds: &[f64],
) -> classilink_core::Result<Vec<SupportPoint>> {
    let mut points = Vec::with_capacity(thresholds.len());
    for th in thresholds {
        let config = base_config.clone().with_support_threshold(*th);
        let outcome = RuleLearner::new(config.clone()).learn(training, ontology)?;
        let classifier = RuleClassifier::from_outcome(&outcome, &config);
        let mut tally = ClassificationOutcome::new(items.len());
        for (gold, facts) in items {
            tally.record(classifier.decide(facts).map(|p| p.class), *gold);
        }
        points.push(SupportPoint {
            support_threshold: *th,
            rules: outcome.rules.len(),
            frequent_pairs: outcome.stats.frequent_pairs,
            precision: tally.precision(),
            recall: tally.recall(),
        });
    }
    Ok(points)
}

/// Render the support sweep (A2), one row per threshold `th`.
pub fn support_table(points: &[SupportPoint]) -> Table {
    let mut table = Table::new(
        "A2: support threshold th",
        &["th", "pairs", "rules", "precision", "recall"],
    );
    for p in points {
        table.row(&[
            p.support_threshold.to_string(),
            p.frequent_pairs.to_string(),
            p.rules.to_string(),
            float(p.precision, 3),
            float(p.recall, 3),
        ]);
    }
    table
}

/// One row of the segmenter ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmenterPoint {
    /// Name of the segmenter.
    pub segmenter: String,
    /// Number of distinct segments observed.
    pub distinct_segments: usize,
    /// Number of rules learnt.
    pub rules: usize,
    /// Precision on the evaluation items.
    pub precision: f64,
    /// Recall on the evaluation items.
    pub recall: f64,
}

/// Re-run the experiment under different segmentation strategies (ablation A1).
pub fn segmenter_ablation(
    training: &TrainingSet,
    ontology: &Ontology,
    items: &[EvaluationItem],
    base_config: &LearnerConfig,
    segmenters: &[SegmenterKind],
) -> classilink_core::Result<Vec<SegmenterPoint>> {
    let mut points = Vec::with_capacity(segmenters.len());
    for kind in segmenters {
        let config = base_config.clone().with_segmenter(kind.clone());
        let outcome = RuleLearner::new(config.clone()).learn(training, ontology)?;
        let classifier = RuleClassifier::from_outcome(&outcome, &config);
        let mut tally = ClassificationOutcome::new(items.len());
        for (gold, facts) in items {
            tally.record(classifier.decide(facts).map(|p| p.class), *gold);
        }
        points.push(SegmenterPoint {
            segmenter: kind.name(),
            distinct_segments: outcome.stats.distinct_segments,
            rules: outcome.rules.len(),
            precision: tally.precision(),
            recall: tally.recall(),
        });
    }
    Ok(points)
}

/// Render the segmenter ablation (A1), one row per strategy.
pub fn segmenter_table(points: &[SegmenterPoint]) -> Table {
    let mut table = Table::new(
        "A1: segmentation strategy",
        &["segmenter", "segments", "rules", "precision", "recall"],
    );
    for p in points {
        table.row(&[
            p.segmenter.clone(),
            p.distinct_segments.to_string(),
            p.rules.to_string(),
            float(p.precision, 3),
            float(p.recall, 3),
        ]);
    }
    table
}

/// The result of the generalisation ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneralizationPoint {
    /// Decisions / precision / recall with the base (leaf-level) rules only.
    pub base: (usize, f64, f64),
    /// Decisions / precision / recall with base + generalised rules, where a
    /// prediction is counted as correct when the gold class is the predicted
    /// class **or one of its descendants** (a more general prediction is a
    /// correct, if less precise, decision).
    pub generalized: (usize, f64, f64),
    /// Number of generalised rules added.
    pub generalized_rules: usize,
}

/// Measure the coverage gained by subsumption-generalised rules (extension A3).
pub fn generalization_ablation(
    training: &TrainingSet,
    ontology: &Ontology,
    items: &[EvaluationItem],
    config: &LearnerConfig,
    gen_config: &GeneralizeConfig,
) -> classilink_core::Result<GeneralizationPoint> {
    let outcome = RuleLearner::new(config.clone()).learn(training, ontology)?;
    let base_classifier = RuleClassifier::from_outcome(&outcome, config);
    let mut base_tally = ClassificationOutcome::new(items.len());
    for (gold, facts) in items {
        base_tally.record(base_classifier.decide(facts).map(|p| p.class), *gold);
    }

    let gen = generalize(training, ontology, config, &outcome, gen_config)?;
    let mut all_rules = outcome.rules.clone();
    all_rules.extend(gen.generalized_rules.clone());
    let extended_classifier =
        RuleClassifier::new(all_rules, config.segmenter.clone(), config.normalize);

    let mut decisions = 0usize;
    let mut correct = 0usize;
    for (gold, facts) in items {
        let Some(prediction) = extended_classifier.decide(facts) else {
            continue;
        };
        decisions += 1;
        if let Some(gold) = gold {
            // A prediction of an ancestor of the gold class still counts: the
            // item would be compared within a superset of the right class.
            if prediction.class == *gold || ontology.is_subclass_of(*gold, prediction.class) {
                correct += 1;
            }
        }
    }
    let gen_precision = if decisions == 0 {
        1.0
    } else {
        correct as f64 / decisions as f64
    };
    let gen_recall = if items.is_empty() {
        0.0
    } else {
        correct as f64 / items.len() as f64
    };
    Ok(GeneralizationPoint {
        base: (
            base_tally.decisions,
            base_tally.precision(),
            base_tally.recall(),
        ),
        generalized: (decisions, gen_precision, gen_recall),
        generalized_rules: gen.generalized_rules.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use classilink_core::PropertySelection;
    use classilink_datagen::scenario::{generate, ScenarioConfig};
    use classilink_datagen::vocab;

    fn scenario_and_items() -> (
        classilink_datagen::GeneratedScenario,
        Vec<EvaluationItem>,
        LearnerConfig,
    ) {
        let scenario = generate(&ScenarioConfig::tiny());
        let items: Vec<EvaluationItem> = scenario
            .training
            .examples()
            .iter()
            .map(|e| (e.classes.first().copied(), e.facts.clone()))
            .collect();
        let config = LearnerConfig::default()
            .with_support_threshold(0.01)
            .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER));
        (scenario, items, config)
    }

    #[test]
    fn reduction_sweep_shrinks_with_confidence() {
        let (scenario, _, config) = scenario_and_items();
        let outcome = RuleLearner::new(config.clone())
            .learn(&scenario.training, &scenario.ontology)
            .unwrap();
        let batch: Vec<(Term, Vec<(String, String)>)> = scenario
            .training
            .examples()
            .iter()
            .map(|e| (e.external_item.clone(), e.facts.clone()))
            .collect();
        let points = reduction_sweep(
            &outcome,
            &config,
            &scenario.instances,
            &scenario.ontology,
            &batch,
            scenario.catalog_size(),
            &[1.0, 0.8, 0.5, 0.0],
        );
        assert_eq!(points.len(), 4);
        // Lower thresholds keep more rules and classify more items.
        for pair in points.windows(2) {
            assert!(pair[0].rules <= pair[1].rules);
            assert!(pair[0].classified_fraction <= pair[1].classified_fraction + 1e-9);
        }
        // Classified items see a real reduction.
        let last = points.last().unwrap();
        assert!(last.classified_fraction > 0.3);
        assert!(last.mean_reduction_factor > 1.5);
        assert!(last.remaining_fraction < 1.0);
    }

    #[test]
    fn support_sweep_is_monotone_in_rule_count() {
        let (scenario, items, config) = scenario_and_items();
        let points = support_sweep(
            &scenario.training,
            &scenario.ontology,
            &items,
            &config,
            &[0.005, 0.02, 0.1],
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        for pair in points.windows(2) {
            assert!(pair[0].rules >= pair[1].rules);
            assert!(pair[0].frequent_pairs >= pair[1].frequent_pairs);
        }
    }

    #[test]
    fn segmenter_ablation_reports_each_strategy() {
        let (scenario, items, config) = scenario_and_items();
        let points = segmenter_ablation(
            &scenario.training,
            &scenario.ontology,
            &items,
            &config,
            &[
                SegmenterKind::Separator,
                SegmenterKind::AlphaNumTransition,
                SegmenterKind::CharNGram(3),
                SegmenterKind::PaddedBigram,
            ],
        )
        .unwrap();
        assert_eq!(points.len(), 4);
        let names: std::collections::HashSet<&str> =
            points.iter().map(|p| p.segmenter.as_str()).collect();
        assert_eq!(names.len(), 4);
        // Finer segmentations observe at least as many distinct segments.
        assert!(points[1].distinct_segments >= points[0].distinct_segments);
        for p in &points {
            assert!(p.precision >= 0.0 && p.precision <= 1.0);
            assert!(p.recall >= 0.0 && p.recall <= 1.0);
        }
    }

    #[test]
    fn reduction_table_has_one_row_per_point() {
        let point = ReductionPoint {
            confidence_threshold: 0.8,
            rules: 53,
            classified_fraction: 0.4444,
            remaining_fraction: 0.5911,
            mean_reduction_factor: 51.23,
            avg_lift: 89.56,
        };
        let table = reduction_table(&[point.clone(), point]);
        let row = "0.8,53,0.444,0.591,51.2,89.6";
        let headers = "conf.,rules,classified,remaining,mean-factor,avg-lift";
        assert_eq!(table.to_csv(), format!("{headers}\n{row}\n{row}\n"));
    }

    #[test]
    fn support_table_has_one_row_per_point() {
        let point = SupportPoint {
            support_threshold: 0.002,
            rules: 266,
            frequent_pairs: 120,
            precision: 0.7,
            recall: 0.6451,
        };
        let table = support_table(&[point.clone(), point]);
        let row = "0.002,120,266,0.700,0.645";
        let headers = "th,pairs,rules,precision,recall";
        assert_eq!(table.to_csv(), format!("{headers}\n{row}\n{row}\n"));
    }

    #[test]
    fn segmenter_table_has_one_row_per_point() {
        let point = SegmenterPoint {
            segmenter: SegmenterKind::CharNGram(3).name(),
            distinct_segments: 2568,
            rules: 1523,
            precision: 0.628,
            recall: 0.6274,
        };
        let table = segmenter_table(&[point.clone(), point]);
        let row = "char-3gram,2568,1523,0.628,0.627";
        let headers = "segmenter,segments,rules,precision,recall";
        assert_eq!(table.to_csv(), format!("{headers}\n{row}\n{row}\n"));
    }

    #[test]
    fn generalization_never_reduces_recall() {
        let (scenario, items, config) = scenario_and_items();
        let point = generalization_ablation(
            &scenario.training,
            &scenario.ontology,
            &items,
            &config,
            &GeneralizeConfig::default(),
        )
        .unwrap();
        let (base_dec, _, base_recall) = point.base;
        let (gen_dec, gen_prec, gen_recall) = point.generalized;
        assert!(gen_dec >= base_dec);
        assert!(gen_recall + 1e-9 >= base_recall);
        assert!(gen_prec > 0.0);
    }
}
