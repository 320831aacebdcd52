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
    generalize, GeneralizeConfig, LearnerConfig, RuleClassifier, RuleLearner, TrainingSet,
};
use classilink_linking::blocking::{Blocker, CandidateRuns, RuleBasedBlocker};
use classilink_linking::{LocalShards, RecordStore};
use classilink_ontology::{InstanceStore, Ontology};
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
    pub mean_factor: f64,
    /// Average lift of the retained rules.
    pub avg_lift: f64,
}

/// Sweep the confidence threshold and measure the linking-space reduction
/// for `items` (record ids of `external`, summed in the order given).
///
/// An item's linking subspace is what the strict [`RuleBasedBlocker`]
/// streams for it against `local` — the union of its predicted classes'
/// extents, each catalog record once — so E3/E4 count the candidates the
/// engine would compare, at any sharding of the catalog. An item no rule
/// fires for keeps the whole catalog; a classified item whose classes have
/// no instance in `local` keeps nothing and counts a factor of `|SL|`.
pub fn reduction_sweep<'s>(
    classifier: &RuleClassifier,
    instances: &InstanceStore,
    ontology: &Ontology,
    external: &RecordStore,
    local: impl Into<LocalShards<'s>>,
    items: &[usize],
    thresholds: &[f64],
) -> Vec<ReductionPoint> {
    let local = local.into();
    let local_size = local.len();
    let naive_pairs = items.len() as u64 * local_size as u64;
    let mut runs = CandidateRuns::new();
    let mut subspace_sizes = vec![0u64; external.len()];
    thresholds
        .iter()
        .map(|threshold| {
            let classifier = classifier.with_min_confidence(*threshold);
            RuleBasedBlocker::new(&classifier, instances, ontology)
                .stream_candidates(external, local, &mut runs);
            subspace_sizes.fill(0);
            for shard in 0..runs.shard_count() {
                for block in runs.blocks(shard) {
                    subspace_sizes[block.external()] += block.len() as u64;
                }
            }
            let mut classified = 0usize;
            let mut reduced_pairs = 0u64;
            let mut factor_sum = 0.0f64;
            for &item in items {
                let size = subspace_sizes[item];
                // Candidates mean a rule fired; without any, the classifier
                // tells an unclassified item from one whose classes have no
                // instance in `local`.
                if size == 0
                    && classifier
                        .classify_fact_refs(external.facts(item))
                        .is_empty()
                {
                    reduced_pairs += local_size as u64;
                    continue;
                }
                classified += 1;
                reduced_pairs += size;
                // An empty subspace removes every comparison for the item.
                factor_sum += local_size as f64 / size.max(1) as f64;
            }
            // `remaining_fraction` is the complement of this ratio (the
            // pipeline's `reduction_ratio`), not the bare quotient: the two
            // can differ in the last bit.
            let reduction_ratio = if naive_pairs == 0 {
                0.0
            } else {
                1.0 - reduced_pairs as f64 / naive_pairs as f64
            };
            let rules = classifier.rules().len();
            ReductionPoint {
                confidence_threshold: *threshold,
                rules,
                classified_fraction: if items.is_empty() {
                    0.0
                } else {
                    classified as f64 / items.len() as f64
                },
                remaining_fraction: 1.0 - reduction_ratio,
                mean_factor: if classified == 0 {
                    1.0
                } else {
                    factor_sum / classified as f64
                },
                avg_lift: if rules == 0 {
                    0.0
                } else {
                    classifier.rules().iter().map(|r| r.lift()).sum::<f64>() / rules as f64
                },
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
            float(p.mean_factor, 1),
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
) -> classilink_core::Result<GeneralizationPoint> {
    let outcome = RuleLearner::new(config.clone()).learn(training, ontology)?;
    let base_classifier = RuleClassifier::from_outcome(&outcome, config);
    let mut base_tally = ClassificationOutcome::new(items.len());
    for (gold, facts) in items {
        base_tally.record(base_classifier.decide(facts).map(|p| p.class), *gold);
    }

    let gen = generalize(training, ontology, config, &outcome, &GeneralizeConfig)?;
    let mut all_rules = outcome.rules.clone();
    all_rules.extend(gen.generalized_rules.clone());
    let extended_classifier = RuleClassifier::new(all_rules, config.segmenter.clone());

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
        let (external, items) = (scenario.external_store(), scenario.training_records());
        let points = reduction_sweep(
            &RuleClassifier::from_outcome(&outcome, &config),
            &scenario.instances,
            &scenario.ontology,
            &external,
            &scenario.local_store(),
            &items,
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
        assert!(last.mean_factor > 1.5);
        assert!(last.remaining_fraction < 1.0);
    }

    /// E3/E4 tied to the engine's own count: measured over every external
    /// record, `remaining_fraction × naive pairs` is the `comparisons` of a
    /// pipeline run under the same strict blocker plus `|SL|` for each
    /// record no rule fired for.
    fn assert_sweep_counts_what_the_engine_compares(
        classifier: &RuleClassifier,
        instances: &InstanceStore,
        ontology: &Ontology,
        external: &RecordStore,
        local: &classilink_linking::ShardedStore,
        thresholds: &[f64],
    ) {
        use classilink_linking::{LinkagePipeline, RecordComparator, SimilarityMeasure};

        let comparator = RecordComparator::single(
            vocab::PROVIDER_PART_NUMBER,
            vocab::LOCAL_PART_NUMBER,
            SimilarityMeasure::JaroWinkler,
        );
        let items: Vec<usize> = (0..external.len()).collect();
        let naive_pairs = (external.len() * local.len()) as f64;
        let points = reduction_sweep(
            classifier, instances, ontology, external, local, &items, thresholds,
        );
        for (point, threshold) in points.iter().zip(thresholds) {
            let classifier = classifier.with_min_confidence(*threshold);
            let blocker = RuleBasedBlocker::new(&classifier, instances, ontology);
            let comparisons = LinkagePipeline::new(&blocker, &comparator)
                .try_run_sharded(external, local)
                .unwrap()
                .comparisons;
            let unclassified =
                ((1.0 - point.classified_fraction) * items.len() as f64).round() as u64;
            assert!(unclassified > 0 && comparisons > 0);
            assert_eq!(
                (point.remaining_fraction * naive_pairs).round() as u64,
                comparisons + unclassified * local.len() as u64,
                "confidence {threshold}, {} shards",
                local.shard_count()
            );
        }
    }

    #[test]
    fn reduction_counts_each_subspace_as_the_blocker_streams_it() {
        use classilink_core::{ClassificationRule, Contingency};
        use classilink_linking::{Record, ShardedStore};
        use classilink_ontology::{ClassId, OntologyBuilder};
        use classilink_rdf::Term;

        const PN: &str = "http://provider.e.org/v#partNumber";
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let resistor = b.class("FixedFilmResistor", Some(root));
        let capacitor = b.class("TantalumCapacitor", Some(root));
        let inductor = b.class("Inductor", Some(root));
        let ontology = b.build();
        // Catalog: 8 resistors, 2 capacitors, no inductor → |SL| = 10.
        let mut instances = InstanceStore::new();
        let mut catalog = Vec::new();
        for (i, class) in [resistor; 8].into_iter().chain([capacitor; 2]).enumerate() {
            let id = Term::iri(format!("http://l.e.org/{i}"));
            instances.assert_type(&id, class);
            catalog.push(Record::new(id));
        }
        let rule = |segment: &str, class: ClassId, conf_pct: u64| ClassificationRule {
            property: PN.to_string(),
            segment: segment.to_string(),
            class,
            class_iri: ontology.iri(class).to_string(),
            class_label: String::new(),
            quality: Contingency::new(1000, 100, 200, conf_pct).quality(),
        };
        let classifier = RuleClassifier::new(
            vec![
                rule("ohm", resistor, 100),
                rule("t83", capacitor, 100),
                rule("coil", inductor, 100),
                rule("63v", capacitor, 60),
                rule("part", root, 60),
            ],
            SegmenterKind::Separator,
        );
        let external: Vec<Record> = [
            "10K-ohm",      // 0: resistors → 8
            "T83-A225",     // 1: capacitors → 2
            "MYSTERY",      // 2: no rule fires → the whole catalog, 10
            "part-10K-ohm", // 3: a class and its superclass → 10, each once
            "coil-1",       // 4: classified into an empty extent → 0
            "ohm-63V",      // 5: two disjoint classes → 8 + 2
            "part-1",       // 6: the root covers its descendants' instances
        ]
        .iter()
        .enumerate()
        .map(|(i, pn)| {
            let mut record = Record::new(Term::iri(format!("http://p.e.org/{i}")));
            record.add(PN, *pn);
            record
        })
        .collect();
        let external = RecordStore::from_records(&external);

        for shards in [1, 3] {
            let local = ShardedStore::from_records(&catalog, shards);
            let sweep = |items: &[usize], thresholds: &[f64]| {
                reduction_sweep(
                    &classifier,
                    &instances,
                    &ontology,
                    &external,
                    &local,
                    items,
                    thresholds,
                )
            };
            // Sizes 8, 2 and an unclassified 10: 20 of 30 pairs remain,
            // factors 10/8 and 10/2.
            let p = &sweep(&[0, 1, 2], &[1.0])[0];
            assert_eq!(p.rules, 3);
            assert_eq!(p.classified_fraction, 2.0 / 3.0);
            assert_eq!(p.remaining_fraction, 1.0 - (1.0 - 20.0 / 30.0));
            assert_eq!(p.mean_factor, 3.125);
            // Below 0.6 the superclass and second-class rules fire too:
            // overlapping extents count once, disjoint ones add up.
            let p = &sweep(&[3, 5, 6], &[0.6])[0];
            assert_eq!(p.rules, 5);
            assert_eq!(p.classified_fraction, 1.0);
            assert_eq!(p.remaining_fraction, 1.0);
            assert_eq!(p.mean_factor, 1.0);
            // At 1.0 the same items keep only the resistors (item 6: nothing fires).
            let p = &sweep(&[3, 5, 6], &[1.0])[0];
            assert_eq!(p.classified_fraction, 2.0 / 3.0);
            assert_eq!(p.remaining_fraction, 1.0 - (1.0 - 26.0 / 30.0));
            // An empty extent removes every comparison: a factor of |SL|.
            let p = &sweep(&[4], &[1.0])[0];
            assert_eq!(p.classified_fraction, 1.0);
            assert_eq!(p.remaining_fraction, 0.0);
            assert_eq!(p.mean_factor, 10.0);
            // Nothing to measure: no reduction, factor 1.
            let p = &sweep(&[], &[1.0])[0];
            assert_eq!(
                (p.classified_fraction, p.remaining_fraction),
                (0.0, 1.0),
                "{shards} shards"
            );
            assert_eq!(p.mean_factor, 1.0);
            // And the whole batch against the pipeline's own count.
            assert_sweep_counts_what_the_engine_compares(
                &classifier,
                &instances,
                &ontology,
                &external,
                &local,
                &[1.0, 0.6],
            );
        }
    }

    #[test]
    fn reduction_is_the_comparison_count_of_the_strict_rule_blocker() {
        let scenario = generate(&ScenarioConfig::small());
        let config = LearnerConfig::paper()
            .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER));
        let outcome = RuleLearner::new(config.clone())
            .learn(&scenario.training, &scenario.ontology)
            .unwrap();
        let classifier = RuleClassifier::from_outcome(&outcome, &config);
        for shards in [1, 3, 8] {
            let (external, local) = scenario.sharded_stores(shards);
            assert_sweep_counts_what_the_engine_compares(
                &classifier,
                &scenario.instances,
                &scenario.ontology,
                &external,
                &local,
                &[1.0, 0.8, 0.6, 0.4, 0.2],
            );
        }
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
            mean_factor: 51.23,
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
        let point =
            generalization_ablation(&scenario.training, &scenario.ontology, &items, &config)
                .unwrap();
        let (base_dec, _, base_recall) = point.base;
        let (gen_dec, gen_prec, gen_recall) = point.generalized;
        assert!(gen_dec >= base_dec);
        assert!(gen_recall + 1e-9 >= base_recall);
        assert!(gen_prec > 0.0);
    }
}
