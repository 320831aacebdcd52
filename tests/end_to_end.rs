//! Cross-crate integration tests: generate a scenario, learn rules, classify,
//! reduce the linking space, and link — the whole workflow of the paper.

use classilink::core::{LearnerConfig, PropertySelection, RuleClassifier, RuleLearner};
use classilink::datagen::scenario::{generate, ScenarioConfig};
use classilink::datagen::vocab;
use classilink::eval::blocking_eval::{compare_blockers, stores_and_truth};
use classilink::eval::reduction_sweep;
use classilink::eval::table1::Table1Experiment;
use classilink::linking::blocking::RuleBasedBlocker;
use classilink::linking::{LinkagePipeline, RecordComparator, SimilarityMeasure};

fn learner_config() -> LearnerConfig {
    LearnerConfig::default()
        .with_support_threshold(0.002)
        .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER))
}

#[test]
fn learn_classify_and_reduce_on_a_small_scenario() {
    let scenario = generate(&ScenarioConfig::small());
    let config = learner_config();
    let outcome = RuleLearner::new(config.clone())
        .learn(&scenario.training, &scenario.ontology)
        .expect("learning succeeds");
    assert!(outcome.rules.len() > 30, "expected a sizeable rule set");
    assert!(outcome.stats.frequent_classes > 10);

    // Confidence-1 rules are perfectly precise on the training data by
    // construction of the quality measures.
    for rule in outcome.rules_with_confidence(1.0) {
        assert_eq!(rule.quality.counts.both, rule.quality.counts.premise);
    }

    // Classify held-out external items and check accuracy against the gold
    // classes recorded by the generator.
    let classifier = RuleClassifier::from_outcome(&outcome, &config);
    let mut decided = 0usize;
    let mut correct = 0usize;
    for (item, facts) in &scenario.heldout {
        if let Some(prediction) = classifier.decide(facts) {
            decided += 1;
            if scenario.gold_classes.get(item) == Some(&prediction.class) {
                correct += 1;
            }
        }
    }
    assert!(
        decided > scenario.heldout.len() / 3,
        "too few held-out decisions"
    );
    assert!(
        correct as f64 / decided as f64 > 0.5,
        "held-out precision too low: {correct}/{decided}"
    );

    // The linking subspace of classified items is much smaller than the
    // catalog.
    let (external, local) = scenario.sharded_stores(1);
    let items = &scenario.training_records()[..200];
    let strict = &reduction_sweep(
        &classifier,
        &scenario.instances,
        &scenario.ontology,
        &external,
        &local,
        items,
        &[1.0],
    )[0];
    assert!(strict.classified_fraction > 0.0);
    assert!(
        strict.mean_factor > 5.0,
        "confidence-1 rules should shrink the space by a large factor, got {}",
        strict.mean_factor
    );
}

#[test]
fn table1_report_has_the_paper_shape() {
    let scenario = generate(&ScenarioConfig::small());
    let experiment = Table1Experiment::with_learner(learner_config());
    let (outcome, report) = experiment
        .run_on_training(&scenario.training, &scenario.ontology)
        .expect("experiment runs");

    assert_eq!(report.rows.len(), 4);
    assert_eq!(report.evaluated_items, scenario.training.len());
    assert!(report.total_rules > 50);
    assert_eq!(report.total_rules, outcome.rules.len());

    // Shape of Table 1: the confidence-1 row is perfectly precise; precision
    // never increases and recall never decreases as the threshold drops.
    assert!((report.rows[0].precision - 1.0).abs() < 1e-9);
    assert!(report.rows[0].recall > 0.15);
    for pair in report.rows.windows(2) {
        assert!(pair[0].precision + 1e-9 >= pair[1].precision);
        assert!(pair[0].recall <= pair[1].recall + 1e-9);
    }
    // The last row classifies strictly more items than the first.
    assert!(report.rows[3].decisions > report.rows[0].decisions);
    // Average lift stays well above 1 in every row (the paper reports > 20).
    for row in &report.rows {
        assert!(row.avg_lift > 5.0, "lift too low in row {row:?}");
    }
}

#[test]
fn rule_based_blocking_beats_cartesian_and_feeds_the_linker() {
    let scenario = generate(&ScenarioConfig::tiny());
    let config = learner_config().with_support_threshold(0.01);

    let rows = compare_blockers(&scenario, &config, 0.4, 5, 0.7).expect("comparison runs");
    let cartesian = rows.iter().find(|r| r.method == "cartesian").unwrap();
    let rules = rows
        .iter()
        .find(|r| r.method == "classification-rules+fallback")
        .unwrap();
    assert!(rules.stats.candidate_pairs < cartesian.stats.candidate_pairs);
    assert!(rules.stats.pairs_completeness > 0.8);

    // Run the linkage pipeline over the rule-based candidates and check it
    // recovers most of the expert links.
    let outcome = RuleLearner::new(config.clone())
        .learn(&scenario.training, &scenario.ontology)
        .unwrap();
    let classifier = RuleClassifier::from_outcome(&outcome, &config);
    let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology)
        .with_fallback(true);
    let comparator = RecordComparator::single(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        SimilarityMeasure::JaroWinkler,
    )
    .with_thresholds(0.9, 0.75);
    let (external, local, truth) = stores_and_truth(&scenario);
    let result = LinkagePipeline::new(&blocker, &comparator).run_sharded(&external, &local);
    assert!(result.comparisons < result.naive_pairs);

    let truth_terms: std::collections::HashSet<_> = truth
        .iter()
        .map(|(e, l)| (external.id(*e).clone(), local.id(*l).clone()))
        .collect();
    let recovered = result
        .matched_pairs()
        .into_iter()
        .filter(|p| truth_terms.contains(p))
        .count();
    assert!(
        recovered as f64 / truth_terms.len() as f64 > 0.5,
        "only {recovered} of {} links recovered",
        truth_terms.len()
    );
}

#[test]
fn scenario_determinism_extends_to_learning() {
    let a = generate(&ScenarioConfig::tiny());
    let b = generate(&ScenarioConfig::tiny());
    let config = learner_config().with_support_threshold(0.01);
    let oa = RuleLearner::new(config.clone())
        .learn(&a.training, &a.ontology)
        .unwrap();
    let ob = RuleLearner::new(config)
        .learn(&b.training, &b.ontology)
        .unwrap();
    assert_eq!(oa, ob);
}

/// Hierarchy pruning on learned rules: the base rules plus their
/// subsumption generalisations (the A3 extension, which adds rules on
/// ancestor classes under the premises of the base rules) keep, per
/// premise, only rules on unrelated classes, and each dropped rule gives
/// way to a kept one on a class it subsumes.
#[test]
fn hierarchy_pruning_keeps_the_most_specific_rule_of_each_premise() {
    use classilink::core::{
        generalize, prune_hierarchy_redundant, ClassificationRule, GeneralizeConfig,
        HierarchyPreference,
    };
    let config = learner_config();
    for preset in [ScenarioConfig::tiny(), ScenarioConfig::small()] {
        let scenario = generate(&preset);
        let onto = &scenario.ontology;
        let outcome = RuleLearner::new(config.clone())
            .learn(&scenario.training, onto)
            .expect("learning succeeds");
        let lifted = generalize(
            &scenario.training,
            onto,
            &config,
            &outcome,
            &GeneralizeConfig,
        )
        .expect("generalisation succeeds");
        let rules: Vec<ClassificationRule> = (outcome.rules.iter())
            .chain(&lifted.generalized_rules)
            .cloned()
            .collect();
        let kept = prune_hierarchy_redundant(&rules, onto, HierarchyPreference::MoreSpecific);
        let premise = |r: &ClassificationRule| (r.property.clone(), r.segment.clone());
        let related = |a: &ClassificationRule, b: &ClassificationRule| {
            onto.is_subclass_of(a.class, b.class) || onto.is_subclass_of(b.class, a.class)
        };
        for (i, a) in kept.iter().enumerate() {
            for b in &kept[i + 1..] {
                assert!(
                    premise(a) != premise(b) || !related(a, b),
                    "kept {:?} ⇒ {} and ⇒ {}",
                    premise(a),
                    a.class_label,
                    b.class_label
                );
            }
        }
        // Every input rule is kept (the output is a subset) or gave way.
        let mut dropped = 0;
        for r in rules.iter().filter(|r| !kept.contains(r)) {
            dropped += 1;
            assert!(
                kept.iter()
                    .any(|k| premise(k) == premise(r) && onto.is_subclass_of(k.class, r.class)),
                "dropped {:?} ⇒ {} without a more specific kept rule",
                premise(r),
                r.class_label
            );
        }
        assert_eq!(kept.len() + dropped, rules.len());
        assert!(dropped > 0, "no rule shared a premise with a related class");
    }
}
