//! Comparing the rule-based reduction with the classic blocking baselines
//! (experiment E5 of the [experiment index](crate#experiment-index)).
//!
//! The related-work section of the paper positions the approach against
//! blocking, sorted neighbourhood and bi-gram indexing. This module runs all
//! of them on the same generated scenario and reports, for each, the number
//! of candidate pairs, the reduction ratio, and the pairs completeness
//! (whether the true `same-as` pairs survive the reduction).
//!
//! All strategies run on the columnar stores — build the external
//! [`RecordStore`] and the one-shard catalog once with [`stores_and_truth`]
//! and hand the same pair to every blocker.

use classilink_core::{LearnerConfig, RuleClassifier, RuleLearner};
use classilink_datagen::vocab;
use classilink_datagen::GeneratedScenario;
use classilink_linking::blocking::{
    collect_pairs, BigramBlocker, Blocker, BlockingKey, BlockingStats, CartesianBlocker,
    RuleBasedBlocker, SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::{RecordStore, ShardedStore};
use std::collections::HashSet;

/// The result of one blocking strategy on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingComparisonRow {
    /// Name of the strategy.
    pub method: String,
    /// Blocking quality statistics.
    pub stats: BlockingStats,
}

/// Build the external store, the local catalog as one shard and the gold
/// pair set (as store indices) from a scenario.
pub fn stores_and_truth(
    scenario: &GeneratedScenario,
) -> (RecordStore, ShardedStore, HashSet<(usize, usize)>) {
    let (external, local) = scenario.sharded_stores(1);
    let truth: HashSet<(usize, usize)> = scenario
        .dataset
        .link_pairs()
        .filter_map(|(e, l)| Some((external.index_of(&e)?, local.index_of(&l)?)))
        .collect();
    (external, local, truth)
}

/// The default blocking key for the generated scenarios: provider reference
/// against catalog part number.
pub fn default_key(prefix: usize) -> BlockingKey {
    BlockingKey::per_side(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        prefix,
    )
}

/// Run every strategy (cartesian, standard blocking, sorted neighbourhood,
/// bigram indexing and the paper's rule-based reduction) on the scenario.
///
/// The rule-based reduction is reported twice, following the two readings of
/// the paper: *strict* only compares an external item with the predicted
/// classes (items no rule covers are not compared at all — maximal reduction,
/// bounded completeness), *fallback* compares uncovered items with the whole
/// catalog (full completeness, smaller reduction). Rules below
/// `min_confidence` are ignored, mirroring the confidence tiers of Table 1.
pub fn compare_blockers(
    scenario: &GeneratedScenario,
    learner: &LearnerConfig,
    min_confidence: f64,
    window: usize,
    bigram_threshold: f64,
) -> classilink_core::Result<Vec<BlockingComparisonRow>> {
    let (external, local, truth) = stores_and_truth(scenario);
    let outcome =
        RuleLearner::new(learner.clone()).learn(&scenario.training, &scenario.ontology)?;
    let classifier =
        RuleClassifier::from_outcome(&outcome, learner).with_min_confidence(min_confidence);

    let standard = StandardBlocker::new(default_key(4));
    let sorted = SortedNeighborhoodBlocker::new(default_key(0), window);
    let bigram = BigramBlocker::new(default_key(0), bigram_threshold);
    let rule_strict = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology);
    let rule_fallback = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology)
        .with_fallback(true);

    let blockers: Vec<(&str, Box<dyn Blocker + '_>)> = vec![
        ("cartesian", Box::new(CartesianBlocker)),
        ("standard-blocking", Box::new(standard)),
        ("sorted-neighborhood", Box::new(sorted)),
        ("bigram-indexing", Box::new(bigram)),
        ("classification-rules", Box::new(rule_strict)),
        ("classification-rules+fallback", Box::new(rule_fallback)),
    ];

    let mut rows = Vec::with_capacity(blockers.len());
    for (name, blocker) in blockers {
        let pairs = collect_pairs(blocker.as_ref(), &external, &local);
        let stats = BlockingStats::evaluate(&pairs, &truth, external.len(), local.len());
        rows.push(BlockingComparisonRow {
            method: name.to_string(),
            stats,
        });
    }
    Ok(rows)
}

/// Render the comparison as an ASCII table.
pub fn render(rows: &[BlockingComparisonRow]) -> crate::report::Table {
    let mut table = crate::report::Table::new(
        "Candidate-pair generation: rules vs blocking baselines",
        &["method", "pairs", "reduction", "completeness", "quality"],
    );
    for row in rows {
        table.row(&[
            row.method.clone(),
            row.stats.candidate_pairs.to_string(),
            crate::report::percent(row.stats.reduction_ratio),
            crate::report::percent(row.stats.pairs_completeness),
            crate::report::percent(row.stats.pairs_quality),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use classilink_core::PropertySelection;
    use classilink_datagen::scenario::{generate, ScenarioConfig};

    fn learner() -> LearnerConfig {
        LearnerConfig::default()
            .with_support_threshold(0.01)
            .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER))
    }

    #[test]
    fn all_strategies_are_compared() {
        let scenario = generate(&ScenarioConfig::tiny());
        let rows = compare_blockers(&scenario, &learner(), 0.4, 5, 0.7).unwrap();
        assert_eq!(rows.len(), 6);
        let names: Vec<&str> = rows.iter().map(|r| r.method.as_str()).collect();
        assert!(names.contains(&"cartesian"));
        assert!(names.contains(&"classification-rules"));

        // Cartesian has full completeness and zero reduction.
        let cartesian = rows.iter().find(|r| r.method == "cartesian").unwrap();
        assert_eq!(cartesian.stats.reduction_ratio, 0.0);
        assert_eq!(cartesian.stats.pairs_completeness, 1.0);

        // Every non-cartesian method reduces the space.
        for row in rows.iter().filter(|r| r.method != "cartesian") {
            assert!(
                row.stats.reduction_ratio > 0.0,
                "{} did not reduce the space",
                row.method
            );
        }

        // The strict rule-based method reduces the space sharply; the
        // fallback variant keeps completeness high.
        let strict = rows
            .iter()
            .find(|r| r.method == "classification-rules")
            .unwrap();
        assert!(strict.stats.reduction_ratio > 0.5);
        let fallback = rows
            .iter()
            .find(|r| r.method == "classification-rules+fallback")
            .unwrap();
        assert!(fallback.stats.pairs_completeness > 0.8);
        assert!(fallback.stats.pairs_completeness >= strict.stats.pairs_completeness);
    }

    #[test]
    fn truth_set_matches_training_links() {
        let scenario = generate(&ScenarioConfig::tiny());
        let (_, _, truth) = stores_and_truth(&scenario);
        assert_eq!(truth.len(), scenario.dataset.link_pairs().count());
    }

    #[test]
    fn rendered_table_lists_every_method() {
        let scenario = generate(&ScenarioConfig::tiny());
        let rows = compare_blockers(&scenario, &learner(), 0.4, 5, 0.7).unwrap();
        let ascii = render(&rows).to_ascii();
        for row in &rows {
            assert!(ascii.contains(&row.method));
        }
        assert!(ascii.contains("completeness"));
    }
}
