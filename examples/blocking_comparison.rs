//! Compare the paper's rule-based linking-space reduction with the classic
//! blocking baselines from the related-work section (standard blocking,
//! sorted neighbourhood, bi-gram indexing), and run the full linkage pipeline
//! on top of the best candidates.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example blocking_comparison
//! ```

use classilink::core::{LearnerConfig, PropertySelection, RuleClassifier, RuleLearner};
use classilink::datagen::scenario::{generate, ScenarioConfig};
use classilink::datagen::vocab;
use classilink::eval::blocking_eval::{compare_blockers, render, stores_and_truth};
use classilink::linking::blocking::RuleBasedBlocker;
use classilink::linking::{LinkagePipeline, RecordComparator, SimilarityMeasure};

fn main() {
    let scenario = generate(&ScenarioConfig::small());
    println!(
        "Scenario: |SL| = {} products, |SE| = {} provider items, {} expert links\n",
        scenario.catalog_size(),
        scenario.gold_classes.len(),
        scenario.training.len()
    );

    let learner = LearnerConfig::default()
        .with_support_threshold(0.002)
        .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER));

    // ------------------------------------------------------------------
    // 1. Candidate-pair generation: every strategy on the same data.
    // ------------------------------------------------------------------
    let rows = compare_blockers(&scenario, &learner, 0.4, 7, 0.7).expect("comparison runs");
    println!("{}", render(&rows).to_ascii());

    // ------------------------------------------------------------------
    // 2. Full linkage on top of the rule-based reduction: blocking by the
    //    learnt rules, then Jaro-Winkler comparison of part numbers.
    // ------------------------------------------------------------------
    let outcome = RuleLearner::new(learner.clone())
        .learn(&scenario.training, &scenario.ontology)
        .expect("learning succeeds");
    let classifier = RuleClassifier::from_outcome(&outcome, &learner).with_min_confidence(0.4);
    let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology)
        .with_fallback(true);
    let comparator = RecordComparator::single(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        SimilarityMeasure::JaroWinkler,
    )
    .with_thresholds(0.9, 0.75);

    // Columnarise both sides once; blocking, comparison and the naive
    // baseline below all run on the same interned stores.
    let (external, local, truth) = stores_and_truth(&scenario);
    let result = LinkagePipeline::new(&blocker, &comparator)
        .with_threads(4)
        .run_sharded(&external, &local);

    // How many of the expert links did the end-to-end pipeline recover?
    let truth_terms: std::collections::HashSet<_> = truth
        .iter()
        .map(|(e, l)| (external.id(*e).clone(), local.id(*l).clone()))
        .collect();
    let found = result
        .matched_pairs()
        .into_iter()
        .filter(|pair| truth_terms.contains(pair))
        .count();

    println!("End-to-end linkage through the rule-based reduction:");
    println!(
        "  comparisons performed: {} of {} naive pairs ({:.1}% reduction)",
        result.comparisons,
        result.naive_pairs,
        result.reduction_ratio * 100.0
    );
    println!(
        "  matches found: {} ({} true links recovered out of {})",
        result.matches.len(),
        found,
        truth_terms.len()
    );
    println!(
        "  possible matches for clerical review: {}",
        result.possible.len()
    );

    // For contrast: the same comparator over the naive cartesian space.
    println!(
        "\nWithout any reduction the linker would perform {} comparisons.",
        result.naive_pairs
    );
}
