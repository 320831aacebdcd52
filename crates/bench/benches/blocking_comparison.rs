//! Experiment E5: the rule-based reduction vs the blocking baselines of the
//! related-work section (standard blocking, sorted neighbourhood, bi-gram
//! indexing, cartesian), plus the end-to-end comparison phase — all running
//! on the interned columnar [`RecordStore`], so the timed hot paths are
//! id-based (no property-IRI hashing, no term cloning per pair).

use classilink_bench::paper_learner;
use classilink_core::{RuleClassifier, RuleLearner};
use classilink_datagen::scenario::{generate, ScenarioConfig};
use classilink_eval::blocking_eval::default_key;
use classilink_eval::blocking_eval::{compare_blockers, render, stores_and_truth};
use classilink_linking::blocking::{
    collect_pairs, BigramBlocker, RuleBasedBlocker, SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::{CartesianBlocker, LinkagePipeline, RecordComparator, SimilarityMeasure};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_blocking(c: &mut Criterion) {
    // Regenerate the comparison table once on the small scenario.
    let small = generate(&ScenarioConfig::small());
    let rows = compare_blockers(&small, &paper_learner(), 0.4, 7, 0.7).expect("comparison runs");
    println!(
        "\n=== Candidate-pair generation (|SE| = {}, |SL| = {}) ===",
        small.dataset.item_count(classilink_rdf::Source::External),
        small.catalog_size()
    );
    println!("{}", render(&rows).to_ascii());

    // Time each blocking strategy on the tiny scenario.
    let scenario = generate(&ScenarioConfig::tiny());
    let (external, local, _) = stores_and_truth(&scenario);
    let config = paper_learner().with_support_threshold(0.01);
    let outcome = RuleLearner::new(config.clone())
        .learn(&scenario.training, &scenario.ontology)
        .unwrap();
    let classifier = RuleClassifier::from_outcome(&outcome, &config).with_min_confidence(0.4);

    let mut group = c.benchmark_group("blocking");
    group.sample_size(10);
    group.bench_function("store_build", |b| b.iter(|| scenario.local_store()));
    group.bench_function("standard_blocking", |b| {
        let blocker = StandardBlocker::new(default_key(4));
        b.iter(|| collect_pairs(&blocker, &external, &local))
    });
    group.bench_function("sorted_neighborhood", |b| {
        let blocker = SortedNeighborhoodBlocker::new(default_key(0), 7);
        b.iter(|| collect_pairs(&blocker, &external, &local))
    });
    group.bench_function("bigram_indexing", |b| {
        let blocker = BigramBlocker::new(default_key(0), 0.7);
        b.iter(|| collect_pairs(&blocker, &external, &local))
    });
    group.bench_function("classification_rules", |b| {
        let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology);
        b.iter(|| collect_pairs(&blocker, &external, &local))
    });
    // End-to-end blocking + comparison phase on the store: id-resolved
    // attribute rules, precomputed full-text fallback, index-sorted links.
    let comparator = RecordComparator::single(
        classilink_datagen::vocab::PROVIDER_PART_NUMBER,
        classilink_datagen::vocab::LOCAL_PART_NUMBER,
        SimilarityMeasure::JaroWinkler,
    )
    .with_thresholds(0.9, 0.75);
    group.bench_function("pipeline_rules_end_to_end", |b| {
        let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology)
            .with_fallback(true);
        let pipeline = LinkagePipeline::new(&blocker, &comparator);
        b.iter(|| pipeline.run_sharded(&external, &local))
    });
    group.bench_function("pipeline_cartesian_comparison_phase", |b| {
        let pipeline = LinkagePipeline::new(&CartesianBlocker, &comparator);
        b.iter(|| pipeline.run_sharded(&external, &local))
    });
    group.finish();
}

criterion_group!(benches, bench_blocking);
criterion_main!(benches);
