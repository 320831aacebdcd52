//! The streaming-blocking equivalence guard: on a **generated scenario**
//! (realistic part numbers, perturbations, a learned rule classifier),
//! the streamed per-shard candidate runs of every built-in blocker —
//! cartesian, standard key, sorted neighbourhood, bigram indexing and
//! classification rules — are identical to an independent, naive
//! **materialised reference** implementation of the same strategy, and
//! the pipeline results built on those runs (scores included, bit for
//! bit) match a from-scratch reference scorer over the reference
//! candidate set, across {1, 3, 8} shards × {1, 4} threads — under three
//! comparators, two of them at the thresholds where the hoisted scoring
//! path's non-match filter does most of the work (the reference scorer is
//! the exact, never-skipping `CompiledComparator::score`).
//!
//! The reference implementations below are deliberately string- and
//! hash-based and do not touch `stream_candidates`, `CandidateRuns` or
//! the store-level `KeyIndex`, so a regression anywhere in the streaming
//! stack cannot cancel out of both sides.

use classilink_core::{ClassificationRule, LearnerConfig, RuleClassifier};
use classilink_datagen::scenario::{generate, GeneratedScenario, ScenarioConfig};
use classilink_datagen::vocab;
use classilink_linking::blocking::{
    collect_pairs, BigramBlocker, Blocker, BlockingKey, CartesianBlocker, RuleBasedBlocker,
    SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::pipeline::{Link, LinkageResult};
use classilink_linking::{
    AttributeRule, CandidateRuns, CompiledComparator, LeftHoist, LinkagePipeline, MatchDecision,
    RecordComparator, RecordStore, SchemaInterner, ShardedStore, SimScratch, SimilarityMeasure,
};
use classilink_segment::{CharNGramSegmenter, Segmenter};
use std::collections::{BTreeSet, HashMap, HashSet};

mod common;
use common::{classifier, comparator, key, learn_classifier};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn rule(left: &str, right: &str, measure: SimilarityMeasure, weight: f64) -> AttributeRule {
    AttributeRule {
        left_property: left.to_string(),
        right_property: right.to_string(),
        measure,
        weight,
    }
}

/// `linkbench`'s `jw95`: one Jaro-Winkler rule, match ≥ 0.95, possible ≥
/// 0.90 — the filter rejects most candidates on the bound alone.
fn jw95() -> RecordComparator {
    RecordComparator::single(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        SimilarityMeasure::JaroWinkler,
    )
    .with_thresholds(0.95, 0.90)
}

/// A string rule and a set rule (0.8 Jaro-Winkler + 0.2 token Jaccard):
/// what the first rule needs depends on what the second could still add.
fn jw_jaccard() -> RecordComparator {
    RecordComparator::new(vec![
        rule(
            vocab::PROVIDER_PART_NUMBER,
            vocab::LOCAL_PART_NUMBER,
            SimilarityMeasure::JaroWinkler,
            0.8,
        ),
        rule(
            vocab::PROVIDER_MANUFACTURER,
            vocab::LOCAL_MANUFACTURER,
            SimilarityMeasure::JaccardTokens,
            0.2,
        ),
    ])
    .with_thresholds(0.95, 0.90)
}

/// The comparators every blocker's reference matrix runs under.
fn comparators() -> [(&'static str, RecordComparator); 3] {
    [
        ("three-rule", comparator()),
        ("jw95", jw95()),
        ("jw+jaccard", jw_jaccard()),
    ]
}

/// The learnt rules plus, for every rule, a twin concluding the **parent**
/// class: an external that fires a rule is predicted into a class and its
/// superclass, whose extent contains the class's. Twins alternate between
/// ranking before their original (higher lift, equal confidence) and after
/// it (lower confidence), so both "superset first" and "subset first"
/// replays occur.
fn overlapping_classifier(scenario: &GeneratedScenario) -> RuleClassifier {
    let learner = LearnerConfig::default();
    let learnt = classifier(scenario);
    let mut rules = learnt.rules().to_vec();
    for (i, rule) in learnt.rules().iter().enumerate() {
        let Some(&parent) = scenario.ontology.parents(rule.class).first() else {
            continue;
        };
        let mut twin = ClassificationRule {
            class: parent,
            class_iri: scenario.ontology.iri(parent).to_string(),
            class_label: scenario.ontology.label(parent).to_string(),
            ..rule.clone()
        };
        if i % 2 == 0 {
            twin.quality.lift *= 2.0;
        } else {
            twin.quality.confidence *= 0.9;
        }
        rules.push(twin);
    }
    RuleClassifier::new(rules, learner.segmenter)
}

// ---------------------------------------------------------------------
// Naive reference implementations (global ids, single store).
// ---------------------------------------------------------------------

fn reference_cartesian(external: &RecordStore, local: &RecordStore) -> BTreeSet<(usize, usize)> {
    (0..external.len())
        .flat_map(|e| (0..local.len()).map(move |l| (e, l)))
        .collect()
}

fn reference_standard(
    key: &BlockingKey,
    external: &RecordStore,
    local: &RecordStore,
) -> BTreeSet<(usize, usize)> {
    let external_side = key.external_side(external);
    let local_side = key.local_side(local);
    let mut blocks: HashMap<String, Vec<usize>> = HashMap::new();
    for l in 0..local.len() {
        let k = local_side.key(local, l);
        if !k.is_empty() {
            blocks.entry(k).or_default().push(l);
        }
    }
    let mut pairs = BTreeSet::new();
    for e in 0..external.len() {
        let k = external_side.key(external, e);
        if k.is_empty() {
            continue;
        }
        for &l in blocks.get(&k).map(Vec::as_slice).unwrap_or(&[]) {
            pairs.insert((e, l));
        }
    }
    pairs
}

fn reference_bigram(
    key: &BlockingKey,
    threshold: f64,
    external: &RecordStore,
    local: &RecordStore,
) -> BTreeSet<(usize, usize)> {
    let segmenter = CharNGramSegmenter::padded_bigrams();
    let external_side = key.external_side(external);
    let local_side = key.local_side(local);
    let grams = |k: &str| -> HashSet<String> { segmenter.split_distinct(k).into_iter().collect() };
    let local_grams: Vec<HashSet<String>> = (0..local.len())
        .map(|l| grams(&local_side.key(local, l)))
        .collect();
    let mut pairs = BTreeSet::new();
    for e in 0..external.len() {
        let external_grams = grams(&external_side.key(external, e));
        for (l, lg) in local_grams.iter().enumerate() {
            let shared = external_grams.intersection(lg).count();
            let smaller = external_grams.len().min(lg.len()).max(1);
            let required = (threshold * smaller as f64).ceil() as usize;
            if shared >= required.max(1) {
                pairs.insert((e, l));
            }
        }
    }
    pairs
}

fn reference_sorted_neighborhood(
    key: &BlockingKey,
    window: usize,
    external: &RecordStore,
    local: &RecordStore,
) -> BTreeSet<(usize, usize)> {
    let external_side = key.external_side(external);
    let local_side = key.local_side(local);
    // The locals-only ladder, ordered by (sort value, id); each external
    // inserts after every local whose sort value is ≤ its own and pairs
    // with the `window − 1` nearest locals on each side.
    let mut ladder: Vec<(String, usize)> = (0..local.len())
        .map(|l| (local_side.sort_value(local, l), l))
        .collect();
    ladder.sort();
    let mut pairs = BTreeSet::new();
    for e in 0..external.len() {
        let value = external_side.sort_value(external, e);
        let position = ladder.partition_point(|(v, _)| *v <= value);
        for (_, l) in &ladder[position.saturating_sub(window.max(1) - 1)..position] {
            pairs.insert((e, *l));
        }
        for (_, l) in ladder[position..].iter().take(window.max(1) - 1) {
            pairs.insert((e, *l));
        }
    }
    pairs
}

/// The rule blocker's **per-shard emission sequence**, written the obvious
/// way: externals in order, prediction-major, each predicted extent as
/// owned terms in `Term` order looked up in every shard, the first
/// occurrence of a local winning; an unclassified external under the
/// fallback pairs with each whole shard. Per shard: its pairs in order and
/// its block count (one block per external with any pair in the shard).
fn reference_rule_sequences(
    scenario: &GeneratedScenario,
    classifier: &RuleClassifier,
    fallback: bool,
    external: &RecordStore,
    local: &ShardedStore,
) -> Vec<(Vec<(usize, usize)>, usize)> {
    let mut shards = vec![(Vec::new(), 0usize); local.shard_count()];
    for e in 0..external.len() {
        let predictions = classifier.classify_fact_refs(external.facts(e));
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut emitted = vec![false; local.shard_count()];
        if predictions.is_empty() && fallback {
            for (s, (pairs, _)) in shards.iter_mut().enumerate() {
                pairs.extend((0..local.shard(s).len()).map(|l| (e, l)));
                emitted[s] = !local.shard(s).is_empty();
            }
        }
        for prediction in &predictions {
            for item in scenario
                .instances
                .extent(prediction.class, &scenario.ontology)
            {
                for (s, (pairs, _)) in shards.iter_mut().enumerate() {
                    if let Some(l) = local.shard(s).index_of(&item) {
                        if seen.insert((s, l)) {
                            pairs.push((e, l));
                            emitted[s] = true;
                        }
                    }
                }
            }
        }
        for (s, (_, blocks)) in shards.iter_mut().enumerate() {
            *blocks += usize::from(emitted[s]);
        }
    }
    shards
}

/// Stream the rule blocker into a sink restricted to shards
/// `first_active..` and assert every shard's decoded pair **sequence**
/// and block count equal the obvious reference's (nothing for the
/// inactive shards). Returns the streamed total.
fn assert_rule_sequences_match(
    scenario: &GeneratedScenario,
    classifier: &RuleClassifier,
    fallback: bool,
    external: &RecordStore,
    local: &ShardedStore,
    first_active: usize,
) -> u64 {
    let blocker = RuleBasedBlocker::new(classifier, &scenario.instances, &scenario.ontology)
        .with_fallback(fallback);
    let mut runs = CandidateRuns::new();
    runs.restrict_to_shards_from(first_active);
    blocker.stream_candidates(external, local.into(), &mut runs);
    let reference = reference_rule_sequences(scenario, classifier, fallback, external, local);
    let context = format!(
        "{} shards from {first_active}, fallback {fallback}",
        local.shard_count()
    );
    let mut total = 0u64;
    for (s, (pairs, blocks)) in reference.iter().enumerate() {
        if s < first_active {
            assert!(runs.blocks(s).is_empty(), "{context}: inactive shard {s}");
            assert_eq!(runs.shard_total(s), 0, "{context}: inactive shard {s}");
            continue;
        }
        assert!(
            runs.pairs(s).eq(pairs.iter().copied()),
            "{context}: shard {s} emission sequence"
        );
        assert_eq!(
            runs.blocks(s).len(),
            *blocks,
            "{context}: shard {s} block count"
        );
        total += pairs.len() as u64;
    }
    assert_eq!(runs.total(), total, "{context}: total");
    total
}

/// Score the reference candidate set pair by pair and build the result
/// the pipeline should produce — candidates in index order, scores from
/// the compiled comparator, links sorted by (external, local) index.
fn reference_result(
    comparator: &RecordComparator,
    external: &RecordStore,
    local: &RecordStore,
    candidates: &BTreeSet<(usize, usize)>,
) -> LinkageResult {
    let compiled = comparator.compile(external, local);
    let mut scratch = SimScratch::new();
    let mut matches = Vec::new();
    let mut possible = Vec::new();
    for &(e, l) in candidates {
        let (score, decision) = compiled.score(external, e, local, l, &mut scratch);
        let link = || Link {
            external: external.id(e).clone(),
            local: local.id(l).clone(),
            score,
        };
        match decision {
            MatchDecision::Match => matches.push(link()),
            MatchDecision::Possible => possible.push(link()),
            MatchDecision::NonMatch => {}
        }
    }
    let comparisons = candidates.len() as u64;
    let naive_pairs = external.len() as u64 * local.len() as u64;
    let reduction_ratio = if naive_pairs == 0 {
        0.0
    } else {
        1.0 - comparisons as f64 / naive_pairs as f64
    };
    LinkageResult {
        matches,
        possible,
        comparisons,
        naive_pairs,
        reduction_ratio,
    }
}

/// Structural invariants of the run-block representation: per shard,
/// the block lengths sum to the shard total (and the totals to the
/// sink total), and every block decodes to exactly `len` pairs — so the
/// pair sets asserted below really did travel through the compressed
/// encoding, not around it.
fn assert_block_invariants(runs: &CandidateRuns, blocker: &str) {
    let mut total = 0u64;
    for shard in 0..runs.shard_count() {
        let mut shard_total = 0u64;
        let mut decoded = 0u64;
        for (index, block) in runs.blocks(shard).iter().enumerate() {
            assert!(!block.is_empty(), "{blocker}: empty block emitted");
            shard_total += block.len() as u64;
            let (external, run) = runs.run(shard, index);
            assert_eq!(external, block.external(), "{blocker}: external mismatch");
            assert_eq!(run.len(), block.len(), "{blocker}: run/block len mismatch");
            let ids: Vec<usize> = run.iter().collect();
            assert_eq!(ids.len(), run.len(), "{blocker}: iterator length");
            decoded += ids.len() as u64;
        }
        assert_eq!(
            shard_total,
            runs.shard_total(shard),
            "{blocker}: shard {shard} total"
        );
        assert_eq!(
            decoded, shard_total,
            "{blocker}: shard {shard} decode count"
        );
        total += shard_total;
    }
    assert_eq!(total, runs.total(), "{blocker}: sink total");
}

/// The guard itself: streamed runs == reference candidate set (as sets
/// *and* in count, so duplicates cannot hide), and every pipeline result
/// built on the streamed runs == the reference scorer's result, for all
/// shard and thread counts.
fn assert_streaming_matches_reference(
    scenario: &GeneratedScenario,
    blocker: &dyn Blocker,
    reference: &BTreeSet<(usize, usize)>,
) {
    let external = scenario.external_store();
    let local = scenario.local_store();
    let expected: Vec<(&str, RecordComparator, LinkageResult)> = comparators()
        .into_iter()
        .map(|(label, cmp)| {
            let result = reference_result(&cmp, &external, &local, reference);
            assert!(
                !result.matches.is_empty() && !result.possible.is_empty(),
                "{} / {label}: the reference lacks matches or possibles — the guard \
                 would be vacuous",
                blocker.name()
            );
            (label, cmp, result)
        })
        .collect();

    // Single-store streaming (a one-shard view), decoded **through the
    // block representation**.
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, (&local).into(), &mut runs);
    assert_eq!(
        runs.total() as usize,
        reference.len(),
        "{}: single-store streamed candidate count",
        blocker.name()
    );
    assert_block_invariants(&runs, blocker.name());
    let streamed: BTreeSet<(usize, usize)> = runs.pairs(0).collect();
    assert_eq!(
        &streamed,
        reference,
        "{}: single-store candidate set",
        blocker.name()
    );

    for shard_count in SHARD_COUNTS {
        let (sharded_external, sharded_local) = scenario.sharded_stores(shard_count);
        // Streamed runs, globalised, must be the reference set exactly.
        let mut runs = CandidateRuns::new();
        blocker.stream_candidates(&sharded_external, (&sharded_local).into(), &mut runs);
        assert_eq!(
            runs.total() as usize,
            reference.len(),
            "{}: {shard_count} shards streamed candidate count",
            blocker.name()
        );
        assert_block_invariants(&runs, blocker.name());
        // The key-driven blockers coalesce one block per (shard,
        // external), so while runs hold several records their run-block
        // encoding never exceeds the flat one-pair-per-candidate
        // encoding. (Eight shards cut this tiny catalog down to about
        // one local per run, where a 16-byte block plus a 4-byte id
        // legitimately outweighs a 16-byte pair.)
        if shard_count <= 3
            && matches!(
                blocker.name(),
                "standard-blocking" | "sorted-neighborhood" | "bigram-indexing"
            )
        {
            assert!(
                runs.queue_bytes() <= runs.pair_bytes(),
                "{}: {shard_count} shards: {} queue bytes exceed {} pair bytes",
                blocker.name(),
                runs.queue_bytes(),
                runs.pair_bytes()
            );
        }
        // `collect_pairs` is sorted and duplicate-free, like the
        // reference set's iteration order.
        let globalised = collect_pairs(blocker, &sharded_external, &sharded_local);
        assert!(
            globalised.iter().eq(reference.iter()),
            "{}: {shard_count} shards candidate set",
            blocker.name()
        );

        for (label, cmp, expected) in &expected {
            for threads in THREAD_COUNTS {
                let result = LinkagePipeline::new(blocker, cmp)
                    .with_threads(threads)
                    .run_sharded(&sharded_external, &sharded_local);
                assert_eq!(
                    expected,
                    &result,
                    "{} / {label}: {shard_count} shards / {threads} threads diverged from \
                     the reference scorer (scores compared bit for bit)",
                    blocker.name()
                );
            }
        }
    }

    // The single store, as one shard, agrees with the reference as well.
    for (label, cmp, expected) in &expected {
        let result = LinkagePipeline::new(blocker, cmp).run_sharded(&external, &local);
        assert_eq!(
            expected,
            &result,
            "{} / {label}: single store diverged",
            blocker.name()
        );
    }
}

#[test]
fn cartesian_streaming_matches_reference() {
    let scenario = generate(&ScenarioConfig::tiny());
    let reference = reference_cartesian(&scenario.external_store(), &scenario.local_store());
    assert_streaming_matches_reference(&scenario, &CartesianBlocker, &reference);
}

#[test]
fn standard_streaming_matches_reference() {
    let scenario = generate(&ScenarioConfig::tiny());
    let blocker = StandardBlocker::new(key(4));
    let reference =
        reference_standard(&key(4), &scenario.external_store(), &scenario.local_store());
    assert_streaming_matches_reference(&scenario, &blocker, &reference);
}

#[test]
fn sorted_neighborhood_streaming_matches_reference() {
    let scenario = generate(&ScenarioConfig::tiny());
    let blocker = SortedNeighborhoodBlocker::new(key(0), 7);
    let reference = reference_sorted_neighborhood(
        &key(0),
        7,
        &scenario.external_store(),
        &scenario.local_store(),
    );
    assert_streaming_matches_reference(&scenario, &blocker, &reference);
}

#[test]
fn bigram_streaming_matches_reference() {
    let scenario = generate(&ScenarioConfig::tiny());
    let blocker = BigramBlocker::new(key(0), 0.5);
    let reference = reference_bigram(
        &key(0),
        0.5,
        &scenario.external_store(),
        &scenario.local_store(),
    );
    assert_streaming_matches_reference(&scenario, &blocker, &reference);
}

/// The `≥` boundary of the non-match filter: with `non_match_threshold`
/// set **exactly** to a score some candidate achieves, that candidate is a
/// link (its score is not *below* the threshold) and the hoisted path must
/// neither skip it on its bound nor perturb its score — and the pairs a
/// hair below stay out.
#[test]
fn non_match_threshold_on_an_achieved_score_keeps_the_pair() {
    let scenario = generate(&ScenarioConfig::tiny());
    let (external, local) = (scenario.external_store(), scenario.local_store());
    let blocker = StandardBlocker::new(key(4));
    let reference = reference_standard(&key(4), &external, &local);
    for (label, base) in [("jw95", jw95()), ("jw+jaccard", jw_jaccard())] {
        // Every distinct score the candidates achieve, ascending.
        let compiled = base.compile(&external, &local);
        let mut scratch = SimScratch::new();
        let mut achieved: Vec<f64> = reference
            .iter()
            .map(|&(e, l)| compiled.score(&external, e, &local, l, &mut scratch).0)
            .filter(|&score| score > 0.0 && score < 1.0)
            .collect();
        achieved.sort_by(f64::total_cmp);
        achieved.dedup();
        assert!(
            achieved.len() > 20,
            "{label}: only {} scores",
            achieved.len()
        );
        // Thresholds across the whole achieved range, dense near the top
        // (where the bound and the kernel are closest).
        let picks = (0..8)
            .map(|i| achieved[achieved.len() * i / 8])
            .chain(achieved.iter().rev().take(8).copied());
        for threshold in picks {
            let cmp = base.clone().with_thresholds(1.0, threshold);
            assert_eq!(cmp.non_match_threshold.to_bits(), threshold.to_bits());
            let expected = reference_result(&cmp, &external, &local, &reference);
            assert!(
                expected
                    .possible
                    .iter()
                    .any(|link| link.score.to_bits() == threshold.to_bits()),
                "{label}: no link sits exactly on the threshold {threshold}"
            );
            for shard_count in [1, 3] {
                let (sharded_external, sharded_local) = scenario.sharded_stores(shard_count);
                for threads in THREAD_COUNTS {
                    let result = LinkagePipeline::new(&blocker, &cmp)
                        .with_threads(threads)
                        .run_sharded(&sharded_external, &sharded_local);
                    assert_eq!(
                        expected, result,
                        "{label}: threshold {threshold}, {shard_count} shards / {threads} threads"
                    );
                }
            }
        }
    }
}

/// What the filter did, counted: on standard blocks under `jw95` the bound
/// rejects more value pairs than reach the kernel, every visited value
/// pair is one or the other, and the decisions are those of the exact
/// scorer — pair by pair, and again the way the pipeline scores a block
/// (the run prefilter, then `score_hoisted` on the survivors), whose
/// signature exits are a part of the same bound exits.
/// `LinkageResult::comparisons` keeps counting candidate pairs.
#[test]
fn bound_exits_outnumber_kernel_calls_and_cover_every_value_pair() {
    let scenario = generate(&ScenarioConfig::tiny());
    let (external, local) = (scenario.external_store(), scenario.local_store());
    let blocker = StandardBlocker::new(key(4));
    let cmp = jw95();
    let compiled = cmp.compile(&external, &local);
    let left = external.property(vocab::PROVIDER_PART_NUMBER).unwrap();
    let right = local.property(vocab::LOCAL_PART_NUMBER).unwrap();
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, (&local).into(), &mut runs);
    let (mut scratch, mut exact) = (SimScratch::new(), SimScratch::new());
    let mut hoist = LeftHoist::new();
    let (mut value_pairs, mut links) = (0u64, 0u64);
    for block in 0..runs.blocks(0).len() {
        let (e, run) = runs.run(0, block);
        compiled.hoist_left(&external, e, &mut hoist);
        for l in run.iter() {
            value_pairs +=
                (external.values(e, left).count() * local.values(l, right).count()) as u64;
            let (score, decision) =
                compiled.score_hoisted(&hoist, &external, &local, l, &mut scratch);
            let (exact_score, exact_decision) = compiled.score(&external, e, &local, l, &mut exact);
            assert_eq!(decision, exact_decision, "pair ({e}, {l})");
            if decision == MatchDecision::NonMatch {
                assert!(score < cmp.non_match_threshold, "pair ({e}, {l})");
            } else {
                assert_eq!(score.to_bits(), exact_score.to_bits(), "pair ({e}, {l})");
                links += 1;
            }
        }
    }
    assert_eq!(scratch.kernel_calls + scratch.bound_exits, value_pairs);
    assert!(
        scratch.bound_exits > scratch.kernel_calls,
        "{} bound exits against {} kernel calls",
        scratch.bound_exits,
        scratch.kernel_calls
    );
    assert!(scratch.kernel_calls >= links, "every link ran its kernel");
    assert_eq!(scratch.signature_exits, 0, "no prefilter ran");
    // `score`, the oracle, never counts: it never skips.
    assert_eq!((exact.kernel_calls, exact.bound_exits), (0, 0));

    // The block path: the same account, most of it settled on signatures.
    let (blocked, block_links) = score_blocks(&compiled, &runs, &external, &local);
    assert_eq!(
        (blocked.kernel_calls, blocked.bound_exits, block_links),
        (scratch.kernel_calls, scratch.bound_exits, links)
    );
    assert!(
        blocked.signature_exits <= blocked.bound_exits
            && blocked.signature_exits > blocked.kernel_calls,
        "{} signature exits of {} bound exits, {} kernel calls",
        blocked.signature_exits,
        blocked.bound_exits,
        blocked.kernel_calls
    );
    let result = LinkagePipeline::new(&blocker, &cmp).run_sharded(&external, &local);
    assert_eq!(result.comparisons, runs.total());
    assert_eq!((result.matches.len() + result.possible.len()) as u64, links);
}

/// Score shard 0's blocks of `runs` the way `pipeline::score_block` does —
/// hoist, run prefilter, `score_hoisted` on the survivors — and return the
/// counters and the number of links.
fn score_blocks(
    compiled: &CompiledComparator<'_>,
    runs: &CandidateRuns,
    external: &RecordStore,
    local: &RecordStore,
) -> (SimScratch, u64) {
    let mut scratch = SimScratch::new();
    let mut hoist = LeftHoist::new();
    let mut survivors = Vec::new();
    let mut links = 0u64;
    for block in 0..runs.blocks(0).len() {
        let (e, run) = runs.run(0, block);
        compiled.hoist_left(external, e, &mut hoist);
        compiled.survivors(&mut hoist, local, run, &mut scratch, &mut survivors);
        for &l in &survivors {
            let (_, decision) =
                compiled.score_hoisted(&hoist, external, local, l as usize, &mut scratch);
            links += u64::from(decision != MatchDecision::NonMatch);
        }
    }
    (scratch, links)
}

mod local_run_decode {
    //! Proptest: whatever mixture of explicit pushes and span blocks a
    //! producer emits, decoding the `LocalRun` blocks reproduces the
    //! explicit pair enumeration exactly — per shard, in order, with
    //! totals intact; and for keyed blocks, the decoded slice equals
    //! the key index's explicit `records_with_key` enumeration.

    use super::*;
    use classilink_linking::record::Record;
    use classilink_rdf::Term;
    use proptest::prelude::*;

    /// One emitted candidate unit: an explicit pair or a span run,
    /// decoded deterministically from one seed (the shimmed proptest
    /// has no `prop_oneof`/`prop_map`).
    #[derive(Debug, Clone)]
    enum Op {
        Push {
            shard: usize,
            e: usize,
            l: usize,
        },
        Span {
            shard: usize,
            e: usize,
            start: usize,
            len: usize,
        },
    }

    fn decode_op(seed: u64, shards: usize) -> Op {
        let shard = (seed % shards as u64) as usize;
        let e = ((seed >> 8) % 24) as usize;
        if seed & 1 == 0 {
            Op::Push {
                shard,
                e,
                l: ((seed >> 16) % 24) as usize,
            }
        } else {
            Op::Span {
                shard,
                e,
                start: ((seed >> 16) % 16) as usize,
                len: ((seed >> 24) % 9) as usize,
            }
        }
    }

    proptest! {
        #[test]
        fn decode_equals_explicit_enumeration(
            shards in 1usize..5,
            seeds in proptest::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            // 24 externals × `shards` shards of 24 records: the bounds
            // `decode_op`'s ids respect.
            let locals: Vec<Record> = (0..24 * shards)
                .map(|i| Record::new(Term::iri(format!("http://e.org/i/{i}"))))
                .collect();
            let mut runs = CandidateRuns::new();
            runs.reset(24, (&ShardedStore::from_records(&locals, shards)).into());
            let mut expected: Vec<Vec<(usize, usize)>> = vec![Vec::new(); shards];
            for &seed in &seeds {
                match decode_op(seed, shards) {
                    Op::Push { shard, e, l } => {
                        runs.push(shard, e, l);
                        expected[shard].push((e, l));
                    }
                    Op::Span { shard, e, start, len } => {
                        runs.push_span(shard, e, start, len);
                        expected[shard].extend((start..start + len).map(|l| (e, l)));
                    }
                }
            }
            let expected_total: usize = expected.iter().map(Vec::len).sum();
            prop_assert_eq!(runs.total() as usize, expected_total);
            for (shard, shard_expected) in expected.iter().enumerate() {
                // Decoded pairs equal the explicit enumeration, in
                // emission order.
                let decoded: Vec<(usize, usize)> = runs.pairs(shard).collect();
                prop_assert_eq!(&decoded, shard_expected, "shard {}", shard);
                prop_assert_eq!(runs.shard_total(shard) as usize, shard_expected.len());
                // Block-by-block: the iterator == slice of the explicit
                // enumeration.
                let mut cursor = 0usize;
                for index in 0..runs.blocks(shard).len() {
                    let (external, run) = runs.run(shard, index);
                    for l in run.iter() {
                        prop_assert_eq!(shard_expected[cursor], (external, l));
                        cursor += 1;
                    }
                }
                prop_assert_eq!(cursor, shard_expected.len());
            }
        }

        #[test]
        fn keyed_decode_equals_records_with_key(
            values in proptest::collection::vec("[a-c]{0,3}", 1..20),
            probes in proptest::collection::vec("[a-c]{0,3}", 1..8),
        ) {
            let records: Vec<Record> = values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let mut r = Record::new(Term::iri(format!("http://e.org/i/{i}")));
                    r.add(vocab::LOCAL_PART_NUMBER, v.as_str());
                    r
                })
                .collect();
            let store = RecordStore::from_records(&records);
            let side = key(0).local_side(&store);
            let index = store.key_index(&side);
            let mut runs = CandidateRuns::new();
            runs.reset(probes.len(), (&store).into());
            runs.set_key_table(0, index.clone());
            let mut expected: Vec<(usize, usize)> = Vec::new();
            for (e, probe) in probes.iter().enumerate() {
                let range = index.key_range(probe);
                runs.push_keyed(0, e, range.start, range.len());
                expected.extend(
                    index
                        .records_with_key(probe)
                        .iter()
                        .map(|&l| (e, l as usize)),
                );
            }
            let decoded: Vec<(usize, usize)> = runs.pairs(0).collect();
            prop_assert_eq!(decoded, expected);
        }
    }
}

#[test]
fn rule_based_streaming_matches_reference() {
    let scenario = generate(&ScenarioConfig::tiny());
    let classifier = classifier(&scenario);
    for fallback in [false, true] {
        let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology)
            .with_fallback(fallback);
        // One shard's local ids are the single store's: the candidate set
        // is the sequence reference's pairs, order forgotten.
        let reference: BTreeSet<(usize, usize)> = reference_rule_sequences(
            &scenario,
            &classifier,
            fallback,
            &scenario.external_store(),
            &ShardedStore::from_graph_with_schema(
                scenario.dataset.local(),
                1,
                SchemaInterner::new(),
            ),
        )
        .swap_remove(0)
        .0
        .into_iter()
        .collect();
        assert_streaming_matches_reference(&scenario, &blocker, &reference);
    }
}

#[test]
fn rule_based_emission_sequence_matches_the_obvious_reference() {
    let scenario = generate(&ScenarioConfig::tiny());
    let learnt = classifier(&scenario);
    let overlapping = overlapping_classifier(&scenario);
    for shard_count in SHARD_COUNTS {
        let (external, local) = scenario.sharded_stores(shard_count);
        for fallback in [false, true] {
            let plain =
                assert_rule_sequences_match(&scenario, &learnt, fallback, &external, &local, 0);
            assert!(plain > 0, "no candidates — the guard would be vacuous");
            // A class and its superclass predicted together: the twin
            // rules only ever add the superclass's other members.
            let overlapped = assert_rule_sequences_match(
                &scenario,
                &overlapping,
                fallback,
                &external,
                &local,
                0,
            );
            assert!(overlapped > plain, "the superclass twins predicted nothing");
            // Under a delta restriction the active shards' sequences are
            // exactly the unrestricted run's.
            for first_active in [1, shard_count - 1, shard_count] {
                assert_rule_sequences_match(
                    &scenario,
                    &overlapping,
                    fallback,
                    &external,
                    &local,
                    first_active,
                );
            }
        }
    }
}

/// Paper scale (`linkbench`'s `batch_standard` link: 5.03 M standard-block
/// candidates, 4 shards) under `jw95`, where the non-match filter rejects
/// 94 % of the pairs on the bound, and under the string + set comparator:
/// links, scores and counts are those of the exact scorer. Run in release
/// by CI (`-- --ignored`).
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn filtered_scoring_matches_the_exact_scorer_at_paper_scale() {
    let scenario = generate(&ScenarioConfig::paper());
    let (external, local) = (scenario.external_store(), scenario.local_store());
    let blocker = StandardBlocker::new(key(4));
    let reference = reference_standard(&key(4), &external, &local);
    assert!(
        reference.len() > 1_000_000,
        "{} candidates",
        reference.len()
    );
    let (sharded_external, sharded_local) = scenario.sharded_stores(4);
    for (label, cmp) in [("jw95", jw95()), ("jw+jaccard", jw_jaccard())] {
        let expected = reference_result(&cmp, &external, &local, &reference);
        assert!(
            expected.matches.len() > 500 && expected.possible.len() > 5_000,
            "{label}: {} matches, {} possible",
            expected.matches.len(),
            expected.possible.len()
        );
        for threads in THREAD_COUNTS {
            let result = LinkagePipeline::new(&blocker, &cmp)
                .with_threads(threads)
                .run_sharded(&sharded_external, &sharded_local);
            assert_eq!(expected, result, "{label}: {threads} threads");
        }
    }
}

/// The comparison funnel of `linkbench`'s `batch_standard` link (seed
/// 20120326, `jw95`), pinned: of 5 034 378 candidate pairs the run
/// prefilter settles 4 574 727 on two signatures, the exact count the
/// rest of the 4 748 134 bound exits, and 286 244 kernels run for
/// 6 784 + 58 063 links. The kernel calls and bound exits are those of the
/// pair-by-pair path before there was a prefilter — a signature can only
/// reject what the exact count rejects — so a change to a bound that moves
/// either has changed what is skipped, not only how fast. Run this after
/// touching a bound (`--release -- --ignored`).
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn comparison_funnel_at_paper_scale() {
    let scenario = generate(&ScenarioConfig::paper());
    let (external, local) = (scenario.external_store(), scenario.local_store());
    let blocker = StandardBlocker::new(key(4));
    let cmp = jw95();
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, (&local).into(), &mut runs);
    assert_eq!(runs.total(), 5_034_378);
    let compiled = cmp.compile(&external, &local);
    let (funnel, links) = score_blocks(&compiled, &runs, &external, &local);
    assert_eq!(
        (funnel.kernel_calls, funnel.bound_exits, links),
        (286_244, 4_748_134, 6_784 + 58_063)
    );
    // Of the bound exits, those the signatures settle: pinned too, so that a
    // tier gone one notch looser shows here and not only on a stopwatch.
    assert_eq!(funnel.signature_exits, 4_574_727);
    let result = LinkagePipeline::new(&blocker, &cmp).run_sharded(&external, &local);
    assert_eq!(result.comparisons, 5_034_378);
    assert_eq!(
        (result.matches.len(), result.possible.len()),
        (6_784, 58_063)
    );
}

/// Paper scale (30 000 locals, 10 265 externals, the rules of confidence
/// ≥ 0.9 `linkbench`'s `rule_link` blocks with, 4 shards): tiny scenarios
/// cannot see a ~2 000-item extent shared by hundreds of externals. Run in
/// release by CI (`-- --ignored`); the obvious reference clones every
/// extent per (external, prediction).
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn rule_based_emission_sequence_matches_at_paper_scale() {
    let scenario = generate(&ScenarioConfig::paper());
    let classifier = learn_classifier(&scenario, LearnerConfig::paper().support_threshold, 0.9);
    let (external, local) = scenario.sharded_stores(4);
    let total = assert_rule_sequences_match(&scenario, &classifier, false, &external, &local, 0);
    assert!(
        total > external.len() as u64 * 100,
        "only {total} candidates — not the paper-scale extent sharing this test is for"
    );
    // `linkbench`'s `rule_link` comparison count (seed 20120326).
    assert_eq!(total, 6_844_945);
    // Each distinct prediction's extent is written into the arena once and
    // every external predicted into it is one block over that slice: the
    // queue is a sliver of the flat pair encoding, not the 33.8 MB of one
    // arena id per candidate against 109.5 MB.
    let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology);
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, (&local).into(), &mut runs);
    assert!(
        runs.queue_bytes() * 100 <= runs.pair_bytes(),
        "{} queue bytes for {} pair bytes: the blocker is copying extents per external",
        runs.queue_bytes(),
        runs.pair_bytes()
    );
}

/// Paper scale (`linkbench`'s `batch_bigram` link: seed 20120326, 30 000
/// locals, threshold 0.7) as one store and as 4 shards: rows of 118 and
/// 469 words, hundreds of dense grams, size runs across many words. The
/// bit-sliced counter's per-shard candidate sets are those of the obvious
/// count-all probe — one `u8` per local, one increment per posting of a
/// string-keyed inverted index. Run in release by CI (`-- --ignored`).
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn bigram_counter_matches_count_all_reference_at_paper_scale() {
    const THRESHOLD: f64 = 0.7;
    let scenario = generate(&ScenarioConfig::paper());
    let blocker = BigramBlocker::new(key(0), THRESHOLD);
    let segmenter = CharNGramSegmenter::padded_bigrams();
    for shard_count in [1, 4] {
        let (external, local) = scenario.sharded_stores(shard_count);
        let external_side = key(0).external_side(&external);
        let external_grams: Vec<Vec<String>> = (0..external.len())
            .map(|e| segmenter.split_distinct(&external_side.key(&external, e)))
            .collect();
        let mut runs = CandidateRuns::new();
        blocker.stream_candidates(&external, (&local).into(), &mut runs);
        assert_eq!(runs.total(), 84_255, "{shard_count} shards");
        for s in 0..shard_count {
            let shard = local.shard(s);
            let local_side = key(0).local_side(shard);
            let mut postings: HashMap<String, Vec<usize>> = HashMap::new();
            let mut sizes = Vec::with_capacity(shard.len());
            for l in 0..shard.len() {
                let grams = segmenter.split_distinct(&local_side.key(shard, l));
                sizes.push(grams.len());
                for gram in grams {
                    postings.entry(gram).or_default().push(l);
                }
            }
            let mut expected = Vec::new();
            let mut counts = vec![0u8; shard.len()];
            for (e, grams) in external_grams.iter().enumerate() {
                counts.fill(0);
                for gram in grams {
                    for &l in postings.get(gram).map(Vec::as_slice).unwrap_or(&[]) {
                        counts[l] += 1;
                    }
                }
                for (l, &shared) in counts.iter().enumerate() {
                    let smaller = grams.len().min(sizes[l]);
                    let required = ((THRESHOLD * smaller as f64).ceil() as usize).max(1);
                    if shared as usize >= required {
                        expected.push((e, l));
                    }
                }
            }
            let mut streamed: Vec<(usize, usize)> = runs.pairs(s).collect();
            streamed.sort_unstable();
            assert_eq!(streamed, expected, "shard {s}/{shard_count}");
        }
    }
}

/// Paper scale (`linkbench`'s feed link: the 30 000-record catalog as 4
/// shards, window 10) plus every hundredth catalog record appended again as
/// a fifth shard — equal sort values in different shards, and a delta whose
/// windows reach across the whole catalog. The full stream and the
/// delta-restricted one each equal the string-sorted per-external
/// reference, as multisets; both counts are pinned. Run in release by CI
/// (`-- --ignored`).
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn sorted_neighbourhood_matches_the_reference_at_paper_scale() {
    const WINDOW: usize = 10;
    let scenario = generate(&ScenarioConfig::paper());
    let (external, base) = scenario.sharded_stores(4);
    let catalog = scenario.local_store();
    let mut delta = base.delta_builder();
    for l in (0..catalog.len()).step_by(100) {
        delta.push(&catalog.record(l));
    }
    let local = base.append_shards(delta);
    assert_eq!(local.shard_count(), 5);
    let first_new = local.offset(4);

    // The reference over the appended catalog as one store: global ids.
    let mut records = catalog.to_records();
    records.extend((0..catalog.len()).step_by(100).map(|l| catalog.record(l)));
    let reference: Vec<(usize, usize)> = reference_sorted_neighborhood(
        &key(0),
        WINDOW,
        &external,
        &RecordStore::from_records(&records),
    )
    .into_iter()
    .collect();
    let streamed = |runs: &CandidateRuns| {
        let mut pairs: Vec<(usize, usize)> = (0..runs.shard_count())
            .flat_map(|s| {
                let base = local.offset(s);
                runs.pairs(s).map(move |(e, l)| (e, base + l))
            })
            .collect();
        pairs.sort_unstable();
        pairs
    };
    let blocker = SortedNeighborhoodBlocker::new(key(0), WINDOW);
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, (&local).into(), &mut runs);
    assert_eq!(streamed(&runs), reference);
    let mut delta_runs = CandidateRuns::new();
    delta_runs.restrict_to_shards_from(4);
    blocker.stream_candidates(&external, (&local).into(), &mut delta_runs);
    let delta_reference: Vec<(usize, usize)> = (reference.iter())
        .filter(|&&(_, l)| l >= first_new)
        .copied()
        .collect();
    assert_eq!(streamed(&delta_runs), delta_reference);
    assert_eq!((runs.total(), delta_runs.total()), (184_615, 1_692));
}
