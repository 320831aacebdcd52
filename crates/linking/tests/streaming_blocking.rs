//! The streaming-blocking suite, beside the identity matrix
//! (`identity_matrix.rs`): what the matrix does not check —
//! the non-match filter's `≥` boundary and its exit counts, the run-block
//! decode, overlapping rule predictions — and the paper-scale identities
//! (`#[ignore]`d, run in release), all against the shared naive oracle
//! (`common::oracle`).

use classilink_core::{ClassificationRule, LearnerConfig, RuleClassifier};
use classilink_datagen::scenario::{generate, GeneratedScenario, ScenarioConfig};
use classilink_datagen::vocab;
use classilink_linking::blocking::{
    BigramBlocker, Blocker, RuleBasedBlocker, SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::{
    CandidateRuns, CompiledComparator, LeftHoist, LinkagePipeline, MatchDecision, RecordComparator,
    RecordStore, ShardedStore, SimScratch,
};

mod common;
use classilink_linking::pipeline::Link;
use common::matrix::{assert_rule_sequences_match, assert_same_result};
use common::oracle::{self, Rules};
use common::{classifier, jw95, jw_jaccard, key, learn_classifier, tiny};

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

/// The `≥` boundary of the non-match filter: with `non_match_threshold`
/// set **exactly** to a score some candidate achieves, that candidate is a
/// link (its score is not *below* the threshold) and the hoisted path must
/// neither skip it on its bound nor perturb its score — and the pairs a
/// hair below stay out.
#[test]
fn non_match_threshold_on_an_achieved_score_keeps_the_pair() {
    let scenario = tiny();
    let (external, local) = (scenario.external_store(), scenario.local_store());
    let blocker = StandardBlocker::new(key(4));
    let reference = oracle::standard(&key(4), &external, &local);
    let naive_pairs = (external.len() * local.len()) as u64;
    for (label, base) in [("jw95", jw95()), ("jw+jaccard", jw_jaccard())] {
        // Every rule's naive similarity per candidate, once: the
        // thresholds below rescore from it.
        let similarities: Vec<Vec<Option<f64>>> = (reference.iter())
            .map(|&(e, l)| {
                (base.rules.iter())
                    .map(|rule| oracle::rule_similarity(rule, &external, e, &local, l))
                    .collect()
            })
            .collect();
        let score = |cmp: &RecordComparator, i: usize| {
            let (e, l) = reference[i];
            let mut rules = similarities[i].iter();
            oracle::score_pair_with(cmp, &external, e, &local, l, |_| *rules.next().unwrap())
        };
        // Every distinct score the candidates achieve, ascending.
        let mut achieved: Vec<f64> = (0..reference.len())
            .map(|i| score(&base, i).0)
            .filter(|&score| score > 0.0 && score < 1.0)
            .collect();
        achieved.sort_by(f64::total_cmp);
        achieved.dedup();
        assert!(achieved.len() > 20, "{label}: {achieved:?}");
        // Thresholds across the whole achieved range, dense near the top
        // (where the bound and the kernel are closest).
        let picks = (0..8)
            .map(|i| achieved[achieved.len() * i / 8])
            .chain(achieved.iter().rev().take(8).copied());
        for threshold in picks {
            let cmp = base.clone().with_thresholds(1.0, threshold);
            assert_eq!(cmp.non_match_threshold.to_bits(), threshold.to_bits());
            let expected = oracle::result(
                &external,
                &local,
                reference.iter().copied(),
                naive_pairs,
                |e, l| score(&cmp, reference.binary_search(&(e, l)).unwrap()),
            );
            let on = |link: &Link| link.score.to_bits() == threshold.to_bits();
            let sits = expected.possible.iter().any(on);
            assert!(sits, "{label}: no link sits exactly on {threshold}");
            for (shards, threads) in [(1, 1), (1, 4), (3, 1), (3, 4)] {
                let (external, local) = scenario.sharded_stores(shards);
                let pipeline = LinkagePipeline::new(&blocker, &cmp).with_threads(threads);
                let result = pipeline.run_sharded(&external, &local);
                let context =
                    format!("{label} at {threshold}: {shards} shards / {threads} threads");
                assert_same_result(&result, &expected, &context);
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
    let scenario = tiny();
    let (external, catalog) = scenario.sharded_stores(1);
    let local = catalog.shard(0);
    let blocker = StandardBlocker::new(key(4));
    let cmp = jw95();
    let compiled = cmp.compile(&external, local);
    let left = external.property(vocab::PROVIDER_PART_NUMBER).unwrap();
    let right = local.property(vocab::LOCAL_PART_NUMBER).unwrap();
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, &catalog, &mut runs);
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
                compiled.score_hoisted(&hoist, &external, local, l, &mut scratch);
            let (exact_score, exact_decision) = compiled.score(&external, e, local, l, &mut exact);
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
    let (kernels, bounds) = (scratch.kernel_calls, scratch.bound_exits);
    assert!(
        bounds > kernels,
        "{bounds} bound exits against {kernels} kernel calls"
    );
    assert!(scratch.kernel_calls >= links, "every link ran its kernel");
    assert_eq!(scratch.signature_exits, 0, "no prefilter ran");
    // `score`, the oracle, never counts: it never skips.
    assert_eq!((exact.kernel_calls, exact.bound_exits), (0, 0));

    // The block path: the same account, most of it settled on signatures.
    let (blocked, block_links) = score_blocks(&compiled, &runs, &external, local);
    assert_eq!(
        (blocked.kernel_calls, blocked.bound_exits, block_links),
        (scratch.kernel_calls, scratch.bound_exits, links)
    );
    let signatures = blocked.signature_exits;
    assert!(
        signatures <= bounds && signatures > kernels,
        "{signatures} signature exits"
    );
    let result = LinkagePipeline::new(&blocker, &cmp).run_sharded(&external, &catalog);
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
    //! totals intact; and for keyed blocks, the decoded slice equals the
    //! key index's `records_with_key` enumeration, in order.

    use super::*;
    use classilink_linking::record::Record;
    use classilink_rdf::Term;
    use proptest::prelude::*;

    /// One emitted candidate unit, decoded deterministically from one
    /// seed (the shimmed proptest has no `prop_oneof`/`prop_map`): a
    /// `(shard, external, start, len)` span, or for even seeds the
    /// explicit pair `(external, start)` pushed as a run of one.
    fn decode_op(seed: u64, shards: usize) -> (usize, usize, usize, Option<usize>) {
        let bits = |shift: u32, below: u64| ((seed >> shift) % below) as usize;
        match seed & 1 {
            0 => (bits(0, shards as u64), bits(8, 24), bits(16, 24), None),
            _ => (
                bits(0, shards as u64),
                bits(8, 24),
                bits(16, 16),
                Some(bits(24, 9)),
            ),
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
            runs.reset(24, &ShardedStore::from_records(&locals, shards));
            let mut expected: Vec<Vec<(usize, usize)>> = vec![Vec::new(); shards];
            for &seed in &seeds {
                let (shard, e, start, span) = decode_op(seed, shards);
                match span {
                    None => runs.push(shard, e, start),
                    Some(len) => runs.push_span(shard, e, start, len),
                }
                let len = span.unwrap_or(1);
                expected[shard].extend((start..start + len).map(|l| (e, l)));
            }
            let expected_total: usize = expected.iter().map(Vec::len).sum();
            prop_assert_eq!(runs.total() as usize, expected_total);
            for (shard, shard_expected) in expected.iter().enumerate() {
                // Decoded pairs, and block by block, equal the explicit
                // enumeration in emission order.
                let decoded: Vec<(usize, usize)> = runs.pairs(shard).collect();
                prop_assert_eq!(&decoded, shard_expected, "shard {}", shard);
                let blocks: Vec<(usize, usize)> = (0..runs.blocks(shard).len())
                    .flat_map(|i| {
                        let (e, run) = runs.run(shard, i);
                        run.iter().map(move |l| (e, l))
                    })
                    .collect();
                prop_assert_eq!(&blocks, shard_expected, "shard {} blocks", shard);
                prop_assert_eq!(runs.shard_total(shard) as usize, shard_expected.len());
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
            let catalog = ShardedStore::from_records(&records, 1);
            let side = key(0).local_side(catalog.shard(0));
            let index = catalog.shard(0).key_index(&side);
            let mut runs = CandidateRuns::new();
            runs.reset(probes.len(), &catalog);
            runs.set_key_table(0, index.clone());
            let mut expected: Vec<(usize, usize)> = Vec::new();
            for (e, probe) in probes.iter().enumerate() {
                let range = index.key_range(probe);
                runs.push_keyed(0, e, range.start, range.len());
                let with_key = index.records_with_key(probe);
                expected.extend(with_key.iter().map(|&l| (e, l as usize)));
            }
            let decoded: Vec<(usize, usize)> = runs.pairs(0).collect();
            prop_assert_eq!(decoded, expected);
        }
    }
}

/// A class and its superclass predicted together (the twin rules of
/// [`overlapping_classifier`] only ever add the superclass's other
/// members): the per-shard emission sequences stay the oracle's, whole
/// and delta-restricted, at every sharding. The matrix covers the learnt
/// classifier alone.
#[test]
fn overlapping_predictions_keep_the_emission_sequence() {
    let scenario = tiny();
    let (learnt, overlapping) = (classifier(scenario), overlapping_classifier(scenario));
    let (plain, twins) = (
        Rules::of(scenario, &learnt),
        Rules::of(scenario, &overlapping),
    );
    for shards in [1, 3, 8] {
        let (external, local) = scenario.sharded_stores(shards);
        for fallback in [false, true] {
            let plain = assert_rule_sequences_match(plain, fallback, &external, &local, &[0]);
            let first_actives = [0, 1, shards - 1, shards];
            let overlapped =
                assert_rule_sequences_match(twins, fallback, &external, &local, &first_actives);
            assert!(overlapped > plain, "the superclass twins predicted nothing");
        }
    }
}

/// Paper scale (`linkbench`'s `batch_standard` link: 5.03 M standard-block
/// candidates, 4 shards) under `jw95`, where the non-match filter rejects
/// 94 % of the pairs on the bound, and under the string + set comparator:
/// links, scores and counts are the naive oracle's. CI runs it in
/// release.
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn filtered_scoring_matches_the_oracle_at_paper_scale() {
    let scenario = generate(&ScenarioConfig::paper());
    let (external, local) = (scenario.external_store(), scenario.local_store());
    let blocker = StandardBlocker::new(key(4));
    let reference = oracle::standard(&key(4), &external, &local);
    assert!(reference.len() > 1_000_000);
    let naive_pairs = (external.len() * local.len()) as u64;
    let (sharded_external, sharded_local) = scenario.sharded_stores(4);
    for (label, cmp) in [("jw95", jw95()), ("jw+jaccard", jw_jaccard())] {
        let candidates = reference.iter().copied();
        let expected = oracle::score(&cmp, &external, &local, candidates, naive_pairs);
        let (matches, possible) = (expected.matches.len(), expected.possible.len());
        assert!(
            matches > 500 && possible > 5_000,
            "{label}: {matches} / {possible}"
        );
        for threads in [1, 4] {
            let pipeline = LinkagePipeline::new(&blocker, &cmp).with_threads(threads);
            let result = pipeline.run_sharded(&sharded_external, &sharded_local);
            assert_same_result(&result, &expected, &format!("{label}: {threads} threads"));
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
    let (external, catalog) = scenario.sharded_stores(1);
    let blocker = StandardBlocker::new(key(4));
    let cmp = jw95();
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, &catalog, &mut runs);
    assert_eq!(runs.total(), 5_034_378);
    let compiled = cmp.compile(&external, catalog.shard(0));
    let (funnel, links) = score_blocks(&compiled, &runs, &external, catalog.shard(0));
    assert_eq!(
        (funnel.kernel_calls, funnel.bound_exits, links),
        (286_244, 4_748_134, 6_784 + 58_063)
    );
    // Of the bound exits, those the signatures settle: pinned too, so that a
    // tier gone one notch looser shows here and not only on a stopwatch.
    assert_eq!(funnel.signature_exits, 4_574_727);
    let result = LinkagePipeline::new(&blocker, &cmp).run_sharded(&external, &catalog);
    assert_eq!(result.comparisons, 5_034_378);
    assert_eq!(
        (result.matches.len(), result.possible.len()),
        (6_784, 58_063)
    );
}

/// Paper scale (30 000 locals, 10 265 externals, the rules of confidence
/// ≥ 0.9 `linkbench`'s `rule_link` blocks with, 4 shards): tiny scenarios
/// cannot see a ~2 000-item extent shared by hundreds of externals. CI runs
/// it in release; the oracle clones every extent per (external, prediction).
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn rule_based_emission_sequence_matches_at_paper_scale() {
    let scenario = generate(&ScenarioConfig::paper());
    let classifier = learn_classifier(&scenario, LearnerConfig::paper().support_threshold, 0.9);
    let (external, local) = scenario.sharded_stores(4);
    let rules = Rules::of(&scenario, &classifier);
    let total = assert_rule_sequences_match(rules, false, &external, &local, &[0]);
    // `linkbench`'s `rule_link` comparison count (seed 20120326): hundreds
    // of candidates an external, the extent sharing this test is for.
    assert_eq!(total, 6_844_945);
    // Each distinct prediction's extent is written into the arena once and
    // every external predicted into it is one block over that slice: the
    // queue is a sliver of the flat pair encoding, not the 33.8 MB of one
    // arena id per candidate against 109.5 MB.
    let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology);
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, &local, &mut runs);
    let (queue, flat) = (runs.queue_bytes(), runs.pair_bytes());
    assert!(
        queue * 100 <= flat,
        "{queue} queue bytes for {flat}: extents copied per external"
    );
}

/// Paper scale (`linkbench`'s `batch_bigram` link: seed 20120326, 30 000
/// locals, threshold 0.7) as one store and as 4 shards: rows of 118 and
/// 469 words, hundreds of dense grams, size runs across many words. The
/// bit-sliced counter's per-shard candidate sets are the oracle's
/// count-all probe — one counter per local, one increment per posting of a
/// string-keyed inverted index. CI runs it in release.
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn bigram_counter_matches_count_all_reference_at_paper_scale() {
    const THRESHOLD: f64 = 0.7;
    let scenario = generate(&ScenarioConfig::paper());
    let blocker = BigramBlocker::new(key(0), THRESHOLD);
    for shard_count in [1, 4] {
        let (external, local) = scenario.sharded_stores(shard_count);
        let mut runs = CandidateRuns::new();
        blocker.stream_candidates(&external, &local, &mut runs);
        assert_eq!(runs.total(), 84_255, "{shard_count} shards");
        for s in 0..shard_count {
            let mut streamed: Vec<(usize, usize)> = runs.pairs(s).collect();
            streamed.sort_unstable();
            let expected =
                oracle::bigram(&key(0), &[THRESHOLD], &external, local.shard(s)).remove(0);
            assert_eq!(streamed, expected, "shard {s}/{shard_count}");
        }
    }
}

/// Paper scale (`linkbench`'s feed link: the 30 000-record catalog as 4
/// shards, window 10) plus every hundredth catalog record appended again as
/// a fifth shard — equal sort values in different shards, and a delta whose
/// windows reach across the whole catalog. The 5-shard catalog is streamed
/// twice: once after its parent was streamed, so that its ladder starts
/// from the parent's, and once as a fresh catalog whose ladder merges all
/// five shards. Each full stream and each delta-restricted one equals the
/// string-sorted per-external reference, as multisets; the counts are
/// pinned. CI runs it in release.
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn sorted_neighbourhood_matches_the_reference_at_paper_scale() {
    const WINDOW: usize = 10;
    let scenario = generate(&ScenarioConfig::paper());
    let (external, base) = scenario.sharded_stores(4);
    let unstreamed = base.clone();
    let catalog = scenario.local_store();
    let mut delta = base.delta_builder();
    for l in (0..catalog.len()).step_by(100) {
        delta.push(&catalog.record(l));
    }
    let blocker = SortedNeighborhoodBlocker::new(key(0), WINDOW);
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(&external, &base, &mut runs);
    let seeded = base.append_shards(delta.clone());
    let fresh = unstreamed.append_shards(delta);
    assert_eq!(seeded.shard_count(), 5);
    let first_new = seeded.offset(4);

    // The reference over the appended catalog as one store: global ids.
    let mut records = catalog.to_records();
    records.extend((0..catalog.len()).step_by(100).map(|l| catalog.record(l)));
    let all = RecordStore::from_records(&records);
    let reference = oracle::sorted_neighborhood(&key(0), WINDOW, &external, &all);
    let delta: Vec<_> = reference.iter().filter(|&&(_, l)| l >= first_new).collect();
    for (name, local) in [("seeded", &seeded), ("fresh", &fresh)] {
        let streamed = |runs: &CandidateRuns| {
            let global = |s| {
                let base = local.offset(s);
                runs.pairs(s).map(move |(e, l)| (e, base + l))
            };
            let mut pairs: Vec<(usize, usize)> = (0..runs.shard_count()).flat_map(global).collect();
            pairs.sort_unstable();
            pairs
        };
        // The delta stream first: on the seeded catalog, it is what
        // merges the new shard into the parent's ladder.
        let mut delta_runs = CandidateRuns::new();
        delta_runs.restrict_to_shards_from(4);
        blocker.stream_candidates(&external, local, &mut delta_runs);
        assert!(
            streamed(&delta_runs).iter().eq(delta.iter().copied()),
            "{name}"
        );
        blocker.stream_candidates(&external, local, &mut runs);
        assert_eq!(streamed(&runs), reference, "{name}");
        assert_eq!(
            (runs.total(), delta_runs.total()),
            (184_615, 1_692),
            "{name}"
        );
    }
}
