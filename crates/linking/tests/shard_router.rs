//! The shard-router contract: a sharded, work-stealing pipeline run is
//! **byte-identical** to the single-store serial run, for every blocker,
//! for any shard layout — even shard sizes, uneven sizes, more shards
//! than records (so trailing shards are empty), and a shared schema.
//!
//! The property test sweeps record counts, shard counts and thread
//! counts; the per-blocker tests pin the five concrete strategies on a
//! dataset big enough to exercise the work-stealing path.

use classilink_linking::blocking::{
    BigramBlocker, Blocker, BlockingKey, CartesianBlocker, RuleBasedBlocker,
    SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::{
    LinkagePipeline, Record, RecordComparator, RecordStore, SchemaInterner, ShardedStore,
    SimilarityMeasure,
};
use classilink_rdf::Term;
use proptest::prelude::*;

mod common;
use common::rule_setup;

const EXT_PN: &str = "http://provider.e.org/v#ref";
const LOC_PN: &str = "http://local.e.org/v#partNumber";

fn ext_records(n: usize) -> Vec<Record> {
    let families = ["CR", "T8", "LM", "GR"];
    (0..n)
        .map(|i| {
            let mut r = Record::new(Term::iri(format!("http://provider.e.org/item/{i}")));
            r.add(EXT_PN, format!("{}{:04}", families[i % 2], i / 2));
            r
        })
        .collect()
}

fn loc_records(n: usize) -> Vec<Record> {
    let families = ["CR", "T8", "LM", "GR"];
    (0..n)
        .map(|i| {
            let mut r = Record::new(Term::iri(format!("http://local.e.org/prod/{i}")));
            r.add(LOC_PN, format!("{}{:04}", families[i % 2], i / 2));
            r
        })
        .collect()
}

fn comparator() -> RecordComparator {
    RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Levenshtein)
        .with_thresholds(0.95, 0.4)
}

/// The contract under test: serial single-store run vs sharded runs at
/// several shard layouts and thread counts.
fn assert_sharded_byte_identical(
    blocker: &dyn Blocker,
    external_records: &[Record],
    local_records: &[Record],
    shard_counts: &[usize],
) {
    let cmp = comparator();
    let external = RecordStore::from_records(external_records);
    let local = RecordStore::from_records(local_records);
    let serial = LinkagePipeline::new(blocker, &cmp).run_sharded(&external, &local);
    for &shard_count in shard_counts {
        let sharded = ShardedStore::from_records(local_records, shard_count);
        for threads in [1, 4] {
            let result = LinkagePipeline::new(blocker, &cmp)
                .with_threads(threads)
                .run_sharded(&external, &sharded);
            assert_eq!(
                serial,
                result,
                "{}: {shard_count} shards / {threads} threads diverged from serial single-store",
                blocker.name()
            );
        }
    }
}

/// Shard layouts covering the edge cases: one shard, uneven sizes, and
/// more shards than records (guaranteed empty shards).
fn layouts(records: usize) -> Vec<usize> {
    vec![1, 3, 7, records + 2]
}

#[test]
fn cartesian_sharded_identical() {
    let (external, local) = (ext_records(40), loc_records(40));
    assert_sharded_byte_identical(&CartesianBlocker, &external, &local, &layouts(40));
}

#[test]
fn standard_blocking_sharded_identical() {
    let (external, local) = (ext_records(64), loc_records(64));
    let blocker = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 2));
    assert_sharded_byte_identical(&blocker, &external, &local, &layouts(64));
}

#[test]
fn sorted_neighborhood_sharded_identical() {
    let (external, local) = (ext_records(64), loc_records(64));
    // A window large enough that it always straddles shard boundaries.
    let blocker = SortedNeighborhoodBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 60);
    assert_sharded_byte_identical(&blocker, &external, &local, &layouts(64));
}

#[test]
fn bigram_sharded_identical() {
    let (external, local) = (ext_records(64), loc_records(64));
    let blocker = BigramBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 0.2);
    assert_sharded_byte_identical(&blocker, &external, &local, &layouts(64));
}

#[test]
fn rule_based_sharded_identical() {
    let (external, local) = (ext_records(64), loc_records(64));
    let (onto, instances, classifier) = rule_setup(64);
    let blocker = RuleBasedBlocker::new(&classifier, &instances, &onto).with_fallback(true);
    assert_sharded_byte_identical(&blocker, &external, &local, &layouts(64));
}

#[test]
fn sharded_run_against_empty_catalog() {
    let external = ext_records(8);
    assert_sharded_byte_identical(&CartesianBlocker, &external, &[], &[1, 4]);
}

/// `index_of` is sharding-invariant even for an id pushed more than once:
/// every sharding answers with the single store's record (the last one).
#[test]
fn index_of_matches_the_single_store_at_any_sharding() {
    let mut records = loc_records(24);
    // Ids repeated inside one shard and across shards, at any layout.
    for (from, to) in [(0, 5), (0, 23), (7, 8), (12, 20)] {
        records[to].id = records[from].id.clone();
    }
    let single = RecordStore::from_records(&records);
    let absent = Term::iri("http://local.e.org/prod/absent");
    for shard_count in [1, 3, 8] {
        let sharded = ShardedStore::from_records(&records, shard_count);
        for record in &records {
            assert_eq!(
                sharded.index_of(&record.id),
                single.index_of(&record.id),
                "{} at {shard_count} shards",
                record.id
            );
        }
        assert_eq!(sharded.index_of(&absent), None);
    }
    assert_eq!(single.index_of(&records[0].id), Some(23));
}

/// One compiled comparator (against the shared schema) must serve every
/// shard — the "compile once, reuse across all store pairs" guarantee.
#[test]
fn compiled_comparator_is_reusable_across_shards() {
    let schema = SchemaInterner::new();
    let mut external_builder = RecordStore::builder_with_schema(schema.clone());
    for r in ext_records(10) {
        external_builder.push(&r);
    }
    let external = external_builder.build();
    let local_records = loc_records(10);
    let sharded = ShardedStore::from_records_with_schema(&local_records, 3, schema);
    let cmp = comparator();
    let shared = cmp.compile_schemas(external.interner(), sharded.schema());
    for (s, shard) in sharded.shards().iter().enumerate() {
        // Per-shard compilation must agree with the shared compilation
        // for every pair — same ids, same schema.
        let per_shard = cmp.compile(&external, shard);
        for e in 0..external.len() {
            for l in 0..shard.len() {
                assert_eq!(
                    shared.compare(&external, e, shard, l),
                    per_shard.compare(&external, e, shard, l),
                    "shard {s}, pair ({e}, {l})"
                );
            }
        }
    }
}

/// The kernel-swap guard: on a *generated* scenario (realistic part
/// numbers, perturbations, multi-attribute records) and a multi-measure
/// comparator covering the string kernels (Levenshtein, Jaro-Winkler)
/// and the token-index kernels (Dice bigrams, Jaccard tokens,
/// Monge-Elkan), the pipeline's results — **scores included, not just
/// decisions** — are
///
/// 1. identical between the single store and the sharded catalog at
///    several shard and thread counts, and
/// 2. bit-identical to a reference scorer built from the naive
///    (pre-kernel-swap) measure implementations in `similarity::naive`.
#[test]
fn generated_scenario_scores_survive_the_kernel_swap() {
    use classilink_datagen::scenario::{generate, ScenarioConfig};
    use classilink_datagen::vocab;
    use classilink_linking::similarity::naive;
    use classilink_linking::MatchDecision;

    let scenario = generate(&ScenarioConfig::tiny());
    let external = scenario.external_store();
    let local = scenario.local_store();
    let rule = |left: &str, right: &str, measure: SimilarityMeasure, weight: f64| {
        classilink_linking::AttributeRule {
            left_property: left.to_string(),
            right_property: right.to_string(),
            measure,
            weight,
        }
    };
    let cmp = RecordComparator::new(vec![
        rule(
            vocab::PROVIDER_PART_NUMBER,
            vocab::LOCAL_PART_NUMBER,
            SimilarityMeasure::JaroWinkler,
            3.0,
        ),
        rule(
            vocab::PROVIDER_PART_NUMBER,
            vocab::LOCAL_PART_NUMBER,
            SimilarityMeasure::Levenshtein,
            2.0,
        ),
        rule(
            vocab::PROVIDER_PART_NUMBER,
            vocab::LOCAL_PART_NUMBER,
            SimilarityMeasure::DiceBigrams,
            1.0,
        ),
        rule(
            vocab::PROVIDER_MANUFACTURER,
            vocab::LOCAL_MANUFACTURER,
            SimilarityMeasure::JaccardTokens,
            1.0,
        ),
        rule(
            vocab::PROVIDER_MANUFACTURER,
            vocab::LOCAL_LABEL,
            SimilarityMeasure::MongeElkan,
            0.5,
        ),
    ])
    .with_thresholds(0.92, 0.6);

    let blocker = StandardBlocker::new(BlockingKey::per_side(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        2,
    ));
    let serial = LinkagePipeline::new(&blocker, &cmp).run_sharded(&external, &local);
    assert!(
        !serial.matches.is_empty(),
        "guard scenario produced no links — the assertions below would be vacuous"
    );

    // (1) Sharded / threaded runs reproduce the serial scores byte for byte.
    for shard_count in [1, 3, 8] {
        for threads in [1, 4] {
            let (sharded_external, sharded_local) = scenario.sharded_stores(shard_count);
            let sharded = LinkagePipeline::new(&blocker, &cmp)
                .with_threads(threads)
                .run_sharded(&sharded_external, &sharded_local);
            assert_eq!(
                serial, sharded,
                "{shard_count} shards / {threads} threads diverged (scores included)"
            );
        }
    }

    // (2) Every emitted link's score matches a from-scratch naive
    // reference evaluation of the same comparator configuration.
    let naive_score = |e: usize, l: usize| -> (f64, MatchDecision) {
        let mut weighted_sum = 0.0;
        let mut weight_total = 0.0;
        for r in &cmp.rules {
            let (Some(lp), Some(rp)) = (
                external.property(&r.left_property),
                local.property(&r.right_property),
            ) else {
                continue;
            };
            let left_values: Vec<&str> = external.values(e, lp).collect();
            let right_values: Vec<&str> = local.values(l, rp).collect();
            if left_values.is_empty() || right_values.is_empty() {
                continue;
            }
            let mut best = 0.0f64;
            for lv in &left_values {
                for rv in &right_values {
                    best = best.max(naive::compare(r.measure, lv, rv));
                }
            }
            weighted_sum += best * r.weight;
            weight_total += r.weight;
        }
        let score = if weight_total > 0.0 {
            weighted_sum / weight_total
        } else if let Some(fallback) = cmp.fallback {
            naive::compare(fallback, external.full_text(e), local.full_text(l))
        } else {
            0.0
        };
        let decision = if score >= cmp.match_threshold {
            MatchDecision::Match
        } else if score < cmp.non_match_threshold {
            MatchDecision::NonMatch
        } else {
            MatchDecision::Possible
        };
        (score, decision)
    };
    let compiled = cmp.compile(&external, &local);
    for (link, expected_decision) in serial
        .matches
        .iter()
        .map(|l| (l, MatchDecision::Match))
        .chain(serial.possible.iter().map(|l| (l, MatchDecision::Possible)))
    {
        let e = external.index_of(&link.external).expect("known external");
        let l = local.index_of(&link.local).expect("known local");
        let (score, decision) = naive_score(e, l);
        assert_eq!(
            score.to_bits(),
            link.score.to_bits(),
            "naive reference diverged for pair ({e}, {l})"
        );
        assert_eq!(decision, expected_decision);
        // And the detail-carrying compare agrees with both.
        let full = compiled.compare(&external, e, &local, l);
        assert_eq!(full.score.to_bits(), link.score.to_bits());
    }
}

proptest! {
    /// Random record counts, shard counts and thread counts: the sharded
    /// work-stealing pipeline always reproduces the serial single-store
    /// result byte for byte, for a per-record blocker and for the
    /// window-based sorted-neighbourhood blocker.
    #[test]
    fn prop_sharded_pipeline_byte_identical(
        external_count in 0usize..24,
        local_count in 0usize..24,
        shard_count in 1usize..9,
        window in 2usize..12,
        threads in 1usize..5,
    ) {
        let external_records = ext_records(external_count);
        let local_records = loc_records(local_count);
        let cmp = comparator();
        let external = RecordStore::from_records(&external_records);
        let local = RecordStore::from_records(&local_records);
        let sharded = ShardedStore::from_records(&local_records, shard_count);

        let standard = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 2));
        let sorted = SortedNeighborhoodBlocker::new(
            BlockingKey::per_side(EXT_PN, LOC_PN, 0),
            window,
        );
        let blockers: [&dyn Blocker; 3] = [&CartesianBlocker, &standard, &sorted];
        for blocker in blockers {
            let serial = LinkagePipeline::new(blocker, &cmp).run_sharded(&external, &local);
            let result = LinkagePipeline::new(blocker, &cmp)
                .with_threads(threads)
                .run_sharded(&external, &sharded);
            prop_assert_eq!(&serial, &result, "{} diverged", blocker.name());
        }
    }
}
