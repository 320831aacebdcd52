//! Edge cases the identity matrix (`identity_matrix.rs`) does not reach:
//! empty stores and catalogs, attribute-less records, `index_of` with
//! duplicated ids at any sharding, one compiled comparator serving every
//! shard, probes of an empty catalog or without the blocking key, and
//! probes whose rules cannot fire, scored on full text like the batch
//! run. (Every blocker over empty catalogs and key-less records is a case
//! of the matrix's property test.)

use classilink_datagen::vocab;
use classilink_linking::blocking::{CartesianBlocker, StandardBlocker};
use classilink_linking::{
    LinkagePipeline, Linker, ProbeScratch, Record, RecordComparator, RecordStore, ShardedStore,
    SimilarityMeasure,
};
use classilink_rdf::Term;

mod common;
use common::matrix::{assert_probes_match, assert_same_result};
use common::{comparator, five_rule, key, oracle, tiny};

/// A store whose records exist but carry no attributes at all.
fn attributeless(n: usize) -> RecordStore {
    let records: Vec<Record> = (0..n)
        .map(|i| Record::new(Term::iri(format!("http://bare.e.org/{i}"))))
        .collect();
    RecordStore::from_records(&records)
}

/// `n` catalog records with a part number `PN-000i` and a label.
fn labelled_locals(n: usize) -> Vec<Record> {
    let local = |i| {
        let mut r = Record::new(Term::iri(format!("http://local.example.org/prod/{i}")));
        r.add(vocab::LOCAL_PART_NUMBER, format!("PN-{i:04}"))
            .add(vocab::LOCAL_LABEL, format!("résistance couche {i}"));
        r
    };
    (0..n).map(local).collect()
}

#[test]
fn pipeline_on_empty_stores_is_empty() {
    let (cmp, external) = (comparator(), tiny().external_store());
    let (empty, no_catalog) = (RecordStore::from_records(&[]), ShardedStore::default());
    for threads in [1, 4] {
        let pipeline = LinkagePipeline::new(&CartesianBlocker, &cmp).with_threads(threads);
        let result = pipeline.run_sharded(&empty, &no_catalog);
        assert_eq!((result.comparisons, result.naive_pairs), (0, 0));
        assert_eq!(result.reduction_ratio, 0.0);
        assert!(result.matches.is_empty() && result.possible.is_empty());
        // An empty catalog at any sharding is the default catalog.
        let serial = pipeline.run_sharded(&external, &no_catalog);
        for shards in [1, 4] {
            let catalog = ShardedStore::from_records(&[], shards);
            let sharded = pipeline.run_sharded(&external, &catalog);
            assert_eq!(serial, sharded, "{shards}");
        }
    }
}

#[test]
fn comparator_against_attributeless_side_uses_fallback_or_zero() {
    let external = tiny().external_store();
    let bare = attributeless(1);
    let cmp = comparator();
    // No rule's right property occurs on the bare store: no rule fires,
    // and the Monge-Elkan full-text fallback sees an empty right-hand
    // text.
    let compiled = cmp.compile(&external, &bare);
    let comparison = compiled.compare(&external, 0, &bare, 0);
    assert_eq!(comparison.details, vec![None; cmp.rules.len()]);
    assert!(comparison.score <= 1.0);
    let strict = RecordComparator {
        fallback: None,
        ..comparator()
    };
    let compiled = strict.compile(&external, &bare);
    assert_eq!(compiled.compare(&external, 0, &bare, 0).score, 0.0);
}

#[test]
fn empty_property_lookup_is_none_not_panic() {
    let store = attributeless(2);
    assert_eq!(store.property(vocab::PROVIDER_PART_NUMBER), None);
    assert!(store.interner().is_empty());
    assert_eq!(store.full_text(0), "");
    assert_eq!(store.facts(1).count(), 0);
}

/// `index_of` is sharding-invariant even for an id pushed more than once:
/// every sharding answers with the single store's record (the last one).
#[test]
fn index_of_matches_the_single_store_at_any_sharding() {
    let mut records = tiny().local_store().to_records();
    records.truncate(24);
    // Ids repeated inside one shard and across shards, at any layout.
    for (from, to) in [(0, 5), (0, 23), (7, 8), (12, 20)] {
        records[to].id = records[from].id.clone();
    }
    let single = RecordStore::from_records(&records);
    let absent = Term::iri("http://local.e.org/prod/absent");
    for shard_count in [1, 3, 8] {
        let sharded = ShardedStore::from_records(&records, shard_count);
        for Record { id, .. } in &records {
            let context = format!("{id} at {shard_count} shards");
            assert_eq!(sharded.index_of(id), single.index_of(id), "{context}");
        }
        assert_eq!(sharded.index_of(&absent), None);
    }
    assert_eq!(single.index_of(&records[0].id), Some(23));
}

/// One compiled comparator (against the shared schema) must serve every
/// shard — the "compile once, reuse across all store pairs" guarantee —
/// and its detail-carrying `compare`, which never skips, scores every
/// pair as the naive oracle does.
#[test]
fn compiled_comparator_is_reusable_across_shards() {
    let (external, sharded) = tiny().sharded_stores(3);
    for cmp in [comparator(), five_rule()] {
        let shared = cmp.compile_schemas(external.interner(), sharded.schema());
        for (s, shard) in sharded.shards().iter().enumerate() {
            let per_shard = cmp.compile(&external, shard);
            for (e, l) in (0..10).flat_map(|e| (0..shard.len()).map(move |l| (e, l))) {
                let a = shared.compare(&external, e, shard, l);
                let b = per_shard.compare(&external, e, shard, l);
                assert_eq!(a, b, "{s}: ({e}, {l})");
                let similarity = |rule: &_| oracle::rule_similarity(rule, &external, e, shard, l);
                let (score, decision) =
                    oracle::score_pair_with(&cmp, &external, e, shard, l, similarity);
                assert_eq!((a.score.to_bits(), a.decision), (score.to_bits(), decision));
            }
        }
    }
}

#[test]
fn probing_an_empty_catalog_finds_nothing() {
    let cmp = comparator();
    let blocker = StandardBlocker::new(key(4));
    let linker = Linker::new(&blocker, &cmp, ShardedStore::from_records(&[], 3));
    let mut scratch = ProbeScratch::new();
    let mut record = Record::new(Term::iri("http://probe.example.org/item/0"));
    record.add(vocab::PROVIDER_PART_NUMBER, "CRCW0805-10K");
    let hits = linker.probe_with(&record, &mut scratch);
    assert!(hits.matches.is_empty() && hits.possible.is_empty() && hits.comparisons == 0);
}

#[test]
fn probe_record_without_the_key_property_matches_batch() {
    // A probe record that lacks the blocking key (and every rule's left
    // property): the batch pipeline skips it, so must the probe.
    let cmp = comparator();
    let blocker = StandardBlocker::new(key(4));
    let catalog = ShardedStore::from_records(&labelled_locals(6), 2);
    let linker = Linker::new(&blocker, &cmp, catalog.clone());
    let mut bare = Record::new(Term::iri("http://probe.example.org/item/bare"));
    bare.add("http://probe.example.org/vocab#unrelated", "no key here");
    let mut scratch = ProbeScratch::new();
    let hits = linker.probe_with(&bare, &mut scratch);
    assert!(hits.matches.is_empty());
    assert_eq!(hits.comparisons, 0);
    let batch = LinkagePipeline::new(&blocker, &cmp)
        .run_sharded(&RecordStore::from_records(&[bare]), &catalog);
    assert_eq!(batch.comparisons, 0);
}

#[test]
fn probe_whose_rules_cannot_fire_falls_back_like_batch() {
    // Externals without the compared attribute are scored on full text
    // (derived on first use, on both the one-record probe store and the
    // catalog shards) — for a string-measure and a set-measure fallback.
    let locals = labelled_locals(9);
    let described = |n: usize, text: &str| {
        let mut r = Record::new(Term::iri(format!("http://probe.example.org/item/{n}")));
        r.add("http://probe.example.org/vocab#description", text);
        r
    };
    let mut keyed = Record::new(Term::iri("http://probe.example.org/item/0"));
    keyed.add(vocab::PROVIDER_PART_NUMBER, "PN-0004");
    let externals = vec![
        keyed,
        // A local's full text: label before part number (IRI order).
        described(1, "résistance couche 3 PN-0003"),
        described(2, "resistance couche 7 PN0007"),
        described(3, "nothing alike"),
    ];
    let external = RecordStore::from_records(&externals);
    let single = RecordStore::from_records(&locals);
    for fallback in [
        SimilarityMeasure::JaroWinkler,
        SimilarityMeasure::MongeElkan,
    ] {
        let mut cmp = RecordComparator::single(
            vocab::PROVIDER_PART_NUMBER,
            vocab::LOCAL_PART_NUMBER,
            SimilarityMeasure::JaroWinkler,
        )
        .with_thresholds(0.97, 0.5);
        cmp.fallback = Some(fallback);
        let (candidates, naive_pairs) = (oracle::cartesian(&external, &single), 36);
        let expected = oracle::score(&cmp, &external, &single, candidates, naive_pairs);
        for (links, id) in [(&expected.matches, 1), (&expected.possible, 2)] {
            let linked = links.iter().any(|link| link.external == externals[id].id);
            assert!(linked, "{fallback:?}: record {id} has no fallback link");
        }
        for shard_count in [1, 3] {
            let catalog = ShardedStore::from_records(&locals, shard_count);
            let context = format!("{fallback:?} fallback / {shard_count} shards");
            let batch =
                LinkagePipeline::new(&CartesianBlocker, &cmp).run_sharded(&external, &catalog);
            assert_same_result(&batch, &expected, &context);
            let linker = Linker::new(&CartesianBlocker, &cmp, catalog);
            assert_probes_match(&linker, &external, &expected, &context);
        }
    }
}
