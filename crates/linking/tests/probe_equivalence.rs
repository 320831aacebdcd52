//! The serving-layer equivalence guard: for every built-in blocker, a
//! [`Linker`] probe of one record returns **exactly** that record's
//! slice of the batch pipeline's `run_sharded` output — same link sets,
//! same decisions, scores compared bit for bit (`f64::to_bits`) — across
//! {1, 3, 8} shard catalogs, including the learned rule-based
//! classifier; plus a property test over random catalogs and probes.
//!
//! The probe path shares the batch scoring code by construction, so
//! this test is the guard that the *surrounding* serving machinery —
//! the in-place probe-store refill, the one-record external streaming,
//! the per-shard queue assembly, the epoch plumbing — introduces no
//! divergence.

use classilink_datagen::scenario::{generate, ScenarioConfig};
use classilink_datagen::vocab;
use classilink_linking::blocking::{
    BigramBlocker, Blocker, CartesianBlocker, RuleBasedBlocker, SortedNeighborhoodBlocker,
    StandardBlocker,
};
use classilink_linking::pipeline::{Link, LinkageResult};
use classilink_linking::record::Record;
use classilink_linking::{
    LinkagePipeline, Linker, ProbeScratch, RecordComparator, RecordStore, ShardedStore,
    SimilarityMeasure,
};
use classilink_rdf::Term;

mod common;
use common::{classifier, comparator, key};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];

/// The links of `batch` whose external term is `id`, in output order
/// (the batch result is sorted by (external, local) index, so a slice
/// of one external is sorted by global local id — the probe's order).
fn slice_of<'r>(links: &'r [Link], id: &Term) -> Vec<&'r Link> {
    links.iter().filter(|link| &link.external == id).collect()
}

fn assert_links_bit_identical(probe: &[Link], batch: &[&Link], context: &str) {
    assert_eq!(probe.len(), batch.len(), "{context}: link count");
    for (p, b) in probe.iter().zip(batch) {
        assert_eq!(p.external, b.external, "{context}: external term");
        assert_eq!(p.local, b.local, "{context}: local term");
        assert_eq!(
            p.score.to_bits(),
            b.score.to_bits(),
            "{context}: score bits ({} vs {})",
            p.score,
            b.score
        );
    }
}

/// The guard: every record's probe equals its batch slice, and the
/// probes' comparison counts sum to the batch comparison count.
fn assert_probe_equals_batch(
    blocker: &(dyn Blocker + Sync),
    cmp: &RecordComparator,
    external: &RecordStore,
    catalog: &ShardedStore,
    context: &str,
) {
    let batch: LinkageResult = LinkagePipeline::new(blocker, cmp).run_sharded(external, catalog);
    let linker = Linker::new(blocker, cmp, catalog.clone());
    let mut scratch = ProbeScratch::new();
    let mut probed_comparisons = 0u64;
    let mut probed_links = 0usize;
    for e in 0..external.len() {
        let record = external.record(e);
        let hits = linker.probe_with(&record, &mut scratch);
        probed_comparisons += hits.comparisons;
        probed_links += hits.matches.len();
        assert_eq!(hits.epoch, 1, "{context}: initial epoch");
        assert_links_bit_identical(
            &hits.matches,
            &slice_of(&batch.matches, &record.id),
            &format!("{context}, record {e}, matches"),
        );
        assert_links_bit_identical(
            &hits.possible,
            &slice_of(&batch.possible, &record.id),
            &format!("{context}, record {e}, possible"),
        );
        // The convenience path reports the same matches.
        let convenience = linker.probe(&record);
        assert_eq!(convenience, hits.matches, "{context}: probe vs probe_with");
    }
    assert_eq!(
        probed_comparisons, batch.comparisons,
        "{context}: comparison counts"
    );
    assert_eq!(probed_links, batch.matches.len(), "{context}: total links");
    // Swapping in the same catalog bumps the epoch without changing any
    // answer (warm scratch reused across the swap).
    assert_eq!(linker.swap(catalog.clone()), 2, "{context}: swap sequence");
    for e in 0..external.len() {
        let record = external.record(e);
        let hits = linker.probe_with(&record, &mut scratch);
        assert_eq!(hits.epoch, 2, "{context}: post-swap epoch");
        assert_links_bit_identical(
            &hits.matches,
            &slice_of(&batch.matches, &record.id),
            &format!("{context}, record {e}, post-swap matches"),
        );
    }
}

fn assert_blocker_equivalence(blocker: &(dyn Blocker + Sync)) {
    let scenario = generate(&ScenarioConfig::tiny());
    let cmp = comparator();
    let mut asserted_links = false;
    for shard_count in SHARD_COUNTS {
        let (external, catalog) = scenario.sharded_stores(shard_count);
        let batch = LinkagePipeline::new(blocker, &cmp).run_sharded(&external, &catalog);
        asserted_links |= !batch.matches.is_empty();
        assert_probe_equals_batch(
            blocker,
            &cmp,
            &external,
            &catalog,
            &format!("{} / {shard_count} shards", blocker.name()),
        );
    }
    assert!(
        asserted_links,
        "{}: batch produced no links — the guard would be vacuous",
        blocker.name()
    );
}

#[test]
fn cartesian_probe_equals_batch() {
    assert_blocker_equivalence(&CartesianBlocker);
}

#[test]
fn standard_probe_equals_batch() {
    assert_blocker_equivalence(&StandardBlocker::new(key(4)));
}

#[test]
fn sorted_neighborhood_probe_equals_batch() {
    assert_blocker_equivalence(&SortedNeighborhoodBlocker::new(key(0), 7));
}

#[test]
fn bigram_probe_equals_batch() {
    assert_blocker_equivalence(&BigramBlocker::new(key(0), 0.5));
}

#[test]
fn rule_based_probe_equals_batch() {
    let scenario = generate(&ScenarioConfig::tiny());
    let classifier = classifier(&scenario);
    for fallback in [false, true] {
        let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology)
            .with_fallback(fallback);
        assert_blocker_equivalence(&blocker);
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
    assert!(hits.matches.is_empty());
    assert!(hits.possible.is_empty());
    assert_eq!(hits.comparisons, 0);
}

#[test]
fn probe_record_without_the_key_property_matches_batch() {
    // A probe record that lacks the blocking key (and every rule's left
    // property): the batch pipeline skips it, so must the probe.
    let cmp = comparator();
    let blocker = StandardBlocker::new(key(4));
    let locals: Vec<Record> = (0..6)
        .map(|i| {
            let mut r = Record::new(Term::iri(format!("http://local.example.org/prod/{i}")));
            r.add(vocab::LOCAL_PART_NUMBER, format!("PN-{i:04}"));
            r
        })
        .collect();
    let catalog = ShardedStore::from_records(&locals, 2);
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
    let locals: Vec<Record> = (0..9)
        .map(|i| {
            let mut r = Record::new(Term::iri(format!("http://local.example.org/prod/{i}")));
            r.add(vocab::LOCAL_PART_NUMBER, format!("PN-{i:04}"))
                .add(vocab::LOCAL_LABEL, format!("résistance couche {i}"));
            r
        })
        .collect();
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
        for shard_count in [1, 3] {
            let catalog = ShardedStore::from_records(&locals, shard_count);
            let batch =
                LinkagePipeline::new(&CartesianBlocker, &cmp).run_sharded(&external, &catalog);
            for (links, id) in [(&batch.matches, 1), (&batch.possible, 2)] {
                assert!(
                    !slice_of(links, &externals[id].id).is_empty(),
                    "{fallback:?}: record {id} has no fallback link — the guard would be vacuous"
                );
            }
            assert_probe_equals_batch(
                &CartesianBlocker,
                &cmp,
                &external,
                &catalog,
                &format!("{fallback:?} fallback / {shard_count} shards"),
            );
        }
    }
}

mod properties {
    //! Property test: on random catalogs and probe sets, a probe equals
    //! its batch slice for the standard and sorted-neighbourhood
    //! blockers (the two whose candidate geometry depends most on the
    //! catalog's value distribution).

    use super::*;
    use proptest::prelude::*;

    fn local_record(i: usize, pn: &str) -> Record {
        let mut r = Record::new(Term::iri(format!("http://local.example.org/prod/{i}")));
        if !pn.is_empty() {
            r.add(vocab::LOCAL_PART_NUMBER, pn);
        }
        r
    }

    fn external_record(i: usize, pn: &str) -> Record {
        let mut r = Record::new(Term::iri(format!("http://provider.example.org/item/{i}")));
        if !pn.is_empty() {
            r.add(vocab::PROVIDER_PART_NUMBER, pn);
        }
        r
    }

    proptest! {
        #[test]
        fn prop_probe_equals_batch_slice(
            locals in proptest::collection::vec("[a-d]{0,4}", 1..20),
            externals in proptest::collection::vec("[a-d]{0,4}", 1..6),
            shard_count in 1usize..4,
        ) {
            let local_records: Vec<Record> = locals
                .iter()
                .enumerate()
                .map(|(i, pn)| local_record(i, pn))
                .collect();
            let external_records: Vec<Record> = externals
                .iter()
                .enumerate()
                .map(|(i, pn)| external_record(i, pn))
                .collect();
            let external = RecordStore::from_records(&external_records);
            let catalog = ShardedStore::from_records(&local_records, shard_count);
            let cmp = RecordComparator::single(
                vocab::PROVIDER_PART_NUMBER,
                vocab::LOCAL_PART_NUMBER,
                SimilarityMeasure::JaroWinkler,
            )
            .with_thresholds(0.9, 0.3);
            let standard = StandardBlocker::new(key(2));
            let neighborhood = SortedNeighborhoodBlocker::new(key(0), 3);
            let blockers: [&(dyn Blocker + Sync); 2] = [&standard, &neighborhood];
            for blocker in blockers {
                let batch =
                    LinkagePipeline::new(blocker, &cmp).run_sharded(&external, &catalog);
                let linker = Linker::new(blocker, &cmp, catalog.clone());
                let mut scratch = ProbeScratch::new();
                for (e, record) in external_records.iter().enumerate() {
                    let hits = linker.probe_with(record, &mut scratch);
                    let expected = slice_of(&batch.matches, &record.id);
                    prop_assert_eq!(
                        hits.matches.len(),
                        expected.len(),
                        "{} record {}",
                        blocker.name(),
                        e
                    );
                    for (p, b) in hits.matches.iter().zip(&expected) {
                        prop_assert_eq!(&p.local, &b.local);
                        prop_assert_eq!(p.score.to_bits(), b.score.to_bits());
                    }
                    let possible = slice_of(&batch.possible, &record.id);
                    prop_assert_eq!(hits.possible.len(), possible.len());
                    for (p, b) in hits.possible.iter().zip(&possible) {
                        prop_assert_eq!(&p.local, &b.local);
                        prop_assert_eq!(p.score.to_bits(), b.score.to_bits());
                    }
                }
            }
        }
    }
}
