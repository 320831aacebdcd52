//! Integration coverage of the id-based blocking/comparison engine:
//!
//! * serial vs parallel pipeline agreement across **every** blocker
//!   implementation, on inputs large enough to trigger the parallel path,
//! * the empty-store / empty-property edge-case suite.

use classilink_linking::blocking::{
    collect_pairs, BigramBlocker, Blocker, BlockingKey, CartesianBlocker, RuleBasedBlocker,
    SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::{
    LinkagePipeline, Record, RecordComparator, RecordStore, SimilarityMeasure,
};
use classilink_rdf::Term;

mod common;
use common::rule_setup;

const EXT_PN: &str = "http://provider.e.org/v#ref";
const LOC_PN: &str = "http://local.e.org/v#partNumber";

/// 64 × 64 records sharing a 2-char prefix per quarter, so that every
/// blocking strategy below emits well over the pipeline's 1024-candidate
/// parallel threshold.
fn large_stores() -> (RecordStore, RecordStore) {
    let families = ["CR", "T8", "LM", "GR"];
    let make = |iri_prefix: &str, property: &str| -> RecordStore {
        let records: Vec<Record> = (0..64)
            .map(|i| {
                let mut r = Record::new(Term::iri(format!("{iri_prefix}/{i}")));
                r.add(property, format!("{}{:04}", families[i % 2], i / 2));
                r
            })
            .collect();
        RecordStore::from_records(&records)
    };
    (
        make("http://provider.e.org/item", EXT_PN),
        make("http://local.e.org/prod", LOC_PN),
    )
}

fn comparator() -> RecordComparator {
    RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Levenshtein)
        .with_thresholds(0.95, 0.4)
}

fn assert_serial_parallel_agree(
    blocker: &dyn Blocker,
    external: &RecordStore,
    local: &RecordStore,
) {
    let cmp = comparator();
    let candidates = collect_pairs(blocker, external, local);
    assert!(
        candidates.len() >= 1024,
        "{}: only {} candidates — parallel path not exercised",
        blocker.name(),
        candidates.len()
    );
    let serial = LinkagePipeline::new(blocker, &cmp).run_sharded(external, local);
    let parallel = LinkagePipeline::new(blocker, &cmp)
        .with_threads(4)
        .run_sharded(external, local);
    assert_eq!(
        serial,
        parallel,
        "{} serial/parallel mismatch",
        blocker.name()
    );
    assert_eq!(serial.comparisons, candidates.len() as u64);
}

#[test]
fn cartesian_serial_parallel_agree() {
    let (external, local) = large_stores();
    assert_serial_parallel_agree(&CartesianBlocker, &external, &local);
}

#[test]
fn standard_blocking_serial_parallel_agree() {
    let (external, local) = large_stores();
    // 2-char prefix: each family shares one block.
    let blocker = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 2));
    assert_serial_parallel_agree(&blocker, &external, &local);
}

#[test]
fn sorted_neighborhood_serial_parallel_agree() {
    let (external, local) = large_stores();
    let blocker = SortedNeighborhoodBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 60);
    assert_serial_parallel_agree(&blocker, &external, &local);
}

#[test]
fn bigram_serial_parallel_agree() {
    let (external, local) = large_stores();
    let blocker = BigramBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 0.2);
    assert_serial_parallel_agree(&blocker, &external, &local);
}

#[test]
fn rule_based_serial_parallel_agree() {
    let (external, local) = large_stores();
    let (onto, instances, classifier) = rule_setup(64);
    let blocker = RuleBasedBlocker::new(&classifier, &instances, &onto).with_fallback(true);
    assert_serial_parallel_agree(&blocker, &external, &local);
}

// ---------------------------------------------------------------------
// Empty-store / empty-property edge cases.
// ---------------------------------------------------------------------

fn empty() -> RecordStore {
    RecordStore::from_records(&[])
}

/// A store whose records exist but carry no attributes at all.
fn attributeless(n: usize) -> RecordStore {
    let records: Vec<Record> = (0..n)
        .map(|i| Record::new(Term::iri(format!("http://bare.e.org/{i}"))))
        .collect();
    RecordStore::from_records(&records)
}

#[test]
fn every_blocker_handles_empty_stores() {
    let (onto, instances, classifier) = rule_setup(64);
    let key = || BlockingKey::per_side(EXT_PN, LOC_PN, 4);
    let rule_based = RuleBasedBlocker::new(&classifier, &instances, &onto);
    let blockers: Vec<Box<dyn Blocker>> = vec![
        Box::new(CartesianBlocker),
        Box::new(StandardBlocker::new(key())),
        Box::new(SortedNeighborhoodBlocker::new(key(), 3)),
        Box::new(BigramBlocker::new(key(), 0.7)),
        Box::new(rule_based),
    ];
    let (populated, _) = large_stores();
    for blocker in &blockers {
        assert!(
            collect_pairs(blocker.as_ref(), &empty(), &empty()).is_empty(),
            "{} emitted pairs on empty × empty",
            blocker.name()
        );
        assert!(
            collect_pairs(blocker.as_ref(), &populated, &empty()).is_empty(),
            "{} emitted pairs on populated × empty",
            blocker.name()
        );
        assert!(
            collect_pairs(blocker.as_ref(), &empty(), &populated).is_empty(),
            "{} emitted pairs on empty × populated",
            blocker.name()
        );
    }
}

#[test]
fn key_based_blockers_skip_attributeless_records() {
    let (_, local) = large_stores();
    let bare = attributeless(5);
    let key = BlockingKey::per_side(EXT_PN, LOC_PN, 4);
    assert!(collect_pairs(&StandardBlocker::new(key.clone()), &bare, &local).is_empty());
    assert!(collect_pairs(&BigramBlocker::new(key, 0.7), &bare, &local).is_empty());
}

#[test]
fn pipeline_on_empty_stores_is_empty() {
    let cmp = comparator();
    for threads in [1, 4] {
        let result = LinkagePipeline::new(&CartesianBlocker, &cmp)
            .with_threads(threads)
            .run_sharded(&empty(), &empty());
        assert_eq!(result.comparisons, 0);
        assert_eq!(result.naive_pairs, 0);
        assert!(result.matches.is_empty() && result.possible.is_empty());
        assert_eq!(result.reduction_ratio, 0.0);
    }
}

#[test]
fn comparator_against_attributeless_side_uses_fallback_or_zero() {
    let (external, _) = large_stores();
    let bare = attributeless(1);
    let cmp = comparator();
    // LOC_PN never occurs on the bare store: the rule cannot fire, and
    // the Monge-Elkan full-text fallback sees an empty right-hand text.
    let compiled = cmp.compile(&external, &bare);
    let comparison = compiled.compare(&external, 0, &bare, 0);
    assert_eq!(comparison.details, vec![None]);
    assert!(comparison.score <= 1.0);
    let strict = RecordComparator {
        fallback: None,
        ..comparator()
    };
    let comparison = strict
        .compile(&external, &bare)
        .compare(&external, 0, &bare, 0);
    assert_eq!(comparison.score, 0.0);
}

#[test]
fn empty_property_lookup_is_none_not_panic() {
    let store = attributeless(2);
    assert_eq!(store.property(EXT_PN), None);
    assert!(store.interner().is_empty());
    assert_eq!(store.full_text(0), "");
    assert_eq!(store.facts(1).count(), 0);
}
