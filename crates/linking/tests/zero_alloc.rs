//! Proof of the zero-allocation contract: once the pipeline is in
//! steady state (scratch buffers grown, token indexes built), scoring a
//! candidate pair through `CompiledComparator::score` performs **no
//! heap allocation**, for every similarity measure — including the
//! set measures (token-index merges) and the full-text fallback.
//!
//! The same contract now covers **blocking**: after the store-level
//! `KeyIndex`es are warm and the `CandidateRuns` sink has grown its
//! buffers, streaming candidate generation with `StandardBlocker`,
//! `BigramBlocker` and `SortedNeighborhoodBlocker` performs zero
//! allocations — not just per record pair, but for the entire run.
//!
//! The rule-based blocker allocates by design (classification builds
//! its predictions), so its guard is a **difference**: what a streaming
//! call allocates beyond classifying its externals must not depend on
//! how many of them share a predicted class's extent.
//!
//! The feed is held to a budget rather than to zero: what
//! `FeedIngest` allocates grows by one allocation per record (its id)
//! and, in Turtle, one per prefixed name expanded; every value is copied
//! straight into its column.
//!
//! This test binary installs a counting global allocator and asserts
//! the allocation counter does not move across a post-warmup scoring
//! sweep. The counter is **per thread**: every measured window runs on
//! its test's own thread, so neither a concurrent test nor libtest's
//! own threads can move it.

use classilink_core::{ClassificationRule, Contingency, RuleClassifier};
use classilink_linking::blocking::{
    BigramBlocker, Blocker, BlockingKey, CartesianBlocker, RuleBasedBlocker,
    SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::ingest::{FeedFormat, FeedIngest};
use classilink_linking::intern::SchemaInterner;
use classilink_linking::record::Record;
use classilink_linking::{
    CandidateRuns, Linker, LocalShards, ProbeScratch, RecordComparator, RecordStore, ShardedStore,
    SimScratch, SimilarityMeasure,
};
use classilink_ontology::{InstanceStore, OntologyBuilder};
use classilink_rdf::Term;
use classilink_segment::SegmenterKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, with every allocation counted against the allocating thread.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator never allocates and is valid for the thread's whole
    // life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (and reallocations) the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const EXT_PN: &str = "http://provider.e.org/v#ref";
const EXT_MFR: &str = "http://provider.e.org/v#maker";
const LOC_PN: &str = "http://local.e.org/v#partNumber";
const LOC_MFR: &str = "http://local.e.org/v#manufacturer";

fn stores() -> (RecordStore, RecordStore) {
    let series = ["CRCW0805", "ERJ6", "T83A225", "LM317", "GRM188", "1N4148"];
    let external: Vec<Record> = (0..24)
        .map(|i| {
            let mut r = Record::new(Term::iri(format!("http://provider.e.org/item/{i}")));
            r.add(
                EXT_PN,
                format!("{}-{:05}-{}", series[i % series.len()], i, i % 7),
            );
            r.add(EXT_MFR, "Vishay Intertechnology fixed film");
            r
        })
        .collect();
    let local: Vec<Record> = (0..24)
        .map(|i| {
            let mut r = Record::new(Term::iri(format!("http://local.e.org/prod/{i}")));
            r.add(
                LOC_PN,
                format!("{}-{:05}-{}", series[(i + 1) % series.len()], i, i % 5),
            );
            r.add(LOC_MFR, "Vishay fixed film resistor");
            r
        })
        .collect();
    (
        RecordStore::from_records(&external),
        RecordStore::from_records(&local),
    )
}

#[test]
fn steady_state_score_never_allocates() {
    let (external, local) = stores();
    let mut scratch = SimScratch::new();
    for &measure in SimilarityMeasure::all() {
        let comparator = RecordComparator::new(vec![classilink_linking::AttributeRule {
            left_property: EXT_PN.to_string(),
            right_property: LOC_PN.to_string(),
            measure,
            weight: 1.0,
        }]);
        let compiled = comparator.compile(&external, &local);
        // Warmup: grow the scratch buffers to the longest inputs and
        // fault in every lazily-built structure.
        let mut warmup = 0.0;
        for e in 0..external.len() {
            for l in 0..local.len() {
                warmup += compiled.score(&external, e, &local, l, &mut scratch).0;
            }
        }
        assert!(warmup.is_finite());

        // Steady state: the same sweep must not allocate at all.
        let before = allocations();
        let mut total = 0.0;
        for e in 0..external.len() {
            for l in 0..local.len() {
                total += compiled.score(&external, e, &local, l, &mut scratch).0;
            }
        }
        let after = allocations();
        assert!(total.is_finite());
        assert_eq!(
            after - before,
            0,
            "measure {} allocated {} times across {} steady-state scores",
            measure.name(),
            after - before,
            external.len() * local.len()
        );
    }
}

#[test]
fn steady_state_fallback_score_never_allocates() {
    // A rule whose property exists on neither store forces the
    // full-text fallback (Monge-Elkan — a set kernel) on every pair.
    let (external, local) = stores();
    let mut scratch = SimScratch::new();
    let comparator = RecordComparator::single(
        "http://nowhere.org/v#x",
        "http://nowhere.org/v#y",
        SimilarityMeasure::Jaro,
    );
    let compiled = comparator.compile(&external, &local);
    let mut warmup = 0.0;
    for e in 0..external.len() {
        warmup += compiled.score(&external, e, &local, e, &mut scratch).0;
    }
    assert!(
        warmup > 0.0,
        "fallback should produce non-zero similarities"
    );

    let before = allocations();
    for e in 0..external.len() {
        compiled.score(&external, e, &local, e, &mut scratch);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "fallback path allocated in steady state");
}

/// Stream a blocker's candidates twice into one sink and assert the
/// second (steady-state) run performs zero allocations: the first call
/// builds the store-level key indexes and grows the sink's output and
/// scratch buffers; after that, candidate generation is pure index
/// probing into retained capacity.
fn assert_blocking_steady_state(
    blocker: &dyn Blocker,
    external: &RecordStore,
    local: LocalShards<'_>,
    runs: &mut CandidateRuns,
) {
    blocker.stream_candidates(external, local, runs);
    let warm_total = runs.total();
    let before = allocations();
    blocker.stream_candidates(external, local, runs);
    let after = allocations();
    assert_eq!(
        runs.total(),
        warm_total,
        "{}: runs diverged",
        blocker.name()
    );
    assert!(
        warm_total > 0,
        "{}: no candidates — the zero-alloc assertion would be vacuous",
        blocker.name()
    );
    assert_eq!(
        after - before,
        0,
        "{} allocated {} times across a steady-state streaming run of {} candidates",
        blocker.name(),
        after - before,
        warm_total
    );
}

#[test]
fn steady_state_blocking_never_allocates() {
    let (external, local) = stores();
    let standard = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 4));
    let bigram = BigramBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 0.3);
    // A second threshold reads the same per-shard counter artifact
    // (nothing about it depends on the threshold) through its own
    // sharing-rule table.
    let bigram_high = BigramBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 0.7);
    let sorted = SortedNeighborhoodBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 4);
    let mut runs = CandidateRuns::new();
    // Single-store (one-shard) view. Standard emits
    // keyed blocks, bigram and sorted neighbourhood explicit runs,
    // cartesian span blocks — all three encodings of the block sink stay
    // allocation-free warm.
    assert_blocking_steady_state(&standard, &external, (&local).into(), &mut runs);
    assert_blocking_steady_state(&bigram, &external, (&local).into(), &mut runs);
    assert_blocking_steady_state(&bigram_high, &external, (&local).into(), &mut runs);
    assert_blocking_steady_state(&sorted, &external, (&local).into(), &mut runs);
    assert_blocking_steady_state(&CartesianBlocker, &external, (&local).into(), &mut runs);
    // Sharded view: the run_sharded blocking path (per-shard key
    // indexes, external-side artifacts shared across shards).
    let sharded = ShardedStore::from_records(
        &(0..24)
            .map(|i| {
                let mut r = Record::new(Term::iri(format!("http://local.e.org/prod/{i}")));
                r.add(LOC_PN, format!("CRCW0805-{i:05}-{}", i % 5));
                r
            })
            .collect::<Vec<_>>(),
        3,
    );
    assert_blocking_steady_state(&standard, &external, (&sharded).into(), &mut runs);
    assert_blocking_steady_state(&bigram, &external, (&sharded).into(), &mut runs);
    assert_blocking_steady_state(&bigram_high, &external, (&sharded).into(), &mut runs);
    assert_blocking_steady_state(&sorted, &external, (&sharded).into(), &mut runs);
    assert_blocking_steady_state(&CartesianBlocker, &external, (&sharded).into(), &mut runs);
    // Consecutive externals of 7, 8 and 16 padded bigrams count in 3, 4
    // and 5 planes: the plane count grows from probe to probe inside
    // the warm sink, past what the externals above (under 16 bigrams
    // each) ever needed.
    let growing = RecordStore::from_records(
        &["CRCW08", "CRCW080", "CRCW0805-1N4148X"]
            .iter()
            .enumerate()
            .map(|(i, pn)| {
                let mut r = Record::new(Term::iri(format!("http://provider.e.org/grow/{i}")));
                r.add(EXT_PN, *pn);
                r
            })
            .collect::<Vec<_>>(),
    );
    assert_blocking_steady_state(&bigram, &growing, (&local).into(), &mut runs);
    assert_blocking_steady_state(&bigram_high, &growing, (&sharded).into(), &mut runs);
}

/// What one warm rule-blocker streaming call allocates **beyond**
/// classifying its externals, when all `externals` records predict the
/// same class of extent 512 spread over 3 shards.
fn rule_stream_allocations_beyond_classification(externals: usize) -> u64 {
    const EXTENT: usize = 512;
    let mut builder = OntologyBuilder::new("http://e.org/c#");
    let resistor = builder.class("FixedFilmResistor", None);
    let ontology = builder.build();
    let mut instances = InstanceStore::new();
    let locals: Vec<Record> = (0..EXTENT)
        .map(|i| {
            let id = Term::iri(format!("http://local.e.org/prod/{i}"));
            instances.assert_type(&id, resistor);
            let mut r = Record::new(id);
            r.add(LOC_PN, format!("CRCW0805-{i:05}"));
            r
        })
        .collect();
    let local = ShardedStore::from_records(&locals, 3);
    let classifier = RuleClassifier::new(
        vec![ClassificationRule {
            property: EXT_PN.to_string(),
            segment: "crcw0805".to_string(),
            class: resistor,
            class_iri: "http://e.org/c#FixedFilmResistor".to_string(),
            class_label: "FixedFilmResistor".to_string(),
            quality: Contingency::new(100, 10, 20, 10).quality(),
        }],
        SegmenterKind::Separator,
    );
    let external = RecordStore::from_records(
        &(0..externals)
            .map(|i| {
                let mut r = Record::new(Term::iri(format!("http://provider.e.org/item/{i}")));
                r.add(EXT_PN, format!("CRCW0805-{i:05}"));
                r
            })
            .collect::<Vec<_>>(),
    );
    let blocker = RuleBasedBlocker::new(&classifier, &instances, &ontology);
    let mut runs = CandidateRuns::new();
    // Warm-up: the sink grows its blocks, arenas and marks once.
    blocker.stream_candidates(&external, (&local).into(), &mut runs);
    assert_eq!(runs.total(), (externals * EXTENT) as u64);

    let before = allocations();
    blocker.stream_candidates(&external, (&local).into(), &mut runs);
    let streamed = allocations() - before;
    assert_eq!(runs.total(), (externals * EXTENT) as u64);

    let before = allocations();
    for e in 0..external.len() {
        assert_eq!(classifier.classify_fact_refs(external.facts(e)).len(), 1);
    }
    let classified = allocations() - before;
    streamed - classified
}

#[test]
fn rule_blocker_resolves_a_shared_extent_once_per_call() {
    // The extent is enumerated and looked up for the first external that
    // predicts the class; the other 3 — or 31 — replay the resolved ids
    // into the warm sink. Resolution inside the per-record loop would
    // grow the remainder by the extent's work per external.
    let few = rule_stream_allocations_beyond_classification(4);
    let many = rule_stream_allocations_beyond_classification(32);
    assert_eq!(
        few, many,
        "streaming allocated {few} times beyond classification for 4 extent-sharing \
         externals but {many} times for 32"
    );
    // And the one resolution borrows: nowhere near one clone per member.
    assert!(
        few < 64,
        "{few} allocations to resolve one class: extent members are being cloned"
    );
}

/// What one warm `classify_fact_refs` call allocates on `part_number`,
/// which must fire exactly one class.
fn classification_allocations(classifier: &RuleClassifier, part_number: &str) -> u64 {
    let facts = [(EXT_PN, part_number)];
    classifier.classify_fact_refs(facts);
    let before = allocations();
    let predictions = classifier.classify_fact_refs(facts);
    let allocated = allocations() - before;
    assert_eq!(predictions.len(), 1, "{part_number:?}");
    allocated
}

#[test]
fn classification_allocations_do_not_scale_with_segments() {
    // The value is split into borrowed segments: the eight segments that
    // fire no rule cost nothing beyond the one the rule needs.
    let classifier = RuleClassifier::new(
        vec![ClassificationRule {
            property: EXT_PN.to_string(),
            segment: "crcw0805".to_string(),
            class: classilink_ontology::ClassId(0),
            class_iri: "http://e.org/c#FixedFilmResistor".to_string(),
            class_label: "FixedFilmResistor".to_string(),
            quality: Contingency::new(100, 10, 20, 10).quality(),
        }],
        SegmenterKind::Separator,
    );
    let one = classification_allocations(&classifier, "CRCW0805");
    let nine = classification_allocations(&classifier, "CRCW0805-10K 1% 63V-T1.A2/B3_X9:Z7");
    assert_eq!(
        one, nine,
        "classifying a 1-segment part number allocated {one} times, a 9-segment one {nine}"
    );
}

// ---------------------------------------------------------------------
// The serving layer: warm `Linker::probe_with` calls.
// ---------------------------------------------------------------------

/// The catalog side of [`stores`] as a sharded store.
fn catalog(shard_count: usize) -> ShardedStore {
    let series = ["CRCW0805", "ERJ6", "T83A225", "LM317", "GRM188", "1N4148"];
    let locals: Vec<Record> = (0..24)
        .map(|i| {
            let mut r = Record::new(Term::iri(format!("http://local.e.org/prod/{i}")));
            r.add(
                LOC_PN,
                format!("{}-{:05}-{}", series[(i + 1) % series.len()], i, i % 5),
            );
            r
        })
        .collect();
    ShardedStore::from_records(&locals, shard_count)
}

/// A string-kernel-only comparator (a set-kernel probe re-tokenises the
/// probe record's set-rule columns — only those — which allocates by
/// design; the serving zero-allocation contract is stated for string
/// kernels). Its default set-measure fallback is configured but never
/// fires on a probe with a part number, and must cost such a probe
/// nothing.
fn probe_comparator(match_threshold: f64, non_match_threshold: f64) -> RecordComparator {
    RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::JaroWinkler)
        .with_thresholds(match_threshold, non_match_threshold)
}

/// [`probe_comparator`] without its fallback, for the sorted-neighbourhood
/// blocker alone: a probe without a part number still sorts into a
/// window, where its rule cannot fire and the set-measure fallback would
/// tokenise the full text the refilled probe store joins anew — by design,
/// like any set kernel. Standard and bigram blocking find no candidate
/// for such a probe in [`catalog`], so they keep the fallback.
fn probe_comparator_without_fallback(
    match_threshold: f64,
    non_match_threshold: f64,
) -> RecordComparator {
    RecordComparator {
        fallback: None,
        ..probe_comparator(match_threshold, non_match_threshold)
    }
}

/// Warm up a linker + scratch on `probes`, then measure one full sweep.
/// Returns (allocations, links materialised) across the measured sweep.
fn measure_probe_sweep(
    linker: &Linker<'_>,
    scratch: &mut ProbeScratch,
    probes: &[Record],
) -> (u64, usize) {
    let mut comparisons = 0;
    for probe in probes {
        comparisons += linker.probe_with(probe, scratch).comparisons;
    }
    assert!(
        comparisons > 0,
        "no candidates — the probe assertion would be vacuous"
    );
    let before = allocations();
    let mut links = 0;
    for probe in probes {
        let hits = linker.probe_with(probe, scratch);
        links += hits.matches.len() + hits.possible.len();
    }
    let after = allocations();
    (after - before, links)
}

/// Append two shards whose blocks (100 locals each) outgrow every buffer
/// so far: the sweep that meets them first grows the sink and the survivor
/// buffer, the next one reuses them. Then swap `catalog` back and append
/// the same shards anew — they are cold, the scratch is not: probes right
/// behind the second publish allocate nothing, because the writer built
/// the shards' signature columns and key indexes, and the catalog's sort
/// ladder (the second append's from the first's), not the probe.
fn assert_appended_shards_are_probed_warm(
    linker: &Linker<'_>,
    scratch: &mut ProbeScratch,
    probes: &[Record],
    catalog: &ShardedStore,
) {
    let append = |round: usize| {
        let mut delta = linker.delta_builder();
        for i in 0..100 {
            let id = format!("http://local.e.org/delta/{round}/{i}");
            let mut r = Record::new(Term::iri(id));
            r.add(
                LOC_PN,
                format!("CRCW0805-{:05}-{}", 7 * i + 3 + round, i % 5),
            );
            delta.push(&r);
        }
        linker.try_append(delta).unwrap();
    };
    append(0);
    append(1);
    let (grown, _) = measure_probe_sweep(linker, scratch, probes);
    assert_eq!(grown, 0, "a warm sweep over the grown blocks allocated");
    linker.swap(catalog.clone());
    append(0);
    append(1);
    let before = allocations();
    let mut comparisons = 0;
    for probe in probes {
        comparisons += linker.probe_with(probe, scratch).comparisons;
    }
    assert!(comparisons >= 100, "the appended blocks were not probed");
    assert_eq!(
        allocations() - before,
        0,
        "the first probes behind an append allocated"
    );
}

#[test]
fn warm_probe_never_allocates() {
    // Thresholds no score can reach: every candidate is scored but no
    // link materialises, so a warm probe must be *fully* allocation-free
    // — refill, blocking, queueing, scoring and the cleared result
    // buffers included — for every streaming blocker, single-store and
    // sharded.
    let (external, _) = stores();
    let probes: Vec<Record> = (0..6).map(|e| external.record(e)).collect();
    let mut varied: Vec<Record> = [3usize, 0, 1, 2, 3, 1]
        .iter()
        .enumerate()
        .map(|(i, &values)| {
            let mut r = Record::new(Term::iri(format!("http://provider.e.org/varied/{i}")));
            for v in 0..values {
                r.add(
                    EXT_PN,
                    format!("CRCW0805-{}", "0123456789".repeat(v + i % 2)),
                );
            }
            r
        })
        .collect();
    // A key that repeats one gram (the bigram index drops the repeats)
    // and a provider with no key value at all (its key is empty).
    let mut repeated = Record::new(Term::iri("http://provider.e.org/varied/repeated"));
    repeated.add(EXT_PN, "00000000");
    let mut keyless = Record::new(Term::iri("http://provider.e.org/varied/keyless"));
    keyless.add(EXT_MFR, "Vishay");
    varied.extend([repeated, keyless]);
    let cmp = probe_comparator(2.0, 2.0);
    let sorted_cmp = probe_comparator_without_fallback(2.0, 2.0);
    let standard = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 4));
    let bigram = BigramBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 0.3);
    // Windows wider than the 24-record catalog, so that the probes behind
    // an append reach into its 100-record shards.
    let sorted = SortedNeighborhoodBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 32);
    for shard_count in [1, 3] {
        let catalog = catalog(shard_count);
        for (blocker, cmp) in [
            (&standard as &(dyn Blocker + Sync), &cmp),
            (&bigram, &cmp),
            (&sorted, &sorted_cmp),
        ] {
            let linker = Linker::new(blocker, cmp, catalog.clone());
            let mut scratch = ProbeScratch::new();
            let (allocations, links) = measure_probe_sweep(&linker, &mut scratch, &probes);
            assert_eq!(links, 0, "{}: thresholds unreachable", blocker.name());
            assert_eq!(
                allocations,
                0,
                "{} / {shard_count} shards: warm probes allocated {allocations} times",
                blocker.name()
            );
            // The hoist's shared-symbol mask tables borrow nothing, so
            // `LeftHoist::recycle` parks them as they are: consecutive
            // probes whose part numbers differ in count and length (three
            // tables, none, one, two) still find their capacity.
            let (allocations, _) = measure_probe_sweep(&linker, &mut scratch, &varied);
            assert_eq!(
                allocations,
                0,
                "{} / {shard_count} shards: warm probes with varying value counts \
                 allocated {allocations} times",
                blocker.name()
            );
            assert_appended_shards_are_probed_warm(&linker, &mut scratch, &probes, &catalog);
        }
    }
}

#[test]
fn warm_probe_allocates_exactly_the_link_terms() {
    // Thresholds every score clears: each link costs exactly two
    // allocations — the external and local `Term` IRI clones — and
    // nothing else (the `Vec<Link>` itself reuses its capacity).
    let (external, _) = stores();
    let probes: Vec<Record> = (0..6).map(|e| external.record(e)).collect();
    let cmp = probe_comparator(0.0, 0.0);
    let standard = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 4));
    let bigram = BigramBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 0.3);
    // Windows wider than the 24-record catalog, so that the probes behind
    // an append reach into its 100-record shard.
    let sorted = SortedNeighborhoodBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 32);
    for shard_count in [1, 3] {
        let catalog = catalog(shard_count);
        for blocker in [&standard as &(dyn Blocker + Sync), &bigram, &sorted] {
            let linker = Linker::new(blocker, &cmp, catalog.clone());
            let mut scratch = ProbeScratch::new();
            let (allocations, links) = measure_probe_sweep(&linker, &mut scratch, &probes);
            assert!(links > 0, "{}: no links materialised", blocker.name());
            assert_eq!(
                allocations,
                2 * links as u64,
                "{} / {shard_count} shards: {links} links should cost exactly \
                 two term clones each, measured {allocations} allocations",
                blocker.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// The feed: bytes into columns.
// ---------------------------------------------------------------------

const FEED_NS: &str = "http://provider.e.org/v#";

/// `records` records of three literal triples each: N-Triples, or Turtle
/// with one statement a record and every predicate a prefixed name.
fn feed_document(format: FeedFormat, records: usize) -> String {
    let mut doc = String::new();
    if format == FeedFormat::Turtle {
        doc.push_str(&format!("@prefix v: <{FEED_NS}> .\n"));
    }
    for i in 0..records {
        let id = format!("http://provider.e.org/item/{i}");
        let values = [
            ("ref", format!("CRCW0805-{i:05}")),
            ("maker", "Vishay".to_string()),
            ("label", format!("10 kΩ film resistor {i}")),
        ];
        if format == FeedFormat::NTriples {
            for (property, value) in values {
                doc.push_str(&format!("<{id}> <{FEED_NS}{property}> \"{value}\" .\n"));
            }
        } else {
            let facts = values.map(|(property, value)| format!("v:{property} \"{value}\""));
            doc.push_str(&format!("<{id}> {} .\n", facts.join(" ; ")));
        }
    }
    doc
}

/// What feeding `records` records in 4 KiB chunks and handing back the
/// builder allocates, all in one shard.
fn feed_allocations(format: FeedFormat, records: usize) -> u64 {
    let doc = feed_document(format, records);
    let mut ingest = FeedIngest::new(format, SchemaInterner::new(), usize::MAX);
    let before = allocations();
    for chunk in doc.as_bytes().chunks(4096) {
        ingest.feed(chunk).unwrap();
    }
    let builder = ingest.into_builder().unwrap();
    let allocated = allocations() - before;
    assert_eq!(builder.len(), records);
    allocated
}

/// Doubling the records of a feed adds one allocation per added record
/// (its id) — in Turtle one more per prefixed predicate, three a record —
/// plus the amortised growth of the id list and the nine arrays of the
/// three columns. The values go into their columns without a copy of
/// their own. Measured: 1 010 more allocations in N-Triples, 4 010 in
/// Turtle.
#[test]
fn a_fed_record_costs_one_allocation() {
    const GROWTH: u64 = 32;
    for (format, per_record) in [(FeedFormat::NTriples, 1), (FeedFormat::Turtle, 4)] {
        let small = feed_allocations(format, 1000);
        let large = feed_allocations(format, 2000);
        assert!(
            large - small <= per_record * 1000 + GROWTH,
            "{format:?}: 1000 more records cost {} allocations ({small} → {large})",
            large - small
        );
    }
}
