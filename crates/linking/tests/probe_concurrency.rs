//! The serving-layer concurrency guard: reader threads hammer
//! [`Linker::probe_with`] while a writer thread swaps in a sequence of
//! grown catalogs. Every probe must return a link set that is *exactly*
//! correct for the epoch it reports (precomputed per epoch via the
//! batch pipeline) — never a blend of two catalogs — and once the final
//! swap is published, a fresh probe must see the records added last.
//!
//! Epoch swaps are atomic `Arc` publications, so a torn read would
//! manifest here as a link set matching no precomputed epoch.

use classilink_linking::blocking::{BigramBlocker, Blocker, BlockingKey, StandardBlocker};
use classilink_linking::pipeline::{Link, LinkagePipeline};
use classilink_linking::record::Record;
use classilink_linking::{
    Linker, ProbeScratch, RecordComparator, RecordStore, ShardedStore, SimilarityMeasure,
};
use classilink_rdf::Term;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

mod common;
use common::serial;

const READERS: usize = 4;
const SWAPS: usize = 8;
const BASE_LOCALS: usize = 24;
const GROWTH_STEP: usize = 8;
const SHARDS: usize = 3;

const PROBE_PN: &str = "http://probe.example.org/vocab#partNumber";
const LOCAL_PN: &str = "http://catalog.example.org/vocab#partNumber";

fn local_record(i: usize) -> Record {
    let mut record = Record::new(Term::iri(format!("http://catalog.example.org/prod/{i}")));
    record.add(LOCAL_PN, format!("{i:04}-PN"));
    record
}

fn probe_record(local: usize) -> Record {
    let mut record = Record::new(Term::iri(format!("http://probe.example.org/item/{local}")));
    record.add(PROBE_PN, format!("{local:04}-PN"));
    record
}

/// Catalog for epoch `t` (t = 0 is the pre-swap catalog): the base
/// locals plus `t` growth steps.
fn catalog_records(t: usize) -> Vec<Record> {
    (0..BASE_LOCALS + t * GROWTH_STEP)
        .map(local_record)
        .collect()
}

fn assert_links_bit_identical(probe: &[Link], expected: &[Link], context: &str) {
    assert_eq!(probe.len(), expected.len(), "{context}: link count");
    for (p, e) in probe.iter().zip(expected) {
        assert_eq!(p.external, e.external, "{context}: external term");
        assert_eq!(p.local, e.local, "{context}: local term");
        assert_eq!(
            p.score.to_bits(),
            e.score.to_bits(),
            "{context}: score bits"
        );
    }
}

/// Readers probe continuously while the writer publishes `SWAPS` grown
/// catalogs; every probe is checked against the batch-pipeline answer
/// for the exact epoch it reports.
fn stress(blocker: &(dyn Blocker + Sync)) {
    let cmp = RecordComparator::single(PROBE_PN, LOCAL_PN, SimilarityMeasure::JaroWinkler)
        .with_thresholds(0.95, 0.5);

    // Probe 0 matches a base local; probe j (1..=SWAPS) matches the last
    // local added by swap j, so its link set flips from empty to
    // non-empty at epoch j + 1 — a probe served from a stale or torn
    // catalog cannot satisfy the per-epoch expectation by accident.
    let probes: Vec<Record> = std::iter::once(probe_record(0))
        .chain((1..=SWAPS).map(|j| probe_record(BASE_LOCALS + j * GROWTH_STEP - 1)))
        .collect();
    let probe_store = RecordStore::from_records(&probes);

    let catalogs: Vec<ShardedStore> = (0..=SWAPS)
        .map(|t| ShardedStore::from_records(&catalog_records(t), SHARDS))
        .collect();

    // expected[t][j]: the matches for probe j against catalog t, via the
    // batch pipeline the probe path is pinned to.
    let expected: Vec<Vec<Vec<Link>>> = catalogs
        .iter()
        .map(|catalog| {
            let batch = LinkagePipeline::new(blocker, &cmp).run_sharded(&probe_store, catalog);
            probes
                .iter()
                .map(|probe| {
                    batch
                        .matches
                        .iter()
                        .filter(|link| link.external == probe.id)
                        .cloned()
                        .collect()
                })
                .collect()
        })
        .collect();
    for (j, (start, end)) in expected[0].iter().zip(&expected[SWAPS]).enumerate().skip(1) {
        assert!(start.is_empty(), "probe {j} must start unmatched");
        assert!(!end.is_empty(), "probe {j} must end matched");
    }

    let linker = Linker::new(blocker, &cmp, catalogs[0].clone());
    let warmed = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let final_epoch = (SWAPS + 1) as u64;

    thread::scope(|scope| {
        for reader in 0..READERS {
            let (linker, probes, expected) = (&linker, &probes, &expected);
            let (warmed, done) = (&warmed, &done);
            scope.spawn(move || {
                let mut scratch = ProbeScratch::new();
                let mut observed = BTreeSet::new();
                for iteration in 0usize.. {
                    let j = (reader + iteration) % probes.len();
                    let hits = linker.probe_with(&probes[j], &mut scratch);
                    let t = usize::try_from(hits.epoch).unwrap() - 1;
                    assert!(
                        t <= SWAPS,
                        "reader {reader}: epoch {} out of range",
                        hits.epoch
                    );
                    assert_links_bit_identical(
                        &hits.matches,
                        &expected[t][j],
                        &format!("reader {reader}, probe {j}, epoch {}", hits.epoch),
                    );
                    observed.insert(hits.epoch);
                    if iteration == 0 {
                        warmed.fetch_add(1, Ordering::SeqCst);
                    }
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                }
                // The final swap is published: a fresh probe must run
                // against the last catalog and see its newest record.
                let j = probes.len() - 1;
                let hits = linker.probe_with(&probes[j], &mut scratch);
                assert_eq!(hits.epoch, final_epoch, "reader {reader}: final epoch");
                assert_links_bit_identical(
                    &hits.matches,
                    &expected[SWAPS][j],
                    &format!("reader {reader}: final probe"),
                );
                observed
            });
        }

        // Writer: wait until every reader has probed the initial epoch at
        // least once, then publish each grown catalog in order.
        while warmed.load(Ordering::SeqCst) < READERS {
            thread::yield_now();
        }
        for (t, catalog) in catalogs.iter().enumerate().skip(1) {
            let sequence = linker.swap(catalog.clone());
            assert_eq!(sequence as usize, t + 1, "swap sequence");
            thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::SeqCst);
    });

    assert_eq!(linker.catalog().load().sequence(), final_epoch);
}

#[test]
fn concurrent_probes_see_consistent_epochs_standard() {
    let _serial = serial();
    let blocker = StandardBlocker::new(BlockingKey::per_side(PROBE_PN, LOCAL_PN, 4));
    stress(&blocker);
}

#[test]
fn concurrent_probes_see_consistent_epochs_bigram() {
    let _serial = serial();
    let blocker = BigramBlocker::new(BlockingKey::per_side(PROBE_PN, LOCAL_PN, 0), 0.6);
    stress(&blocker);
}

/// Chaos variant (failpoint builds only): the writer's first republish
/// panics mid-`build_epoch` while 4 readers hammer `probe_with`. The
/// readers must never observe a poisoned lock (`probe_with` would
/// panic), a partial epoch (their links are checked against the exact
/// epoch they report), or a sequence regression; the writer's retry then
/// publishes epoch 2 with no gap.
#[cfg(feature = "failpoints")]
#[test]
fn readers_survive_a_panicked_swap() {
    use classilink_linking::LinkError;

    let _serial = serial();
    fail::teardown();
    let cmp = RecordComparator::single(PROBE_PN, LOCAL_PN, SimilarityMeasure::JaroWinkler)
        .with_thresholds(0.95, 0.5);
    let blocker = StandardBlocker::new(BlockingKey::per_side(PROBE_PN, LOCAL_PN, 4));
    let catalogs: Vec<ShardedStore> = (0..2)
        .map(|t| ShardedStore::from_records(&catalog_records(t), SHARDS))
        .collect();
    // Probe 0 matches in both epochs; the growth probe flips from
    // unmatched to matched at epoch 2 — a torn or stale answer cannot
    // satisfy its reported epoch's expectation.
    let probes: Vec<Record> = vec![probe_record(0), probe_record(BASE_LOCALS + GROWTH_STEP - 1)];
    let probe_store = RecordStore::from_records(&probes);
    let expected: Vec<Vec<Vec<Link>>> = catalogs
        .iter()
        .map(|catalog| {
            let batch = LinkagePipeline::new(&blocker, &cmp).run_sharded(&probe_store, catalog);
            probes
                .iter()
                .map(|probe| {
                    batch
                        .matches
                        .iter()
                        .filter(|link| link.external == probe.id)
                        .cloned()
                        .collect()
                })
                .collect()
        })
        .collect();

    let linker = Linker::new(&blocker, &cmp, catalogs[0].clone());
    let warmed = AtomicUsize::new(0);
    let done = AtomicBool::new(false);

    thread::scope(|scope| {
        for reader in 0..READERS {
            let (linker, probes, expected) = (&linker, &probes, &expected);
            let (warmed, done) = (&warmed, &done);
            scope.spawn(move || {
                let mut scratch = ProbeScratch::new();
                let mut last_epoch = 0u64;
                for iteration in 0usize.. {
                    let j = (reader + iteration) % probes.len();
                    // A poisoned catalog lock or partial epoch would
                    // panic (or mis-answer) right here.
                    let hits = linker.probe_with(&probes[j], &mut scratch);
                    assert!(
                        hits.epoch >= last_epoch,
                        "reader {reader}: sequence regressed {last_epoch} -> {}",
                        hits.epoch
                    );
                    assert!(hits.epoch <= 2, "reader {reader}: epoch out of range");
                    last_epoch = hits.epoch;
                    let t = usize::try_from(hits.epoch).unwrap() - 1;
                    assert_links_bit_identical(
                        &hits.matches,
                        &expected[t][j],
                        &format!("reader {reader}, probe {j}, epoch {}", hits.epoch),
                    );
                    if iteration == 0 {
                        warmed.fetch_add(1, Ordering::SeqCst);
                    }
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                }
            });
        }

        while warmed.load(Ordering::SeqCst) < READERS {
            thread::yield_now();
        }
        // First republish dies mid-build; old epoch keeps serving.
        fail::cfg("serve::build_epoch", "1*panic(chaos mid-swap)->off").unwrap();
        let error = linker.try_swap(catalogs[1].clone()).unwrap_err();
        assert!(
            matches!(error, LinkError::EpochBuildPanicked { .. }),
            "{error:?}"
        );
        assert_eq!(
            linker.catalog().load().sequence(),
            1,
            "failed swap must not publish"
        );
        // Let the readers hammer the surviving epoch for a while before
        // the (now disarmed) retry succeeds with no sequence gap.
        thread::sleep(Duration::from_millis(5));
        fail::remove("serve::build_epoch");
        let sequence = linker.try_swap(catalogs[1].clone()).expect("retry swap");
        assert_eq!(sequence, 2);
        thread::sleep(Duration::from_millis(5));
        done.store(true, Ordering::SeqCst);
    });

    let mut scratch = ProbeScratch::new();
    let hits = linker.probe_with(&probes[1], &mut scratch);
    assert_eq!(hits.epoch, 2);
    assert_links_bit_identical(&hits.matches, &expected[1][1], "post-retry probe");
    assert!(
        !hits.matches.is_empty(),
        "growth probe must match in epoch 2"
    );
}
