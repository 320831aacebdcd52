//! The deterministic fault-injection (chaos) suite, compiled only with
//! `--features failpoints` (see `shims/fail`).
//!
//! Every test follows the same contract: arm a failpoint inside one of
//! the pipeline's failure domains, drive the public `try_*` entry
//! points, and assert three things —
//!
//! 1. **Containment**: the injected panic surfaces as the structured
//!    [`LinkError`] variant of its domain, within a watchdog timeout
//!    (never an abort, never a deadlock);
//! 2. **Service continuity**: a serving [`Linker`] keeps answering from
//!    the last good epoch through a failed republish;
//! 3. **Self-healing**: a clean run over the *same* stores/scratch after
//!    the fault is bit-identical (`f64::to_bits`) to a never-faulted
//!    baseline.
#![cfg(feature = "failpoints")]

use classilink_linking::blocking::{
    BigramBlocker, Blocker, BlockingKey, SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::pipeline::{Link, LinkagePipeline, LinkageResult};
use classilink_linking::record::Record;
use classilink_linking::{
    FeedFormat, FeedIngest, LinkError, Linker, ProbeHits, ProbeScratch, RecordComparator,
    RecordStore, SchemaInterner, ShardedStore, ShardedStoreBuilder, SimilarityMeasure,
};
use classilink_rdf::Term;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

mod common;
use common::{quiet_injected_panics, serial, Armed};

const EXT_PN: &str = "http://provider.example.org/vocab#partNumber";
const LOC_PN: &str = "http://catalog.example.org/vocab#partNumber";
const SHARDS: usize = 3;
/// Externals × locals share a common 3-char key prefix ("pn-"), so a
/// prefix-3 standard key yields 40 × 48 = 1920 candidates — above the
/// pipeline's `STEAL_BLOCK` (1024), which is what routes `threads: 4`
/// runs through the work-stealing scheduler.
const EXTERNALS: usize = 40;
const LOCALS: usize = 48;
/// Generous bound: a contained fault returns in milliseconds; only an
/// abort or deadlock (what the suite exists to rule out) would hit it.
const WATCHDOG: Duration = Duration::from_secs(120);

fn external_record(i: usize) -> Record {
    let mut record = Record::new(Term::iri(format!("http://provider.example.org/item/{i}")));
    record.add(EXT_PN, format!("PN-{:02}X", i % 8));
    record
}

fn local_record(i: usize) -> Record {
    let mut record = Record::new(Term::iri(format!("http://catalog.example.org/prod/{i}")));
    record.add(LOC_PN, format!("PN-{:02}X", i % 8));
    record
}

/// The shared chaos dataset, in `Arc`s so watchdogged runs can move
/// clones onto detached threads.
fn dataset() -> (Arc<RecordStore>, Arc<ShardedStore>) {
    static DATA: OnceLock<(Arc<RecordStore>, Arc<ShardedStore>)> = OnceLock::new();
    DATA.get_or_init(|| {
        let externals: Vec<Record> = (0..EXTERNALS).map(external_record).collect();
        let locals: Vec<Record> = (0..LOCALS).map(local_record).collect();
        (
            Arc::new(RecordStore::from_records(&externals)),
            Arc::new(ShardedStore::from_records(&locals, SHARDS)),
        )
    })
    .clone()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum BlockerKind {
    Standard,
    Bigram,
}

impl BlockerKind {
    fn build(self) -> Box<dyn Blocker + Sync> {
        let key = BlockingKey::per_side(EXT_PN, LOC_PN, 3);
        match self {
            BlockerKind::Standard => Box::new(StandardBlocker::new(key)),
            BlockerKind::Bigram => Box::new(BigramBlocker::new(
                BlockingKey::per_side(EXT_PN, LOC_PN, 0),
                0.5,
            )),
        }
    }

    fn site(self) -> &'static str {
        match self {
            BlockerKind::Standard => "blocking::standard",
            BlockerKind::Bigram => "blocking::bigram",
        }
    }
}

fn comparator() -> RecordComparator {
    RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::JaroWinkler)
        .with_thresholds(0.95, 0.5)
}

/// Run `try_run_sharded` on a detached thread under the watchdog: a
/// contained fault must *return*, not hang or abort.
fn watchdog_run(kind: BlockerKind, threads: usize) -> Result<LinkageResult, LinkError> {
    let (external, local) = dataset();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let blocker = kind.build();
        let cmp = comparator();
        let result = LinkagePipeline::new(blocker.as_ref(), &cmp)
            .with_threads(threads)
            .try_run_sharded(&external, &*local);
        let _ = tx.send(result);
    });
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("watchdog: {kind:?} x{threads} neither returned nor errored"))
}

fn assert_bit_identical(a: &LinkageResult, b: &LinkageResult, context: &str) {
    assert_eq!(a.comparisons, b.comparisons, "{context}: comparisons");
    for (kind, left, right) in [
        ("matches", &a.matches, &b.matches),
        ("possible", &a.possible, &b.possible),
    ] {
        assert_eq!(left.len(), right.len(), "{context}: {kind} count");
        for (l, r) in left.iter().zip(right.iter()) {
            assert_eq!(l.external, r.external, "{context}: {kind} external");
            assert_eq!(l.local, r.local, "{context}: {kind} local");
            assert_eq!(
                l.score.to_bits(),
                r.score.to_bits(),
                "{context}: {kind} score bits"
            );
        }
    }
}

fn assert_hits_bit_identical(a: &ProbeHits, b: &ProbeHits, context: &str) {
    let links = |side: &[Link]| -> Vec<(Term, Term, u64)> {
        side.iter()
            .map(|l| (l.external.clone(), l.local.clone(), l.score.to_bits()))
            .collect()
    };
    assert_eq!(links(&a.matches), links(&b.matches), "{context}: matches");
    assert_eq!(
        links(&a.possible),
        links(&b.possible),
        "{context}: possible"
    );
    assert_eq!(a.comparisons, b.comparisons, "{context}: comparisons");
}

/// The tentpole sweep: every batch-path site × both blockers × serial
/// and work-stealing scoring. Each combination must (a) return the
/// domain's structured error under the watchdog and (b) leave the shared
/// stores in a state where a clean re-run is bit-identical to the
/// never-faulted baseline.
#[test]
fn batch_sites_contain_panics_and_heal() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    for kind in [BlockerKind::Standard, BlockerKind::Bigram] {
        for threads in [1usize, 4] {
            let baseline = watchdog_run(kind, threads).expect("unfaulted baseline");
            assert!(
                baseline.comparisons as usize >= 1024,
                "dataset must exercise the stealing path ({} candidates)",
                baseline.comparisons
            );
            // (site, hit pattern): blocking sites fault mid-stream on
            // the 11th probe; the scoring site faults on its first claim.
            let cases = [
                (kind.site(), "10*off->panic(chaos in blocking)"),
                ("pipeline::score_range", "panic(chaos in scoring)"),
            ];
            for (site, actions) in cases {
                let armed = Armed::new(site, actions);
                let error =
                    watchdog_run(kind, threads).expect_err("injected fault must surface as Err");
                match (site, &error) {
                    (s, LinkError::BlockingPanicked { blocker, payload }) if s == kind.site() => {
                        assert_eq!(blocker, kind.build().name());
                        assert!(payload.contains("chaos in blocking"), "{payload}");
                    }
                    ("pipeline::score_range", LinkError::WorkerPanicked { payload, .. }) => {
                        assert!(payload.contains("chaos in scoring"), "{payload}");
                    }
                    other => panic!("{kind:?} x{threads} at {site}: wrong error {other:?}"),
                }
                drop(armed);
                let healed = watchdog_run(kind, threads).expect("clean re-run after fault");
                assert_bit_identical(
                    &healed,
                    &baseline,
                    &format!("{kind:?} x{threads} after {site}"),
                );
            }
        }
    }
}

/// A single store linked as a one-shard view: same containment contract
/// as a sharded catalog.
#[test]
fn single_store_runs_contain_panics_and_heal() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let locals: Vec<Record> = (0..LOCALS).map(local_record).collect();
    let local = RecordStore::from_records(&locals);
    let (external, _) = dataset();
    let blocker = BlockerKind::Standard.build();
    let cmp = comparator();
    let pipeline = LinkagePipeline::new(blocker.as_ref(), &cmp).with_threads(4);
    let baseline = pipeline
        .try_run_sharded(&external, &local)
        .expect("unfaulted baseline");
    let armed = Armed::new("pipeline::score_range", "1*off->panic(chaos single)->off");
    let error = pipeline.try_run_sharded(&external, &local).unwrap_err();
    assert!(
        matches!(error, LinkError::WorkerPanicked { .. }),
        "{error:?}"
    );
    drop(armed);
    let healed = pipeline
        .try_run_sharded(&external, &local)
        .expect("clean re-run");
    assert_bit_identical(&healed, &baseline, "single store after score fault");
}

/// Work-stealing diagnostics: with one counted panic, exactly one worker
/// dies; the error reports the surviving workers and the links they
/// drained from the remaining blocks.
#[test]
fn surviving_workers_drain_and_report() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let threads = 4;
    let baseline = watchdog_run(BlockerKind::Standard, threads).expect("baseline");
    let armed = Armed::new("pipeline::score_range", "1*panic(chaos first claim)->off");
    let error = watchdog_run(BlockerKind::Standard, threads).unwrap_err();
    let LinkError::WorkerPanicked {
        worker,
        payload,
        survivors,
        partial_links,
    } = &error
    else {
        panic!("wrong error: {error:?}");
    };
    assert!(*worker < threads);
    assert!(payload.contains("chaos first claim"), "{payload}");
    assert_eq!(
        *survivors,
        threads - 1,
        "exactly one counted panic, so every other worker must finish"
    );
    // The dataset links every record to its key group: the survivors
    // must have drained real work, not bailed out.
    assert!(
        *partial_links > 0,
        "survivors drained no links at all: {error}"
    );
    assert!(*partial_links <= baseline.matches.len() + baseline.possible.len());
    drop(armed);
    let healed = watchdog_run(BlockerKind::Standard, threads).expect("clean re-run");
    assert_bit_identical(&healed, &baseline, "after worker panic");
}

/// Deterministic Nth-hit triggers: serial scoring calls `score_range`
/// exactly once per shard queue, so `2*off->1*panic->off` faults
/// precisely the third (last) shard — and the very next run finds the
/// sequence consumed and completes cleanly *without disarming the site*.
#[test]
fn nth_hit_trigger_is_deterministic_and_consumed() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let baseline = watchdog_run(BlockerKind::Standard, 1).expect("baseline");
    let _armed = Armed::new("pipeline::score_range", "2*off->1*panic(chaos 3rd)->off");
    let error = watchdog_run(BlockerKind::Standard, 1).unwrap_err();
    let LinkError::WorkerPanicked {
        partial_links,
        payload,
        ..
    } = &error
    else {
        panic!("wrong error: {error:?}");
    };
    assert!(payload.contains("chaos 3rd"), "{payload}");
    // Serial scoring claims whole queues in shard order: two full
    // shard ranges scored before the third call died.
    assert!(*partial_links > 0, "two shards scored before the fault");
    // Still armed, but the 1-hit panic step is consumed: clean and
    // bit-identical without touching the registry.
    let healed = watchdog_run(BlockerKind::Standard, 1).expect("consumed trigger");
    assert_bit_identical(&healed, &baseline, "after consumed Nth-hit trigger");
}

/// Shard columnarisation: the worker that hits the fault reports it,
/// the others finish their shards, and rebuilding from the same records
/// matches a sequential, never-faulted build.
#[test]
fn shard_build_contains_panics() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let locals: Vec<Record> = (0..LOCALS).map(local_record).collect();
    let build = |records: &[Record]| {
        let mut builder = ShardedStoreBuilder::default();
        let chunk = records.len().div_ceil(SHARDS).max(1);
        for shard in records.chunks(chunk) {
            builder.begin_shard();
            for record in shard {
                builder.push(record);
            }
        }
        builder
    };
    let baseline = build(&locals).build();
    let armed = Armed::new("shard::columnarise", "1*off->1*panic(chaos shard)->off");
    let error = build(&locals).try_build_with_workers(2).unwrap_err();
    let LinkError::ShardBuildPanicked { shard, payload } = &error else {
        panic!("wrong error: {error:?}");
    };
    assert!(*shard < SHARDS);
    assert!(payload.contains("chaos shard"), "{payload}");
    drop(armed);
    let rebuilt = build(&locals)
        .try_build_with_workers(2)
        .expect("clean rebuild");
    assert_eq!(rebuilt.shard_count(), baseline.shard_count());
    assert_eq!(rebuilt.len(), baseline.len());
    for s in 0..SHARDS {
        assert_eq!(rebuilt.shard(s), baseline.shard(s), "shard {s}");
        assert_eq!(rebuilt.offset(s), baseline.offset(s), "offset {s}");
    }
}

/// Serving: a republish that panics mid-build returns
/// [`LinkError::EpochBuildPanicked`], the pre-swap epoch keeps
/// answering bit-identically, the sequence does not advance, and the
/// next successful swap continues the monotonic sequence.
#[test]
fn failed_republish_keeps_serving_last_good_epoch() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let (_, catalog_a) = dataset();
    let grown: Vec<Record> = (0..LOCALS + 8).map(local_record).collect();
    let catalog_b = ShardedStore::from_records(&grown, SHARDS);
    let blocker = BlockerKind::Standard.build();
    let cmp = comparator();
    let linker = Linker::new(blocker.as_ref(), &cmp, (*catalog_a).clone());
    let mut scratch = ProbeScratch::new();
    let probe = external_record(7);

    let baseline = clone_hits(linker.probe_with(&probe, &mut scratch));
    assert_eq!(baseline.epoch, 1);

    for (site, actions, expect_injected) in [
        ("serve::build_epoch", "panic(chaos epoch build)", false),
        ("serve::build_epoch", "return(chaos injected error)", true),
        ("serve::warm", "panic(chaos warm)", false),
    ] {
        let armed = Armed::new(site, actions);
        let error = linker.try_swap(catalog_b.clone()).unwrap_err();
        match (&error, expect_injected) {
            (LinkError::Injected { site: at, message }, true) => {
                assert_eq!(at, site);
                assert!(message.contains("chaos injected error"), "{message}");
            }
            (LinkError::EpochBuildPanicked { payload }, false) => {
                assert!(payload.contains("chaos"), "{payload}");
            }
            other => panic!("{site}: wrong error {other:?}"),
        }
        drop(armed);
        // The failed republish left the old epoch serving, answers
        // bit-identical, sequence unmoved.
        assert_eq!(linker.catalog().load().sequence(), 1, "{site}");
        let after = linker.probe_with(&probe, &mut scratch);
        assert_hits_bit_identical(after, &baseline, &format!("serving across failed {site}"));
    }

    // Failed swaps left no gap: the next success is simply epoch 2.
    let sequence = linker.try_swap(catalog_b.clone()).expect("clean swap");
    assert_eq!(sequence, 2);
    let hits = linker.probe_with(&probe, &mut scratch);
    assert_eq!(hits.epoch, 2);
}

/// Probe-path faults: refill and mid-stream blocking panics surface as
/// [`LinkError::ProbePanicked`], and the *same scratch* heals — the next
/// probe is bit-identical to the pre-fault baseline.
#[test]
fn probe_scratch_heals_after_probe_faults() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let (_, catalog) = dataset();
    let blocker = BlockerKind::Standard.build();
    let cmp = comparator();
    let linker = Linker::new(blocker.as_ref(), &cmp, (*catalog).clone());
    let mut scratch = ProbeScratch::new();
    let probe = external_record(3);
    let baseline = clone_hits(linker.probe_with(&probe, &mut scratch));

    for (site, actions) in [
        ("store::refill_single", "1*panic(chaos refill)->off"),
        // 1*off: the warm-up probe below already consumed... no — armed
        // fresh each loop; fault the very first blocking hit, leaving
        // the sink's previous contents from the baseline probe.
        ("blocking::standard", "1*panic(chaos probe stream)->off"),
    ] {
        let _armed = Armed::new(site, actions);
        let error = linker.try_probe_with(&probe, &mut scratch).unwrap_err();
        let LinkError::ProbePanicked { payload } = &error else {
            panic!("{site}: wrong error {error:?}");
        };
        assert!(payload.contains("chaos"), "{payload}");
        // Counted trigger consumed; same scratch, clean probe.
        let healed = linker
            .try_probe_with(&probe, &mut scratch)
            .expect("healed probe");
        assert_hits_bit_identical(healed, &baseline, &format!("scratch reuse after {site}"));
    }
}

/// The infallible wrappers keep their historical contract: they panic,
/// with the structured error's message, instead of returning.
#[test]
fn infallible_wrappers_panic_with_structured_messages() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let (external, local) = dataset();
    let blocker = BlockerKind::Standard.build();
    let cmp = comparator();
    let _armed = Armed::new("blocking::standard", "panic(chaos wrapper)");
    let wrapped = catch_unwind(AssertUnwindSafe(|| {
        LinkagePipeline::new(blocker.as_ref(), &cmp).run_sharded(&external, &*local)
    }))
    .unwrap_err();
    let message = wrapped
        .downcast_ref::<String>()
        .expect("wrapper panics with the Display of LinkError");
    assert!(message.contains("blocking phase"), "{message}");
    assert!(message.contains("standard-blocking"), "{message}");
    assert!(message.contains("chaos wrapper"), "{message}");
}

/// Every other instrumented site, swept through the entry point that
/// reaches it, so the whole ~10-site map stays honest: arming any site
/// yields a structured `Err` (not an abort), and disarming restores
/// bit-identical behaviour.
#[test]
fn remaining_sites_all_contain() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let (external, local) = dataset();
    let cmp = comparator();

    // Cartesian + sorted-neighborhood + rule-based blockers, batch path.
    let cartesian = classilink_linking::CartesianBlocker;
    let sn = classilink_linking::SortedNeighborhoodBlocker::new(
        BlockingKey::per_side(EXT_PN, LOC_PN, 0),
        3,
    );
    let blockers: [(&str, &(dyn Blocker + Sync)); 2] = [
        ("blocking::cartesian", &cartesian),
        ("blocking::sorted_neighborhood", &sn),
    ];
    for (site, blocker) in blockers {
        let pipeline = LinkagePipeline::new(blocker, &cmp);
        let baseline = pipeline
            .try_run_sharded(&external, &*local)
            .expect("baseline");
        let armed = Armed::new(site, "panic(chaos sweep)");
        let error = pipeline.try_run_sharded(&external, &*local).unwrap_err();
        assert!(
            matches!(error, LinkError::BlockingPanicked { .. }),
            "{site}: {error:?}"
        );
        drop(armed);
        let healed = pipeline
            .try_run_sharded(&external, &*local)
            .expect("healed");
        assert_bit_identical(&healed, &baseline, site);
    }
}

/// Streaming ingest: a fault at a chunk boundary poisons the feed —
/// the error surfaces, every later `feed` is rejected, and nothing can
/// be published from the half-ingested stream. A fresh ingest over the
/// same bytes (same chunking) equals the batch build.
#[test]
fn mid_feed_fault_poisons_ingest_and_publishes_nothing() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let locals: Vec<Record> = (0..LOCALS).map(local_record).collect();
    let bytes: Vec<u8> = locals
        .iter()
        .enumerate()
        .map(|(i, _)| {
            format!(
                "<http://catalog.example.org/prod/{i}> <{LOC_PN}> \"PN-{:02}X\" .\n",
                i % 8
            )
        })
        .collect::<String>()
        .into_bytes();
    let per_shard = LOCALS.div_ceil(SHARDS);
    // Chunks split lines mid-statement on purpose.
    let chunks: Vec<&[u8]> = bytes.chunks(37).collect();

    for (actions, expect_injected) in [
        ("return(chaos feed)", true),
        ("panic(chaos feed panic)", false),
    ] {
        let mut ingest = FeedIngest::new(FeedFormat::NTriples, SchemaInterner::new(), per_shard);
        ingest.feed(chunks[0]).expect("clean first chunk");
        let before_fault = ingest.records();
        let armed = Armed::new("ingest::chunk", actions);
        let error = ingest.feed(chunks[1]).unwrap_err();
        match (&error, expect_injected) {
            (LinkError::Injected { site, message }, true) => {
                assert_eq!(site, "ingest::chunk");
                assert!(message.contains("chaos feed"), "{message}");
            }
            (LinkError::IngestFailed { payload }, false) => {
                assert!(payload.contains("chaos feed panic"), "{payload}");
            }
            other => panic!("{actions}: wrong error {other:?}"),
        }
        drop(armed);
        // Poisoned: the faulted chunk's work was abandoned whole, later
        // chunks are refused even with the site disarmed, and the
        // half-ingested stream can never publish a catalog.
        assert_eq!(ingest.records(), before_fault, "fault half-applied a chunk");
        let rejected = ingest.feed(chunks[2]).unwrap_err();
        assert!(
            matches!(&rejected, LinkError::IngestFailed { payload } if payload.contains("feed rejected")),
            "{rejected:?}"
        );
        let unpublished = ingest.try_finish().unwrap_err();
        assert!(
            matches!(&unpublished, LinkError::IngestFailed { payload } if payload.contains("nothing to publish")),
            "{unpublished:?}"
        );
    }

    // Self-healing: a fresh ingest of the same chunked bytes equals the
    // batch build record for record.
    let mut clean = FeedIngest::new(FeedFormat::NTriples, SchemaInterner::new(), per_shard);
    for chunk in &chunks {
        clean.feed(chunk).expect("clean chunk");
    }
    let streamed = clean.try_finish().expect("clean finish");
    assert_eq!(streamed, ShardedStore::from_records(&locals, SHARDS));
}

/// Catalog append: a fault inside `try_append_shards` surfaces as the
/// injected error and leaves the base catalog untouched; the retry over
/// a rebuilt delta succeeds.
#[test]
fn append_fault_leaves_base_catalog_untouched() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let (_, base) = dataset();
    let delta_records: Vec<Record> = (LOCALS..LOCALS + 6).map(local_record).collect();
    let delta = |base: &ShardedStore| {
        let mut builder = base.delta_builder();
        builder.begin_shard();
        for record in &delta_records {
            builder.push(record);
        }
        builder
    };

    let armed = Armed::new("shard::append", "return(chaos append)");
    let error = base.try_append_shards(delta(&base)).unwrap_err();
    let LinkError::Injected { site, message } = &error else {
        panic!("wrong error: {error:?}");
    };
    assert_eq!(site, "shard::append");
    assert!(message.contains("chaos append"), "{message}");
    assert_eq!(base.shard_count(), SHARDS, "failed append changed the base");
    assert_eq!(base.len(), LOCALS, "failed append changed the base");
    drop(armed);

    let appended = base
        .try_append_shards(delta(&base))
        .expect("clean append after fault");
    assert_eq!(appended.shard_count(), SHARDS + 1);
    assert_eq!(appended.len(), LOCALS + 6);
    assert_eq!(base.shard_count(), SHARDS);
    assert_eq!(base.len(), LOCALS);
}

/// Serving: a failed incremental [`Linker::try_append`] — injected
/// error, append fault, or a panic while warming the new shards — keeps
/// the old epoch serving bit-identically with the sequence unmoved, and
/// the next clean append publishes the grown catalog.
#[test]
fn failed_append_keeps_serving_last_good_epoch() {
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let (_, catalog) = dataset();
    let blocker = BlockerKind::Standard.build();
    let cmp = comparator();
    let linker = Linker::new(blocker.as_ref(), &cmp, (*catalog).clone());
    let mut scratch = ProbeScratch::new();
    let probe = external_record(7);
    let delta = |linker: &Linker| {
        let mut builder = linker.delta_builder();
        builder.begin_shard();
        for i in LOCALS..LOCALS + 8 {
            builder.push(&local_record(i));
        }
        builder
    };

    let baseline = clone_hits(linker.probe_with(&probe, &mut scratch));
    assert_eq!(baseline.epoch, 1);

    for (site, actions, expect_injected) in [
        ("serve::append", "return(chaos injected error)", true),
        ("shard::append", "return(chaos injected error)", true),
        ("serve::warm_append", "panic(chaos warm append)", false),
    ] {
        let armed = Armed::new(site, actions);
        let error = linker.try_append(delta(&linker)).unwrap_err();
        match (&error, expect_injected) {
            (LinkError::Injected { site: at, message }, true) => {
                assert_eq!(at, site);
                assert!(message.contains("chaos injected error"), "{message}");
            }
            (LinkError::EpochBuildPanicked { payload }, false) => {
                assert!(payload.contains("chaos warm append"), "{payload}");
            }
            other => panic!("{site}: wrong error {other:?}"),
        }
        drop(armed);
        // Old epoch still serving: sequence unmoved, probes answer
        // bit-identically, none of the would-be-appended records exist.
        assert_eq!(linker.catalog().load().sequence(), 1, "{site}");
        assert_eq!(linker.catalog().load().store().len(), LOCALS, "{site}");
        let after = linker.probe_with(&probe, &mut scratch);
        assert_hits_bit_identical(after, &baseline, &format!("serving across failed {site}"));
    }

    // The clean append continues the sequence and the probe now reaches
    // the appended shard: local 55 (55 % 8 == 7) is an exact PN match.
    let sequence = linker.try_append(delta(&linker)).expect("clean append");
    assert_eq!(sequence, 2);
    let hits = linker.probe_with(&probe, &mut scratch);
    assert_eq!(hits.epoch, 2);
    assert_eq!(
        hits.matches.len(),
        baseline.matches.len() + 1,
        "appended exact match must join the hit set"
    );
    assert!(
        hits.matches
            .iter()
            .any(|l| l.local == Term::iri("http://catalog.example.org/prod/55")),
        "probe must see the appended record"
    );
}

/// The sorted-neighbourhood catalog ladder: a panic inside its merge — on
/// a fresh catalog, on an appended one whose ladder starts from its
/// parent's, and while a serving append warms it — surfaces as the
/// domain's structured error, leaves the cache as it was (nothing
/// half-merged is ever served, no lock stays poisoned), and a clean retry
/// is bit-identical to a never-faulted run.
#[test]
fn a_panicked_ladder_build_leaves_no_cache_behind() {
    const LADDER: &str = "blocking::sorted_neighborhood::ladder";
    let _serial = serial();
    quiet_injected_panics();
    fail::teardown();
    let (external, _) = dataset();
    let locals: Vec<Record> = (0..LOCALS).map(local_record).collect();
    let catalog = || ShardedStore::from_records(&locals, SHARDS);
    let delta = |builder: &mut ShardedStoreBuilder| {
        builder.begin_shard();
        for i in LOCALS..LOCALS + 8 {
            builder.push(&local_record(i));
        }
    };
    let grow = |base: &ShardedStore| {
        let mut builder = base.delta_builder();
        delta(&mut builder);
        base.append_shards(builder)
    };
    let sn = SortedNeighborhoodBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 0), 4);
    let cmp = comparator();
    let pipeline = LinkagePipeline::new(&sn, &cmp);
    let run = |local: &ShardedStore, first_new: usize| {
        pipeline.try_run_sharded_delta(&external, local, first_new)
    };
    let baseline = run(&catalog(), 0).expect("baseline");
    let grown_baseline = run(&grow(&catalog()), 0).expect("baseline");
    let delta_baseline = run(&grow(&catalog()), SHARDS).expect("baseline");
    assert!(delta_baseline.comparisons > 0, "the delta must be linked");
    let assert_ladder_panic = |error: LinkError, context: &str| match error {
        LinkError::BlockingPanicked { payload, .. } => {
            assert!(
                payload.contains("chaos in the ladder"),
                "{context}: {payload}"
            )
        }
        other => panic!("{context}: wrong error {other:?}"),
    };

    // A fresh catalog, faulted as its second shard merges in.
    let fresh = catalog();
    let armed = Armed::new(LADDER, "1*off->panic(chaos in the ladder)");
    assert_ladder_panic(run(&fresh, 0).unwrap_err(), "fresh catalog");
    drop(armed);
    let healed = run(&fresh, 0).expect("clean retry");
    assert_bit_identical(&healed, &baseline, "fresh catalog after a ladder fault");

    // An appended catalog, seeded with the ladder the retry built.
    let appended = grow(&fresh);
    let armed = Armed::new(LADDER, "panic(chaos in the ladder)");
    assert_ladder_panic(run(&appended, SHARDS).unwrap_err(), "appended catalog");
    drop(armed);
    let healed = run(&appended, SHARDS).expect("clean retry");
    assert_bit_identical(&healed, &delta_baseline, "delta after a ladder fault");
    let healed = run(&appended, 0).expect("clean retry");
    assert_bit_identical(
        &healed,
        &grown_baseline,
        "appended catalog after a ladder fault",
    );

    // Serving: the append's warm faults, the last good epoch keeps
    // serving, and the clean append probes like the batch run.
    let linker = Linker::new(&sn, &cmp, catalog());
    let mut scratch = ProbeScratch::new();
    let probe = external_record(7);
    let before = clone_hits(linker.probe_with(&probe, &mut scratch));
    let armed = Armed::new(LADDER, "panic(chaos warm ladder)");
    let mut builder = linker.delta_builder();
    delta(&mut builder);
    match linker.try_append(builder).unwrap_err() {
        LinkError::EpochBuildPanicked { payload } => {
            assert!(payload.contains("chaos warm ladder"), "{payload}")
        }
        other => panic!("serving append: wrong error {other:?}"),
    }
    drop(armed);
    let after = linker.probe_with(&probe, &mut scratch);
    assert_hits_bit_identical(after, &before, "serving across a failed ladder warm");
    let mut builder = linker.delta_builder();
    delta(&mut builder);
    assert_eq!(linker.try_append(builder).expect("clean append"), 2);
    let hits = linker.probe_with(&probe, &mut scratch);
    let expected = grown_baseline
        .matches
        .iter()
        .filter(|l| l.external == probe.id);
    // Local 55 (55 % 8 == 7) ties the probe's part number and, having the
    // highest id of its value, is the nearest local below it.
    let appended_match = Term::iri("http://catalog.example.org/prod/55");
    assert!(hits.matches.iter().any(|l| l.local == appended_match));
    assert!(
        hits.matches.iter().eq(expected),
        "probe behind the healed append"
    );
}

fn clone_hits(hits: &ProbeHits) -> ProbeHits {
    ProbeHits {
        matches: hits.matches.clone(),
        possible: hits.possible.clone(),
        comparisons: hits.comparisons,
        epoch: hits.epoch,
    }
}
