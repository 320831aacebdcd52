//! Fault-injection chaos suite for the persistence layer, compiled only
//! with `--features failpoints` (see `shims/fail`).
//!
//! Each test arms one of the persistence failpoint sites —
//! `persist::serialize_shard` (fault while flattening a shard),
//! `persist::write_shard` (I/O fault on one data file),
//! `persist::commit_manifest` (crash at the commit point itself),
//! `persist::load_shard` (corrupt-on-read during restore) — and asserts
//! the crash-safety contract around it:
//!
//! 1. **The commit point holds**: any fault before the manifest rename
//!    leaves the previous generation the directory's restart point, and
//!    a subsequent [`CatalogSnapshot::open`] restores it bit-identically
//!    (store equality is structural over every column byte).
//! 2. **No debris**: files a failed spill left behind (data files, the
//!    temp manifest) are swept by the next open.
//! 3. **The loader never panics and never serves a half-loaded
//!    catalog**: injected load faults discard the generation as a whole
//!    and fall back, exactly like real corruption; when every generation
//!    is poisoned, open fails with a structured error.
#![cfg(feature = "failpoints")]

use classilink_linking::blocking::{BlockingKey, StandardBlocker};
use classilink_linking::record::Record;
use classilink_linking::{
    AttributeRule, CatalogSnapshot, LinkError, Linker, PersistError, ProbeScratch,
    RecordComparator, ShardedStore, SimilarityMeasure,
};
use classilink_rdf::Term;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

mod common;
use common::{fresh_dir, quiet_injected_panics, serial, Armed};

const EXT_PN: &str = "http://provider.example.org/vocab#partNumber";
const LOC_PN: &str = "http://catalog.example.org/vocab#partNumber";

fn local_record(i: usize) -> Record {
    let mut record = Record::new(Term::iri(format!("http://catalog.example.org/prod/{i}")));
    record.add(LOC_PN, format!("PN-{:02}X", i % 8));
    record
}

/// A 3-shard base catalog and the same catalog grown by two appended
/// shards — snapshotting both gives the two-generation fixture.
fn base_and_appended() -> (ShardedStore, ShardedStore) {
    let records: Vec<Record> = (0..48).map(local_record).collect();
    let base = ShardedStore::from_records(&records, 3);
    let mut delta = base.delta_builder();
    for (i, record) in (48..60).map(local_record).enumerate() {
        if i % 6 == 0 {
            delta.begin_shard();
        }
        delta.push(&record);
    }
    (base.clone(), base.append_shards(delta))
}

/// After a contained spill fault, the directory must still restore the
/// base catalog cleanly (and the re-open after the sweep is pristine).
fn assert_restart_point_is_base(dir: &PathBuf, base: &ShardedStore, context: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::open(dir)))
        .unwrap_or_else(|_| panic!("{context}: the loader panicked"));
    let (loaded, report) = outcome.unwrap_or_else(|e| panic!("{context}: restart point lost: {e}"));
    assert_eq!(&loaded, base, "{context}: wrong catalog restored");
    assert_eq!(report.generation, 1, "{context}");
}

#[test]
fn injected_write_fault_leaves_the_previous_generation_intact() {
    let _guard = serial();
    let (base, appended) = base_and_appended();
    let dir = fresh_dir("write_shard");
    CatalogSnapshot::write(&dir, &base).expect("snapshot base");

    // Call 1 is the schema file, calls 2–4 the (reused) base shards,
    // call 5 the first appended shard, call 6 the second: failing call 6
    // leaves call 5's freshly-spilled shard file orphaned on disk.
    let armed = Armed::new("persist::write_shard", "5*off->1*return(disk full)->off");
    let error = CatalogSnapshot::write(&dir, &appended).expect_err("injected write fault");
    match &error {
        PersistError::Io { op, source, .. } => {
            assert!(op.contains("injected"), "{op}");
            assert!(source.to_string().contains("disk full"), "{source}");
        }
        other => panic!("expected an injected Io error, got {other:?}"),
    }
    drop(armed);

    // No second manifest was committed; the orphaned shard is swept.
    assert!(!dir.join("MANIFEST-00000002").exists());
    let (_, report) = CatalogSnapshot::open(&dir).expect("restart");
    assert!(
        report.swept.iter().any(|name| name.ends_with(".clshard")),
        "the failed spill's orphaned shard was not swept: {:?}",
        report.swept
    );
    assert_restart_point_is_base(&dir, &base, "write_shard return");

    // The fault was transient: the same snapshot now commits and the
    // appended catalog restores bit-identically.
    let receipt = CatalogSnapshot::write(&dir, &appended).expect("clean retry");
    assert_eq!(receipt.generation, 2);
    let (loaded, report) = CatalogSnapshot::open(&dir).expect("open retry");
    assert_eq!(loaded, appended);
    assert_eq!(report.generation, 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serialize_panic_mid_spill_is_survivable() {
    let _guard = serial();
    quiet_injected_panics();
    let (base, appended) = base_and_appended();
    let dir = fresh_dir("serialize_shard");
    CatalogSnapshot::write(&dir, &base).expect("snapshot base");

    // Panic while flattening the 4th shard (the first appended one).
    let armed = Armed::new(
        "persist::serialize_shard",
        "3*off->1*panic(flatten oom)->off",
    );
    let panicked = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::write(&dir, &appended)));
    assert!(panicked.is_err(), "the armed serialize site did not fire");
    drop(armed);

    assert!(!dir.join("MANIFEST-00000002").exists());
    assert_restart_point_is_base(&dir, &base, "serialize_shard panic");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fault_at_the_commit_point_never_commits_and_sweeps_the_temp_manifest() {
    let _guard = serial();
    quiet_injected_panics();
    let (base, appended) = base_and_appended();
    for (context, actions, expect_panic) in [
        ("return", "1*return(power cut)->off", false),
        ("panic", "1*panic(power cut)->off", true),
    ] {
        let dir = fresh_dir("commit_manifest");
        CatalogSnapshot::write(&dir, &base).expect("snapshot base");

        let armed = Armed::new("persist::commit_manifest", actions);
        let outcome = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::write(&dir, &appended)));
        drop(armed);
        match (expect_panic, outcome) {
            (true, Err(_)) => {}
            (false, Ok(Err(PersistError::Io { op, .. }))) => {
                assert!(op.contains("injected"), "{context}: {op}")
            }
            (_, other) => panic!("{context}: unexpected outcome {:?}", other.map(|r| r.err())),
        }

        // The temp manifest exists (the crash window), the real one does
        // not — the snapshot did NOT commit.
        assert!(dir.join("MANIFEST-00000002.tmp").exists(), "{context}");
        assert!(!dir.join("MANIFEST-00000002").exists(), "{context}");

        let (_, report) = CatalogSnapshot::open(&dir).expect("restart");
        assert!(
            report
                .swept
                .iter()
                .any(|name| name == "MANIFEST-00000002.tmp"),
            "{context}: temp manifest not swept: {:?}",
            report.swept
        );
        assert_restart_point_is_base(&dir, &base, context);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn injected_load_fault_discards_the_generation_and_falls_back() {
    let _guard = serial();
    let (base, appended) = base_and_appended();
    let dir = fresh_dir("load_shard");
    CatalogSnapshot::write(&dir, &base).expect("snapshot base");
    CatalogSnapshot::write(&dir, &appended).expect("snapshot appended");

    // The first decode (generation 2's first shard) reports corruption;
    // every later decode — generation 1's shards — passes.
    let armed = Armed::new("persist::load_shard", "1*return(latent media error)->off");
    let outcome = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::open(&dir)))
        .expect("the loader never panics");
    let (loaded, report) = outcome.expect("fallback to generation 1");
    drop(armed);
    assert_eq!(loaded, base, "half-loaded or wrong catalog served");
    assert_eq!(report.generation, 1);
    assert!(report.recovered_from_fallback);
    let (discarded, reason) = &report.discarded[0];
    assert_eq!(discarded, "MANIFEST-00000002");
    assert!(
        reason.contains("persist::load_shard") && reason.contains("latent media error"),
        "{reason}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn load_faults_on_every_generation_fail_structurally_not_with_a_panic() {
    let _guard = serial();
    let (base, appended) = base_and_appended();
    let dir = fresh_dir("load_all");
    CatalogSnapshot::write(&dir, &base).expect("snapshot base");
    CatalogSnapshot::write(&dir, &appended).expect("snapshot appended");

    let armed = Armed::new("persist::load_shard", "return(total media failure)");
    let outcome = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::open(&dir)))
        .expect("the loader never panics");
    drop(armed);
    match outcome {
        Err(PersistError::NoUsableGeneration { detail, .. }) => {
            assert!(detail.contains("MANIFEST-00000002"), "{detail}");
            assert!(detail.contains("MANIFEST-00000001"), "{detail}");
        }
        other => panic!("expected NoUsableGeneration, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_serving_linker_survives_a_failed_snapshot() {
    let _guard = serial();
    let catalog = ShardedStore::from_records(&(0..48).map(local_record).collect::<Vec<_>>(), 3);
    let blocker = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 3));
    let cmp = RecordComparator::new(vec![AttributeRule {
        left_property: EXT_PN.to_string(),
        right_property: LOC_PN.to_string(),
        measure: SimilarityMeasure::JaroWinkler,
        weight: 1.0,
    }])
    .with_thresholds(0.95, 0.7);
    let linker = Linker::new(&blocker, &cmp, catalog);
    let mut probe = Record::new(Term::iri("http://provider.example.org/item/7"));
    probe.add(EXT_PN, "PN-07X");

    let mut scratch = ProbeScratch::new();
    let before: Vec<u64> = linker
        .probe_with(&probe, &mut scratch)
        .matches
        .iter()
        .map(|link| link.score.to_bits())
        .collect();
    assert!(
        !before.is_empty(),
        "the probe must link or the guard is vacuous"
    );

    let dir = fresh_dir("linker_snapshot");
    let armed = Armed::new("persist::commit_manifest", "1*return(power cut)->off");
    let error = linker.snapshot(&dir).expect_err("injected commit fault");
    drop(armed);
    match &error {
        LinkError::SnapshotFailed { source } => {
            assert!(source.to_string().contains("power cut"), "{source}");
        }
        other => panic!("expected SnapshotFailed, got {other:?}"),
    }
    assert!(
        error.to_string().contains("restart point"),
        "the error must state the crash-safety contract: {error}"
    );
    use std::error::Error;
    assert!(
        error.source().is_some(),
        "SnapshotFailed chains its PersistError"
    );

    // Serving was never interrupted, and the failed spill left no
    // committed manifest behind.
    let after: Vec<u64> = linker
        .probe_with(&probe, &mut scratch)
        .matches
        .iter()
        .map(|link| link.score.to_bits())
        .collect();
    assert_eq!(before, after, "a failed snapshot perturbed serving");
    assert!(matches!(
        CatalogSnapshot::open(&dir),
        Err(PersistError::NoSnapshot { .. })
    ));

    // Retry cleanly and restore a linker whose probes are bit-identical.
    linker.snapshot(&dir).expect("clean retry");
    let (restored, report) = Linker::open(&dir, &blocker, &cmp).expect("open");
    assert_eq!(report.generation, 1);
    let mut cold = ProbeScratch::new();
    let restored_bits: Vec<u64> = restored
        .probe_with(&probe, &mut cold)
        .matches
        .iter()
        .map(|link| link.score.to_bits())
        .collect();
    assert_eq!(before, restored_bits);
    let _ = fs::remove_dir_all(&dir);
}
