//! Crash-safety and round-trip guards for the persistence layer
//! ([`classilink_linking::persist`]):
//!
//! * **Byte-identical spill.** Property-based, over the shared catalog
//!   strategy (`common::catalog`: empty catalogs, empty shards,
//!   multi-valued and Unicode-heavy records, every term kind, ids and
//!   values of arbitrary printable text, empty values): spill →
//!   load → re-spill restores a store equal to the original, and the
//!   second snapshot directory is **byte-for-byte identical** to the
//!   first (content addressing makes the file set deterministic).
//!   (Batch runs over a restored catalog and probes through a [`Linker`]
//!   opened from a `Linker::snapshot`, for every blocker and comparator,
//!   are cells of the identity matrix, `identity_matrix.rs`.)
//! * **Corruption recovery.** A chaos sweep over
//!   {truncate, bit-flip, delete} × {newest manifest, newest-only shard
//!   file}, every byte of the newest generation's own files flipped, and
//!   a valid shard file copied over another: the loader never panics,
//!   never returns a half-loaded catalog, and always falls back to the
//!   previous durable generation; when *every* generation is corrupt it
//!   fails with a structured [`PersistError::NoUsableGeneration`]. A file
//!   that cannot be read is no proof of damage: its generation is passed
//!   over but never deleted, and never pushes a sound one out of
//!   retention — neither on `open` nor on the next `write`.
//! * **Hygiene.** Orphaned temp/data files are swept on open (unknown
//!   files are left alone), incremental snapshots reuse the previous
//!   generation's shard files once they read back intact (a damaged one
//!   is rewritten), and retention keeps the two newest sound generations.
//!   Every sequence of up to four writes, opens, damages, repairs and
//!   crashes is checked by `persist_explorer.rs`.

use classilink_linking::blocking::{BlockingKey, StandardBlocker};
use classilink_linking::record::Record;
use classilink_linking::{
    CatalogSnapshot, LinkError, Linker, PersistError, RecordComparator, ShardedStore,
    SimilarityMeasure,
};
use classilink_rdf::Term;
use proptest::prelude::*;
use std::collections::HashSet;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

mod common;
use common::{catalog, fresh_dir};

const EXT_PN: &str = "http://provider.example.org/vocab#partNumber";
const LOC_PN: &str = "http://catalog.example.org/vocab#partNumber";

/// `(file name, bytes)` for every file in `dir`, sorted by name.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = file_names(dir)
        .into_iter()
        .map(|name| {
            let bytes = fs::read(dir.join(&name)).expect("file bytes");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

fn file_names(dir: &Path) -> HashSet<String> {
    fs::read_dir(dir)
        .expect("snapshot directory")
        .map(|entry| {
            let name = entry.expect("dir entry").file_name();
            name.into_string().expect("utf-8 file name")
        })
        .collect()
}

/// Put `dir` back to `files` (`open` sweeps what it discards).
fn restore(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("snapshot directory");
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes).expect("restore file");
    }
}

// --- fault injectors (filesystem-level corruption) -------------------

fn truncate(path: &Path) {
    let bytes = fs::read(path).expect("read target");
    fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate target");
}

fn bit_flip(path: &Path) {
    let mut bytes = fs::read(path).expect("read target");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(path, bytes).expect("flip target");
}

fn delete(path: &Path) {
    fs::remove_file(path).expect("delete target");
}

// --- datasets --------------------------------------------------------

fn local_record(i: usize) -> Record {
    let mut record = Record::new(Term::iri(format!("http://catalog.example.org/prod/{i}")));
    record.add(LOC_PN, format!("PN-{:02}X", i % 8));
    record
}

fn local_records(range: std::ops::Range<usize>) -> Vec<Record> {
    range.map(local_record).collect()
}

/// A base catalog plus the same catalog grown by two appended shards —
/// the two-generation fixture for the corruption sweep.
fn base_and_appended() -> (ShardedStore, ShardedStore) {
    let base = ShardedStore::from_records(&local_records(0..48), 3);
    let mut delta = base.delta_builder();
    for (i, record) in local_records(48..60).iter().enumerate() {
        if i % 6 == 0 {
            delta.begin_shard();
        }
        delta.push(record);
    }
    (base.clone(), base.append_shards(delta))
}

/// Generation 1 holds a base catalog; generation 2 appends a shard whose
/// records bring a new property, so its shard file and its schema file
/// belong to generation 2 alone (an unchanged schema file would be
/// shared). Returns the base, generation 2's catalog as restored (`==`
/// compares schemas, and a restored shard shares the grown one) and
/// those two file names.
fn two_generations(dir: &Path) -> (ShardedStore, ShardedStore, Vec<String>) {
    let base = ShardedStore::from_records(&local_records(0..12), 3);
    let mut delta = base.delta_builder();
    delta.begin_shard();
    for i in 0..2 {
        let mut record = Record::new(Term::iri(format!("http://catalog.example.org/late/{i}")));
        record.add("http://catalog.example.org/vocab#colour", "red");
        delta.push(&record);
    }
    CatalogSnapshot::write(dir, &base).expect("generation 1");
    let before = file_names(dir);
    CatalogSnapshot::write(dir, &base.append_shards(delta)).expect("generation 2");
    let mut only_second: Vec<String> = file_names(dir)
        .into_iter()
        .filter(|name| !before.contains(name) && name != "MANIFEST-00000002")
        .collect();
    only_second.sort();
    assert_eq!(only_second.len(), 2, "{only_second:?}");
    let (second, _) = CatalogSnapshot::open(dir).expect("generation 2");
    (base, second, only_second)
}

/// `open` serves `base`, generation 1, as a fallback; returns why
/// generation 2 was passed over.
fn assert_falls_back(dir: &Path, base: &ShardedStore, context: &str) -> String {
    let outcome = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::open(dir)))
        .unwrap_or_else(|_| panic!("{context}: the loader panicked"));
    let (loaded, report) =
        outcome.unwrap_or_else(|e| panic!("{context}: no fallback to generation 1: {e}"));
    assert_eq!(&loaded, base, "{context}: wrong catalog restored");
    assert_eq!(report.generation, 1, "{context}");
    assert!(report.recovered_from_fallback, "{context}");
    let (name, reason) = &report.discarded[0];
    assert_eq!(name, "MANIFEST-00000002", "{context}");
    reason.clone()
}

// =====================================================================
// Byte-identical spill → load → re-spill (property-based)
// =====================================================================

/// Derived state is never written, so a restored shard re-derives it:
/// every record's full text must come out the same on both catalogs,
/// and equal to the record-side join.
fn assert_full_text_identity(original: &ShardedStore, restored: &ShardedStore) {
    assert_eq!(original.shard_count(), restored.shard_count());
    for (a, b) in original.shards().iter().zip(restored.shards()) {
        for r in 0..a.len() {
            let expected = a.record(r).full_text();
            assert_eq!(a.full_text(r), expected);
            assert_eq!(b.full_text(r), expected);
        }
    }
}

proptest! {
    /// Spill → load restores an equal catalog; re-spilling the restored
    /// catalog produces a byte-identical snapshot directory.
    #[test]
    fn arbitrary_catalogs_round_trip_byte_identically(case in catalog::strategy()) {
        let store = case.store();
        let dir1 = fresh_dir("prop_a");
        let dir2 = fresh_dir("prop_b");
        CatalogSnapshot::write(&dir1, &store).expect("spill");
        let (loaded, report) = CatalogSnapshot::open(&dir1).expect("load");
        prop_assert_eq!(&loaded, &store);
        prop_assert_eq!(report.generation, 1);
        prop_assert!(!report.recovered_from_fallback);
        prop_assert_eq!(report.records, store.len());
        CatalogSnapshot::write(&dir2, &loaded).expect("re-spill");
        prop_assert_eq!(dir_files(&dir1), dir_files(&dir2));
        assert_full_text_identity(&store, &loaded);
        // An append that grows the schema (by an IRI sorting before every
        // property the strategy draws): the old shards keep their prefix
        // schema `Arc`, their restored twins share the grown one.
        let mut delta = store.delta_builder();
        delta.begin_shard();
        let mut late = Record::new(Term::iri("http://e.org/item/late"));
        late.add("http://a.example.org/v#late", "late")
            .add(LOC_PN, "PN-1");
        delta.push(&late);
        let appended = store.append_shards(delta);
        CatalogSnapshot::write(&dir1, &appended).expect("spill appended");
        let (reloaded, _) = CatalogSnapshot::open(&dir1).expect("load appended");
        assert_full_text_identity(&appended, &reloaded);
        let _ = fs::remove_dir_all(&dir1);
        let _ = fs::remove_dir_all(&dir2);
    }
}

/// Several records under one subject id: `index_of` answers with the
/// last of them in the whole catalog, as a single store would — whether
/// the id index is derived on a built, a restored or an appended catalog.
#[test]
fn duplicate_ids_resolve_to_the_last_record_built_restored_and_appended() {
    let duplicate = |id: &Term, pn: &str| {
        let mut record = Record::new(id.clone());
        record.add(LOC_PN, pn);
        record
    };
    let twice = Term::iri("http://catalog.example.org/prod/twice");
    let built = ShardedStore::from_records(
        &[
            duplicate(&twice, "A"),
            local_record(1),
            duplicate(&twice, "B"),
        ],
        1,
    );
    assert_eq!(built.index_of(&twice), Some(2));

    let dir = fresh_dir("duplicate_ids");
    CatalogSnapshot::write(&dir, &built).expect("spill");
    let (restored, _) = CatalogSnapshot::open(&dir).expect("load");
    assert_eq!(restored.index_of(&twice), Some(2));

    let late = Term::iri("http://catalog.example.org/prod/late");
    let mut delta = restored.delta_builder();
    delta.begin_shard();
    for record in [
        duplicate(&late, "C"),
        duplicate(&twice, "D"),
        duplicate(&late, "E"),
    ] {
        delta.push(&record);
    }
    let appended = restored.append_shards(delta);
    assert_eq!(appended.index_of(&late), Some(5));
    assert_eq!(appended.index_of(&twice), Some(4));
    let _ = fs::remove_dir_all(&dir);
}

// =====================================================================
// Corruption recovery
// =====================================================================

/// The chaos sweep: {truncate, bit-flip, delete} × {newest manifest,
/// a shard file only the newest generation references}. In every cell
/// the loader must not panic, must not serve the corrupt generation,
/// and must restore the previous generation exactly; after the sweep a
/// re-open is clean (the corruption has been deleted from the
/// directory).
#[test]
fn corrupting_the_newest_generation_falls_back_to_the_previous() {
    let (base, appended) = base_and_appended();
    type Fault = (&'static str, fn(&Path));
    let faults: [Fault; 3] = [
        ("truncate", truncate),
        ("bit-flip", bit_flip),
        ("delete", delete),
    ];
    for (fault_name, fault) in faults {
        for target_kind in ["manifest", "shard"] {
            let context = format!("{fault_name} × {target_kind}");
            let dir = fresh_dir("chaos");
            let gen1 = CatalogSnapshot::write(&dir, &base).expect("snapshot base");
            let gen1_files = file_names(&dir);
            let gen2 = CatalogSnapshot::write(&dir, &appended).expect("snapshot appended");
            assert_eq!((gen1.generation, gen2.generation), (1, 2), "{context}");
            assert!(gen2.shards_reused >= base.shard_count(), "{context}");

            let target = match target_kind {
                "manifest" => gen2.manifest.clone(),
                _ => {
                    // A data file the appended generation introduced —
                    // corrupting it must not take generation 1 down.
                    let new_shard = file_names(&dir)
                        .into_iter()
                        .find(|name| name.ends_with(".clshard") && !gen1_files.contains(name))
                        .expect("the append spilled at least one new shard file");
                    dir.join(new_shard)
                }
            };
            fault(&target);

            let outcome = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::open(&dir)))
                .unwrap_or_else(|_| panic!("{context}: the loader panicked"));
            let (loaded, report) =
                outcome.unwrap_or_else(|e| panic!("{context}: no fallback to generation 1: {e}"));
            assert_eq!(loaded, base, "{context}: wrong catalog restored");
            assert_eq!(report.generation, 1, "{context}");
            // Deleting the manifest itself erases generation 2 outright —
            // generation 1 is then simply the newest, not a fallback.
            let erased = fault_name == "delete" && target_kind == "manifest";
            assert_eq!(report.recovered_from_fallback, !erased, "{context}");
            if !erased {
                let (discarded_file, reason) = &report.discarded[0];
                assert_eq!(discarded_file, "MANIFEST-00000002", "{context}");
                assert!(!reason.is_empty(), "{context}");
            }

            // The corruption was swept: a second open is clean and
            // identical, and the bad generation's files are gone.
            let (again, report) = CatalogSnapshot::open(&dir).expect("clean re-open");
            assert_eq!(again, base, "{context}: re-open diverges");
            assert_eq!(report.generation, 1, "{context}");
            assert!(!report.recovered_from_fallback, "{context}");
            assert!(report.discarded.is_empty(), "{context}");
            assert!(
                !dir.join("MANIFEST-00000002").exists(),
                "{context}: corrupt manifest survived the sweep"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Each byte of the files generation 2 alone owns — its new shard, its
/// schema, its manifest — flipped in turn: the file's name (or the
/// manifest's seal) no longer matches, and generation 1 is served.
#[test]
fn every_single_bit_flip_in_the_newest_generation_falls_back() {
    let dir = fresh_dir("bit_flips");
    let (base, second, mut targets) = two_generations(&dir);
    targets.push("MANIFEST-00000002".to_string());
    let files = dir_files(&dir);
    for target in &targets {
        let clean = fs::read(dir.join(target)).expect("read target");
        for byte in 0..clean.len() {
            let mut flipped = clean.clone();
            flipped[byte] ^= 1;
            fs::write(dir.join(target), flipped).expect("flip target");
            let reason = assert_falls_back(&dir, &base, &format!("{target}, byte {byte}"));
            assert!(!reason.is_empty());
            restore(&dir, &files);
        }
    }
    let (loaded, report) = CatalogSnapshot::open(&dir).expect("clean open");
    assert_eq!((loaded, report.generation), (second, 2));
    let _ = fs::remove_dir_all(&dir);
}

/// A structurally valid shard file under another shard's name fails the
/// name's hash: copying one spilled shard over another is corruption.
#[test]
fn a_shard_file_holding_another_shards_bytes_is_discarded() {
    let dir = fresh_dir("swapped");
    let (base, _, only_second) = two_generations(&dir);
    let new_shard = only_second.iter().find(|name| name.ends_with(".clshard"));
    let old_shard = file_names(&dir)
        .into_iter()
        .find(|name| name.ends_with(".clshard") && !only_second.contains(name))
        .expect("a generation-1 shard");
    fs::copy(
        dir.join(old_shard),
        dir.join(new_shard.expect("a new shard")),
    )
    .unwrap();
    let reason = assert_falls_back(&dir, &base, "swapped shard");
    assert!(reason.contains("content hash mismatch"), "{reason}");
    let _ = fs::remove_dir_all(&dir);
}

/// A file that exists but cannot be read (here a directory under a shard
/// file's name: `EISDIR` even as root) is no proof of damage: `open`
/// serves the previous generation and reports the newest, but keeps it —
/// once the file reads again, so does the generation.
#[test]
fn an_unreadable_file_skips_its_generation_but_never_deletes_it() {
    let dir = fresh_dir("unreadable");
    let (base, second, only_second) = two_generations(&dir);
    let files = dir_files(&dir);
    let names: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
    let shard = only_second.iter().find(|name| name.ends_with(".clshard"));
    let shard = dir.join(shard.expect("a new shard"));
    fs::remove_file(&shard).unwrap();
    fs::create_dir(&shard).unwrap();

    let reason = assert_falls_back(&dir, &base, "unreadable shard");
    assert!(reason.contains("read snapshot file"), "{reason}");
    let mut left: Vec<String> = file_names(&dir).into_iter().collect();
    left.sort();
    assert_eq!(left, names, "open deleted part of a sound generation");

    restore(&dir, &files);
    let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!((loaded, report.generation), (second, 2));
    assert!(!report.recovered_from_fallback);
    let _ = fs::remove_dir_all(&dir);
}

/// Two generations skipped for one unreadable file they share do not
/// count towards retention: the sweep keeps the generation `open`
/// served, and the next `open` serves it again.
#[test]
fn generations_skipped_for_an_unreadable_file_never_push_out_the_served_one() {
    let dir = fresh_dir("unreadable_shared");
    let grow = |store: &ShardedStore, range: std::ops::Range<usize>| {
        let mut delta = store.delta_builder();
        delta.begin_shard();
        for record in local_records(range) {
            delta.push(&record);
        }
        store.append_shards(delta)
    };
    let first = ShardedStore::from_records(&local_records(0..12), 3);
    let second = grow(&first, 12..14);
    let third = grow(&second, 14..16);
    CatalogSnapshot::write(&dir, &first).expect("generation 1");
    let before = file_names(&dir);
    CatalogSnapshot::write(&dir, &second).expect("generation 2");
    let shared = file_names(&dir)
        .into_iter()
        .find(|name| name.ends_with(".clshard") && !before.contains(name))
        .expect("generation 2's new shard");
    let two = dir_files(&dir);
    CatalogSnapshot::write(&dir, &third).expect("generation 3");
    // Generation 3's sweep deleted generation 1; put it back, as a crash
    // between that commit and its sweep would have left it.
    for (name, bytes) in &two {
        if !dir.join(name).exists() {
            fs::write(dir.join(name), bytes).unwrap();
        }
    }
    let files = dir_files(&dir);
    let shared = dir.join(shared);
    fs::remove_file(&shared).unwrap();
    fs::create_dir(&shared).unwrap();

    for context in ["first open", "second open"] {
        let (loaded, report) = CatalogSnapshot::open(&dir).expect(context);
        assert_eq!((&loaded, report.generation), (&first, 1), "{context}");
        let skipped: Vec<&str> = report.discarded.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            skipped,
            ["MANIFEST-00000003", "MANIFEST-00000002"],
            "{context}"
        );
        assert!(dir.join("MANIFEST-00000001").exists(), "{context}");
    }

    restore(&dir, &files);
    let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!((loaded, report.generation), (third, 3));
    let _ = fs::remove_dir_all(&dir);
}

/// `open` serves generation 1 past generation 2, which holds an
/// unreadable file; a `write` of the served catalog then keeps generation
/// 1 — the newest sound generation before its own — so that damage to
/// the new generation still leaves one to serve.
#[test]
fn a_write_after_an_io_skipped_open_keeps_the_served_generation() {
    let dir = fresh_dir("write_after_skip");
    let (base, _, only_second) = two_generations(&dir);
    let shard = only_second.iter().find(|name| name.ends_with(".clshard"));
    let shard = dir.join(shard.expect("a new shard"));
    fs::remove_file(&shard).unwrap();
    fs::create_dir(&shard).unwrap();
    let (served, _) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!(served, base);

    let receipt = CatalogSnapshot::write(&dir, &served).expect("generation 3");
    assert_eq!(receipt.generation, 3);
    bit_flip(&receipt.manifest);
    let (loaded, report) = CatalogSnapshot::open(&dir).expect("generation 1 still serves");
    assert_eq!((loaded, report.generation), (base, 1));
    let _ = fs::remove_dir_all(&dir);
}

/// A file a `write` would reuse is checked first: generation 2's own
/// shard, bit-flipped, is rewritten by the write of generation 3 — which
/// mends generation 2 too — rather than reused and counted sound.
#[test]
fn a_damaged_file_is_rewritten_not_reused() {
    let dir = fresh_dir("rewritten");
    let (_, second, only_second) = two_generations(&dir);
    let shard = only_second.iter().find(|name| name.ends_with(".clshard"));
    bit_flip(&dir.join(shard.expect("a new shard")));
    let mut delta = second.delta_builder();
    delta.begin_shard();
    delta.push(&local_record(12));
    let grown = second.append_shards(delta);

    let receipt = CatalogSnapshot::write(&dir, &grown).expect("generation 3");
    assert_eq!(receipt.shards_written, 2, "the damaged shard was reused");
    let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!((loaded, report.generation), (grown, 3));
    fs::remove_file(&receipt.manifest).unwrap();
    let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!((loaded, report.generation), (second, 2));
    let _ = fs::remove_dir_all(&dir);
}

/// A sweep that cannot read a manifest it would weigh does not know what
/// that generation references, so it deletes temp files only.
#[test]
fn a_sweep_that_cannot_read_a_manifest_deletes_only_temp_files() {
    let dir = fresh_dir("unreadable_manifest");
    let base = ShardedStore::from_records(&local_records(0..12), 2);
    CatalogSnapshot::write(&dir, &base).expect("generation 1");
    let manifest = dir.join("MANIFEST-00000001");
    let manifest_bytes = fs::read(&manifest).unwrap();
    fs::remove_file(&manifest).unwrap();
    fs::create_dir(&manifest).unwrap();
    let torn = "shard-00000000deadbeef.clshard.tmp";
    fs::write(dir.join(torn), b"torn spill").unwrap();
    let before = file_names(&dir);

    // A catalog sharing no data file with generation 1.
    let other = ShardedStore::from_records(&local_records(100..101), 1);
    let receipt = CatalogSnapshot::write(&dir, &other).expect("generation 2");
    assert_eq!(receipt.generation, 2);
    assert_eq!(receipt.swept, vec![torn.to_string()]);
    let after = file_names(&dir);
    for name in before.iter().filter(|name| *name != torn) {
        assert!(after.contains(name), "{name} was swept");
    }

    fs::remove_dir(&manifest).unwrap();
    fs::write(&manifest, manifest_bytes).unwrap();
    fs::remove_file(&receipt.manifest).unwrap();
    let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!((loaded, report.generation), (base, 1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn when_every_generation_is_corrupt_open_fails_structurally_without_panicking() {
    let (base, appended) = base_and_appended();
    let dir = fresh_dir("all_corrupt");
    CatalogSnapshot::write(&dir, &base).expect("snapshot base");
    CatalogSnapshot::write(&dir, &appended).expect("snapshot appended");
    for name in file_names(&dir) {
        if name.starts_with("MANIFEST-") {
            bit_flip(&dir.join(name));
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| CatalogSnapshot::open(&dir)))
        .expect("the loader never panics on corrupt input");
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
fn restore_errors_name_the_directory_and_chain_their_sources() {
    use std::error::Error;
    let blocker = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 3));
    let cmp = RecordComparator::new(vec![classilink_linking::AttributeRule {
        left_property: EXT_PN.to_string(),
        right_property: LOC_PN.to_string(),
        measure: SimilarityMeasure::JaroWinkler,
        weight: 1.0,
    }]);
    let dir = fresh_dir("no_snapshot");
    let err = match Linker::open(&dir, &blocker, &cmp) {
        Ok(_) => panic!("opened a snapshot from an empty directory"),
        Err(err) => err,
    };
    assert!(
        matches!(
            &err,
            LinkError::RestoreFailed {
                source: PersistError::NoSnapshot { .. }
            }
        ),
        "{err:?}"
    );
    let text = err.to_string();
    assert!(text.contains("restore failed"), "{text}");
    assert!(text.contains("no_snapshot"), "{text}");
    let source = err.source().expect("RestoreFailed chains its PersistError");
    assert!(source.to_string().contains("no manifest"), "{source}");
}

// =====================================================================
// Hygiene: orphan sweep, incremental reuse, retention
// =====================================================================

#[test]
fn orphaned_files_are_swept_on_open_and_unknown_files_are_left_alone() {
    let catalog = ShardedStore::from_records(&local_records(0..12), 2);
    let dir = fresh_dir("orphans");
    CatalogSnapshot::write(&dir, &catalog).expect("snapshot");
    // A torn data-file spill and a torn manifest commit…
    fs::write(
        dir.join("shard-00000000deadbeef.clshard.tmp"),
        b"torn spill",
    )
    .unwrap();
    fs::write(dir.join("MANIFEST-00000009.tmp"), b"torn commit").unwrap();
    // …a data file no manifest references…
    fs::write(dir.join("shard-00000000deadbeef.clshard"), b"orphan").unwrap();
    // …and an operator's file this module never named.
    fs::write(dir.join("operator-notes.txt"), b"keep me").unwrap();

    let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!(loaded, catalog);
    for swept in [
        "MANIFEST-00000009.tmp",
        "shard-00000000deadbeef.clshard",
        "shard-00000000deadbeef.clshard.tmp",
    ] {
        assert!(
            report.swept.iter().any(|name| name == swept),
            "{swept} not reported swept: {:?}",
            report.swept
        );
        assert!(!dir.join(swept).exists(), "{swept} survived the sweep");
    }
    assert!(
        dir.join("operator-notes.txt").exists(),
        "the sweep deleted a file it does not own"
    );
    assert!(!report.swept.iter().any(|name| name == "operator-notes.txt"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshotting_an_appended_catalog_spills_only_the_new_shards() {
    let (base, appended) = base_and_appended();
    let dir = fresh_dir("incremental");
    let gen1 = CatalogSnapshot::write(&dir, &base).expect("snapshot base");
    assert_eq!(gen1.shards_written, base.shard_count());
    assert_eq!(gen1.shards_reused, 0);

    let gen2 = CatalogSnapshot::write(&dir, &appended).expect("snapshot appended");
    assert_eq!(gen2.generation, 2);
    assert_eq!(
        gen2.shards_reused,
        base.shard_count(),
        "the surviving shards' files should be reused byte-for-byte"
    );
    assert_eq!(
        gen2.shards_written,
        appended.shard_count() - base.shard_count()
    );
    assert!(
        gen2.bytes_written < gen2.total_bytes,
        "an incremental snapshot writes less than it references"
    );

    let (loaded, report) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!(loaded, appended);
    assert_eq!(report.generation, 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retention_keeps_exactly_the_two_newest_generations() {
    let catalog = ShardedStore::from_records(&local_records(0..12), 2);
    let dir = fresh_dir("retention");
    for expected_gen in 1..=4u64 {
        let receipt = CatalogSnapshot::write(&dir, &catalog).expect("snapshot");
        assert_eq!(receipt.generation, expected_gen);
        if expected_gen == 4 {
            assert!(
                receipt.swept.iter().any(|name| name == "MANIFEST-00000002"),
                "{:?}",
                receipt.swept
            );
        }
    }
    let names = file_names(&dir);
    assert!(!names.contains("MANIFEST-00000001"));
    assert!(!names.contains("MANIFEST-00000002"));
    assert!(names.contains("MANIFEST-00000003"));
    assert!(names.contains("MANIFEST-00000004"));
    let (_, report) = CatalogSnapshot::open(&dir).expect("open");
    assert_eq!(report.generation, 4);
    let _ = fs::remove_dir_all(&dir);
}
