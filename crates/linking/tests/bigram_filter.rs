//! Equivalence suite for the **bigram probe**: on arbitrary generated
//! key sets — including empty keys (the padded `{##}` singleton set),
//! keys of up to 40 characters (six counter planes) and a gram
//! distribution that runs from "almost every record shares a handful of
//! ubiquitous grams" to "every gram is rare" — the bit-sliced counter
//! emits **exactly** the candidate set of an independent string-based
//! exhaustive reference, per `(external, shard)` pair, across thresholds
//! spanning the whole `[0, 1]` range and both the single-store and
//! sharded probe paths. Pinned cases sit on the counter's own edges:
//! shards ending on, before and after a word boundary, keys needing nine
//! planes, all-empty keys, and grams on either side of the dense
//! cut-off.
//!
//! The reference is the shared oracle's (`common::oracle::bigram`): a
//! string-keyed count over per-record padded-bigram sets that never
//! touches `stream_candidates`, `CandidateRuns`, the `KeyIndex` or any
//! posting structure of the engine, so a counting bug cannot cancel out
//! of both sides.

use classilink_datagen::vocab::{LOCAL_PART_NUMBER, PROVIDER_PART_NUMBER};
use classilink_linking::blocking::{BigramBlocker, Blocker};
use classilink_linking::record::Record;
use classilink_linking::{CandidateRuns, RecordStore, ShardedStore};
use classilink_rdf::Term;
use proptest::collection::vec;
use proptest::prelude::*;

mod common;
use common::{key, oracle};

/// The swept sharing thresholds: the degenerate ends (`0.0` accepts any
/// single shared gram, `1.0` demands the smaller set entirely) plus
/// operating-range interior points.
const THRESHOLDS: [f64; 5] = [0.0, 0.2, 0.6, 0.9, 1.0];

/// Decode one key of up to 40 characters from a seed. Each key draws
/// its own share of characters from a three-letter alphabet (the
/// resulting bigrams are shared by almost every record — the dense
/// bitmap rows) against a 36-letter one (the rare grams — the sparse
/// posting lists), so set sizes spread over 1 ..= 41 and the size runs
/// of one sharing rule start and end anywhere in a word; about one key
/// in thirteen is empty.
fn key_of(seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    if next() % 13 == 0 {
        return String::new();
    }
    let len = 1 + (next() % 40) as usize;
    let common_share = next() % 11;
    (0..len)
        .map(|_| {
            let roll = next();
            if roll % 10 < common_share {
                b"abc"[(roll >> 8) as usize % 3] as char
            } else {
                char::from_digit(((roll >> 8) % 36) as u32, 36).expect("radix 36")
            }
        })
        .collect()
}

fn records_of(property: &str, keys: &[String]) -> Vec<Record> {
    let record = |(i, key): (usize, &String)| {
        let mut record = Record::new(Term::iri(format!("{property}/{i}")));
        record.add(property, key.as_str());
        record
    };
    keys.iter().enumerate().map(record).collect()
}

/// For every listed threshold and shard count, the streamed per-shard
/// candidate runs decode to exactly the reference pair set of that
/// shard.
fn assert_probe_matches_reference(
    external_keys: &[String],
    local_keys: &[String],
    thresholds: &[f64],
    shard_counts: &[usize],
) {
    let key = key(0);
    let external = RecordStore::from_records(&records_of(PROVIDER_PART_NUMBER, external_keys));
    let local_records = records_of(LOCAL_PART_NUMBER, local_keys);
    // One oracle over the whole catalog: a pair's count does not depend on
    // the shard its local lands in.
    let expected = oracle::bigram(
        &key,
        thresholds,
        &external,
        &RecordStore::from_records(&local_records),
    );
    let mut runs = CandidateRuns::new();
    for &shards in shard_counts {
        let sharded = ShardedStore::from_records(&local_records, shards);
        for (&threshold, expected) in thresholds.iter().zip(&expected) {
            let blocker = BigramBlocker::new(key.clone(), threshold);
            blocker.stream_candidates(&external, (&sharded).into(), &mut runs);
            for s in 0..shards {
                let (offset, len) = (sharded.offset(s), sharded.shard(s).len());
                let mut streamed: Vec<(usize, usize)> =
                    runs.pairs(s).map(|(e, l)| (e, offset + l)).collect();
                streamed.sort_unstable();
                let shard_expected: Vec<(usize, usize)> = (expected.iter())
                    .filter(|&&(_, l)| (offset..offset + len).contains(&l))
                    .copied()
                    .collect();
                assert_eq!(
                    streamed, shard_expected,
                    "threshold {threshold} shard {s}/{shards} ({len} records) diverged"
                );
            }
        }
    }
}

fn keys_of(seeds: impl IntoIterator<Item = u64>) -> Vec<String> {
    seeds.into_iter().map(key_of).collect()
}

/// `count` deterministic seeds, different for every `salt`.
fn seeds(salt: u64, count: usize) -> impl Iterator<Item = u64> {
    (1..=count as u64).map(move |i| (i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

proptest! {
    /// Up to 200 locals (bitmap rows of up to four words, one to three
    /// per shard when split) against up to 24 externals.
    #[test]
    fn probe_matches_exhaustive_reference(
        external_seeds in vec(0u64..u64::MAX, 1..24),
        local_seeds in vec(0u64..u64::MAX, 1..200),
    ) {
        assert_probe_matches_reference(
            &keys_of(external_seeds),
            &keys_of(local_seeds),
            &THRESHOLDS,
            &[1, 3],
        );
    }
}

/// The last word of a row is full, one bit short, or holds one bit: the
/// final size run's end mask must keep exactly the shard's positions.
#[test]
fn shard_sizes_around_a_word_boundary() {
    let external = keys_of(seeds(7, 20));
    for records in [63, 64, 65, 128, 129] {
        let local = keys_of(seeds(records as u64, records));
        assert_probe_matches_reference(&external, &local, &THRESHOLDS, &[1]);
    }
}

/// A run of `count` distinct alphanumeric characters (lowercasing
/// leaves them alone): a key of `count + 1` distinct padded bigrams.
fn distinct_chars(first: u32, count: u32) -> String {
    (first..first + count)
        .map(|c| char::from_u32(c).expect("CJK ideograph"))
        .collect()
}

/// Keys of 256 and of 301 distinct bigrams — counts that need a ninth
/// plane, one of them a power of two — on either side, against their
/// own copies, their halves and short keys.
#[test]
fn more_than_255_distinct_bigrams_on_either_side() {
    let exact = distinct_chars(0x4E00, 255);
    let long = distinct_chars(0x4E00, 300);
    let mut half = distinct_chars(0x4E00, 150);
    half.push_str("abc");
    let mut keys = vec![exact, long, half, "abc".to_string(), String::new()];
    keys.extend(keys_of(seeds(3, 70)));
    let short = keys_of(seeds(4, 12));
    assert_probe_matches_reference(&keys, &short, &THRESHOLDS, &[1]);
    assert_probe_matches_reference(&short, &keys, &THRESHOLDS, &[1, 2]);
    assert_probe_matches_reference(&keys, &keys, &THRESHOLDS, &[1, 2]);
}

/// Every key empty: every set is `{##}`, every pair shares it, and
/// every threshold demands exactly that one gram.
#[test]
fn all_empty_keys_pair_everything() {
    let external = vec![String::new(); 5];
    let local = vec![String::new(); 70];
    assert_probe_matches_reference(&external, &local, &[0.0, 0.5, 1.0], &[1, 2]);
    let mut runs = CandidateRuns::new();
    BigramBlocker::new(key(0), 1.0).stream_candidates(
        &RecordStore::from_records(&records_of(PROVIDER_PART_NUMBER, &external)),
        (&RecordStore::from_records(&records_of(LOCAL_PART_NUMBER, &local))).into(),
        &mut runs,
    );
    assert_eq!(runs.total(), 5 * 70);
}

/// Three marker grams whose document frequencies are the dense cut-off
/// `max(⌈N/64⌉, 8)` minus one, exactly, and plus one — a posting list,
/// the shortest bitmap row and the next — in a shard where the cut-off
/// is the floor (200 records) and one where it is `⌈N/64⌉` (700
/// records, 11): the counts must not depend on which side of the cut a
/// gram falls.
#[test]
fn grams_on_either_side_of_the_dense_cut_off() {
    for (records, cut_off) in [(200usize, 8usize), (700, 11)] {
        assert_eq!(records.div_ceil(64).max(8), cut_off);
        let mut local = keys_of(seeds(records as u64, records));
        // No generated key keeps a `z`, so each marker gram occurs in
        // exactly the records it is appended to.
        for key in &mut local {
            key.retain(|c| c != 'z');
        }
        let markers = [("qz", cut_off - 1), ("wz", cut_off), ("yz", cut_off + 1)];
        for (offset, (marker, df)) in markers.into_iter().enumerate() {
            for key in local.iter_mut().skip(offset).step_by(7).take(df) {
                key.push_str(marker);
            }
        }
        let mut external: Vec<String> = ["qz", "wz", "yz", "qzwz", "wzyz", "qzwzyz", "aqzb"]
            .map(String::from)
            .to_vec();
        external.extend(keys_of(seeds(11, 8)));
        assert_probe_matches_reference(&external, &local, &THRESHOLDS, &[1]);
    }
}
