//! Proptest equivalence suite for the **filtered bigram probe**: on
//! arbitrary generated key sets — including empty keys (the padded
//! `{##}` singleton set) and a heavily skewed gram distribution where
//! ~90% of characters come from a three-letter alphabet, so almost
//! every record shares a handful of ubiquitous grams — the
//! prefix/length/positional-filtered overlap join emits **exactly** the
//! candidate set of an independent string-based exhaustive reference,
//! per `(external, shard)` pair, across thresholds spanning the whole
//! `[0, 1]` range and both the single-store and sharded probe paths.
//!
//! The reference below intersects per-record `HashSet<String>` padded
//! bigram sets and never touches `stream_candidates`, `CandidateRuns`,
//! the `KeyIndex` or any posting layout, so a filter bug cannot cancel
//! out of both sides.

use classilink_linking::blocking::{BigramBlocker, Blocker, BlockingKey};
use classilink_linking::record::Record;
use classilink_linking::{CandidateRuns, RecordStore, ShardedStore};
use classilink_rdf::Term;
use classilink_segment::{CharNGramSegmenter, Segmenter};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;

const EXT_PN: &str = "http://provider.e.org/v#ref";
const LOC_PN: &str = "http://local.e.org/v#partNumber";

/// The swept sharing thresholds: the degenerate ends (`0.0` accepts any
/// single shared gram, `1.0` demands the smaller set entirely) plus
/// operating-range interior points.
const THRESHOLDS: [f64; 5] = [0.0, 0.2, 0.6, 0.9, 1.0];

/// Decode one key from a seed with the gram distribution the filters
/// care about: ~90% of characters from a three-letter alphabet (the
/// resulting bigrams are shared by almost every record — exactly the
/// ubiquitous grams the length filter must cut without scanning) and
/// the rest from a wider alphabet (the rare, discriminating grams);
/// about one key in thirteen is empty.
fn key_of(seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let len = (next() % 13) as usize;
    (0..len)
        .map(|_| {
            let roll = next();
            if roll % 10 < 9 {
                b"abc"[(roll >> 8) as usize % 3] as char
            } else {
                (b'0' + ((roll >> 8) % 36) as u8).min(b'z') as char
            }
        })
        .collect()
}

fn store_of(property: &str, prefix: &str, seeds: &[u64]) -> Vec<Record> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let mut record = Record::new(Term::iri(format!("{prefix}/{i}")));
            record.add(property, key_of(seed));
            record
        })
        .collect()
}

/// The exhaustive string-based reference: padded-bigram `HashSet`s per
/// record, one full intersection per (external, local) pair, the
/// paper's sharing rule verbatim.
fn reference_pairs(
    key: &BlockingKey,
    threshold: f64,
    external: &RecordStore,
    local: &RecordStore,
) -> Vec<(usize, usize)> {
    let segmenter = CharNGramSegmenter::padded_bigrams();
    let external_side = key.external_side(external);
    let local_side = key.local_side(local);
    let grams = |k: &str| -> HashSet<String> { segmenter.split_distinct(k).into_iter().collect() };
    let local_grams: Vec<HashSet<String>> = (0..local.len())
        .map(|l| grams(&local_side.key(local, l)))
        .collect();
    let mut pairs = Vec::new();
    for e in 0..external.len() {
        let external_grams = grams(&external_side.key(external, e));
        for (l, lg) in local_grams.iter().enumerate() {
            let shared = external_grams.intersection(lg).count();
            let smaller = external_grams.len().min(lg.len()).max(1);
            let required = ((threshold * smaller as f64).ceil() as usize).max(1);
            if shared >= required {
                pairs.push((e, l));
            }
        }
    }
    pairs
}

proptest! {
    /// For every threshold and shard count, the streamed per-shard
    /// candidate runs decode to exactly the reference pair set of that
    /// shard — the filters are candidate-set-preserving, pair for pair.
    #[test]
    fn filtered_probe_matches_exhaustive_reference(
        external_seeds in vec(0u64..u64::MAX, 1..24),
        local_seeds in vec(0u64..u64::MAX, 1..32),
    ) {
        let key = BlockingKey::per_side(EXT_PN, LOC_PN, 0);
        let external = RecordStore::from_records(&store_of(EXT_PN, "http://provider.e.org/item", &external_seeds));
        let local_records = store_of(LOC_PN, "http://local.e.org/prod", &local_seeds);
        for &threshold in &THRESHOLDS {
            let blocker = BigramBlocker::new(key.clone(), threshold);
            for shards in [1usize, 3] {
                let sharded = ShardedStore::from_records(&local_records, shards);
                let mut runs = CandidateRuns::new();
                blocker.stream_candidates(&external, (&sharded).into(), &mut runs);
                for s in 0..shards {
                    let mut streamed: Vec<(usize, usize)> = runs.pairs(s).collect();
                    streamed.sort_unstable();
                    let expected = reference_pairs(&key, threshold, &external, sharded.shard(s));
                    prop_assert_eq!(
                        &streamed,
                        &expected,
                        "threshold {} shard {}/{} diverged",
                        threshold,
                        s,
                        shards
                    );
                }
            }
        }
    }
}
