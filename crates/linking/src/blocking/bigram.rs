//! Bi-gram indexing.
//!
//! Related work of the paper: "In Bi-gram methods, attribute values are
//! converted into sub-strings of two characters (bi-gram) and sub-lists of
//! all possible permutations are built using a threshold (between 0.0 and
//! 1.0). The resulting bigram lists are sorted and inserted into an inverted
//! index, which will be used to retrieve the corresponding record numbers in
//! a block."
//!
//! This implementation follows the practical variant used by record-linkage
//! toolkits: each record's key value is converted into padded bigrams and
//! indexed in an inverted index; an (external, local) pair becomes a
//! candidate when the two records share at least
//! `ceil(threshold · min(|bigrams_e|, |bigrams_l|))` bigrams.
//!
//! The bigram sets and the inverted index are **store-level
//! precomputation**: both sides' padded key bigrams live in the store's
//! cached [`KeyIndex`](crate::token_index::KeyIndex) as packed `u64`s
//! (the [`TokenIndex`](crate::token_index::TokenIndex) bigram
//! representation), so the probe loop counts shared grams with pure
//! integer posting walks — no per-record `String` bigrams, no hash maps,
//! and zero allocations once the indexes are warm.
//!
//! The probe itself is a **filtered overlap join** in the
//! AllPairs/PPJoin style rather than an exhaustive count-all sweep:
//! grams are walked in ascending-document-frequency order, posting
//! lists are cut to a maximum-set-size window (**length filter**), the
//! walk stops once no unseen local could still reach its threshold
//! (**prefix filter**), a first touch is dropped when the two records'
//! remaining df-ordered grams cannot close the gap (**positional
//! filter**), and touched locals whose walked count stays below the
//! generalised-prefix floor `min(K, threshold)` are rejected from the
//! count alone; only the rare survivors are finished by an exact
//! verification scan that probes the walk's epoch-stamped gram marks
//! with one load per local gram. Every
//! filter is candidate-set-preserving: the emitted set is identical to
//! the exhaustive probe's, pair for pair (proved by the proptest
//! equivalence suite in `tests/bigram_filter.rs`).

use super::key::BlockingKey;
use super::{BigramFilterStats, Blocker, CandidateRuns, ProbeGram, RunScratch};
use crate::shard::LocalShards;
use crate::store::RecordStore;
use crate::token_index::PREFIX_ORDER;

/// Bi-gram inverted-index blocking.
#[derive(Debug, Clone, PartialEq)]
pub struct BigramBlocker {
    /// The key recipe selecting which value is indexed.
    pub key: BlockingKey,
    /// Fraction of the smaller record's bigrams that must be shared,
    /// in `[0, 1]`. Lower thresholds produce more candidates.
    pub threshold: f64,
}

impl BigramBlocker {
    /// A bigram blocker with the given key and sharing threshold.
    pub fn new(key: BlockingKey, threshold: f64) -> Self {
        BigramBlocker {
            key,
            threshold: threshold.clamp(0.0, 1.0),
        }
    }
}

/// Extend the integer threshold table so `tceil[m] = ceil(threshold · m)`
/// exists for every set size up to `upto` — computed once per
/// (call, size class) instead of per touched pair, bit-identical to the
/// former per-pair f64 rule.
fn ensure_tceil(tceil: &mut Vec<u32>, threshold: f64, upto: usize) {
    if tceil.is_empty() {
        tceil.push(0);
    }
    while tceil.len() <= upto {
        let m = tceil.len() as f64;
        tceil.push((threshold * m).ceil() as u32);
    }
}

/// The sharing rule for a pair whose smaller set has `smaller` grams:
/// shared distinct bigrams must reach `ceil(threshold · smaller)`,
/// never less than one.
#[inline]
fn required(tceil: &[u32], smaller: usize) -> usize {
    tceil[smaller].max(1) as usize
}

/// Translate external gram ids to `shard` gram ids (`u32::MAX` =
/// absent) with one sorted merge of the two value-sorted gram tables —
/// O(|external grams| + |shard grams|) once per shard, making every
/// per-probe gram lookup O(1).
fn build_gram_map(map: &mut Vec<u32>, external: &[u64], shard: &[u64]) {
    map.clear();
    map.resize(external.len(), u32::MAX);
    let mut j = 0;
    for (i, &gram) in external.iter().enumerate() {
        while j < shard.len() && shard[j] < gram {
            j += 1;
        }
        if j < shard.len() && shard[j] == gram {
            map[i] = j as u32;
        }
    }
}

/// Packed count-cell layout: the low [`COUNT_BITS`] bits hold the
/// walked shared-gram count, the rest the probe's count epoch (see
/// [`RunScratch::next_count_epoch`]).
const COUNT_BITS: u32 = 5;
/// Low-bits mask of a packed count cell.
const COUNT_MASK: u32 = (1 << COUNT_BITS) - 1;
/// The count value marking a record the positional filter dropped this
/// epoch: re-touching it costs one compare instead of a re-derived
/// bound (the bound only tightens at later touches, so a dropped
/// record stays dropped).
const DROPPED: u32 = COUNT_MASK;
/// Counts saturate one below the sentinel; a saturated count is a
/// *lower bound*, so `saturated ≥ needed` still accepts soundly and
/// anything undecidable falls through to the exact verification scan.
const SATURATED: u32 = COUNT_MASK - 1;

/// One counting sweep over a cut posting window: count every posting
/// once into the epoch-tagged cells, drop first touches whose two
/// records' remaining df-ordered grams cannot close the threshold gap
/// (the positional filter), and queue a record for the decide loop
/// exactly when its count reaches the decision floor
/// `min(PREFIX_ORDER, required)` — records that never get there are
/// free rejections and are never visited again.
fn scan_window(
    (records, sizes, tails): (&[u32], &[u32], &[u32]),
    remaining: usize,
    a: usize,
    epoch: u32,
    scratch: &mut RunScratch,
    stats: &mut BigramFilterStats,
) {
    let tag = epoch << COUNT_BITS;
    for ((&record, &size), &tail) in records.iter().zip(sizes).zip(tails) {
        let l = record as usize;
        let cell = scratch.counts[l];
        let count = if cell >> COUNT_BITS == epoch {
            cell & COUNT_MASK
        } else {
            0
        };
        if count == DROPPED {
            continue;
        }
        if count == 0 {
            let need = required(&scratch.tceil, a.min(size as usize));
            if remaining.min(tail as usize) < need {
                scratch.counts[l] = tag | DROPPED;
                stats.postings_skipped_position += 1;
            } else {
                scratch.counts[l] = tag | 1;
                if need == 1 {
                    scratch.touched.push(record);
                }
            }
        } else {
            let next = (count + 1).min(SATURATED);
            scratch.counts[l] = tag | next;
            if next <= PREFIX_ORDER as u32 {
                let need = required(&scratch.tceil, a.min(size as usize));
                if next == need.min(PREFIX_ORDER) as u32 {
                    scratch.touched.push(record);
                }
            }
        }
    }
}

/// `true` when at least `needed` of the local's df-ordered grams carry
/// the probe's epoch stamp (every shard-present external gram was
/// stamped before the walk): the verification scan for
/// counted-but-undecided candidates. One load per local gram instead
/// of a two-pointer merge over both packed-`u64` sets, with a
/// remaining-grams early exit in both directions (accept as soon as
/// the count is reached, reject as soon as the remainder cannot close
/// the gap).
fn overlap_reaches(df_set: &[u32], marks: &[u32], epoch: u32, needed: usize) -> bool {
    let mut shared = 0usize;
    for (idx, &id) in df_set.iter().enumerate() {
        if shared + (df_set.len() - idx) < needed {
            return false;
        }
        if marks[id as usize] == epoch {
            shared += 1;
            if shared >= needed {
                return true;
            }
        }
    }
    false
}

impl Blocker for BigramBlocker {
    fn name(&self) -> &'static str {
        "bigram-indexing"
    }

    /// Native streaming: a **prefix/length/positional-filtered overlap
    /// join** (AllPairs/PPJoin style) that emits exactly the exhaustive
    /// probe's candidate set.
    ///
    /// The external side's padded key bigrams come from the store-level
    /// [`KeyIndex`](crate::token_index::KeyIndex) (built or fetched
    /// **once** for all shards). Per shard, the external's grams are
    /// translated to the shard's gram table (one O(1)-lookup map built
    /// by a sorted merge) and re-sorted into the shard's (document
    /// frequency, gram id) order — the same total order every shard
    /// record's [`df_set`] uses, which makes the filters sound:
    ///
    /// * **prefix** — at walk position `i`, at most `n − i` of the
    ///   external's `n` shard-present grams remain shared; the walk
    ///   stops once even the smallest shard set's threshold exceeds
    ///   that reach (plus the `PREFIX_ORDER − 1` slack), and positions
    ///   past the external's *own* sharing rule only consult the
    ///   small-set size window;
    /// * **length** — at prefix positions, the shard's cached
    ///   `ThresholdLayout` cuts
    ///   each gram's postings to **exactly** the entries some
    ///   still-decidable pair needs (`ekey ≥ a`, one `partition_point`
    ///   on a precomputed key); at late positions, the (ascending set
    ///   size)-ordered base list is cut to the sets whose own rule
    ///   still fits the reach — usually a single first-size compare;
    /// * **positional** — a first touch meeting gram `g` at external
    ///   position `i` and local df-position `j` can share at most
    ///   `min(n − i, |B| − j)` grams (every other shared gram follows
    ///   `g` in *both* df orders), so touches below threshold are
    ///   dropped — and stay dropped at later touches, where the bound
    ///   only tightens.
    ///
    /// Locals whose walked count already reaches their threshold are
    /// emitted directly; ones whose count stays below the
    /// generalised-prefix floor `min(PREFIX_ORDER, threshold)`
    /// are rejected from the count alone (the windows carry a
    /// `PREFIX_ORDER − 1` slack exactly so that walked counts are
    /// complete over each pair's order-K prefix); the remaining
    /// undecided survivors are finished by the exact verification scan
    /// over the probe's epoch-stamped gram marks
    /// (`overlap_reaches`).
    /// Emission stays one explicit run per (external, shard) in
    /// deterministic first-floor-crossing order, and the whole probe
    /// reuses sink scratch — allocation-free once warm (the shard's
    /// per-threshold posting layout is built once, on the threshold's
    /// first-ever probe, then cached in the index).
    ///
    /// [`df_set`]: crate::token_index::KeyIndex
    fn stream_candidates(
        &self,
        external: &RecordStore,
        local: LocalShards<'_>,
        out: &mut CandidateRuns,
    ) {
        out.reset(local.shard_count());
        out.scratch.tceil.clear();
        let mut stats = BigramFilterStats::default();
        let external_index = external.key_index(&self.key.external_side(external));
        let external_bigrams = external_index.bigram_index();
        let local_side = self.key.local_side_of(local.schema());
        for (s, shard) in local.iter().enumerate() {
            // An inactive (delta-restricted) shard skips its whole probe
            // loop — including the gram-map rebuild and threshold-layout
            // touch, which is what makes a delta run O(new shards).
            if shard.is_empty() || !out.shard_active(s) {
                continue;
            }
            let local_index = shard.key_index(&local_side);
            let local_bigrams = local_index.bigram_index();
            ensure_tceil(
                &mut out.scratch.tceil,
                self.threshold,
                external_bigrams
                    .max_set_len()
                    .max(local_bigrams.max_set_len()) as usize,
            );
            build_gram_map(
                &mut out.scratch.gram_map,
                external_bigrams.gram_values(),
                local_bigrams.gram_values(),
            );
            let min_size = local_bigrams.min_set_len() as usize;
            let gram_count = local_bigrams.gram_values().len();
            // The per-threshold posting permutation: built on this
            // threshold's first-ever probe of the shard, a cached `Arc`
            // clone afterwards.
            let layout = local_bigrams.threshold_layout(self.threshold);
            for e in 0..external.len() {
                // Per-probe site: a counted trigger faults *mid-stream*,
                // with the sink already partially filled.
                fail::fail_point!("blocking::bigram");
                let a = external_bigrams.set(e).len();
                if a == 0 {
                    continue;
                }
                out.scratch.probe.clear();
                for &eid in external_bigrams.df_set(e) {
                    let sid = out.scratch.gram_map[eid as usize];
                    let df = if sid == u32::MAX {
                        0
                    } else {
                        local_bigrams.df(sid as usize)
                    };
                    out.scratch.probe.push(ProbeGram {
                        df,
                        shard_gram: sid,
                    });
                }
                out.scratch
                    .probe
                    .sort_unstable_by_key(|p| (p.df, p.shard_gram));
                // Shard-absent grams (df 0) sort first and can never be
                // shared; the walk covers the `n` present ones.
                let absent = out.scratch.probe.partition_point(|p| p.df == 0);
                let n = out.scratch.probe.len() - absent;
                // Stamp the probe's shard grams so the verification
                // scan can test "does the external contain this gram?"
                // with one load per local gram.
                let epoch = out.scratch.next_epoch(gram_count);
                for p in &out.scratch.probe[absent..] {
                    out.scratch.marks[p.shard_gram as usize] = epoch;
                }
                let cepoch = out.scratch.next_count_epoch(shard.len());
                let scratch = &mut out.scratch;
                // The weakest sharing rule any local can get against
                // this external: even the smallest local set must share
                // this many grams.
                let weakest = required(&scratch.tceil, a.min(min_size));
                let req_a = required(&scratch.tceil, a);
                for i in 0..n {
                    let remaining = n - i;
                    // At walk position `i` a needed posting's sharing
                    // rule must fit into the remaining probe grams plus
                    // the prefix-order slack (its order-K prefix window
                    // ends here otherwise).
                    let reach = remaining + PREFIX_ORDER - 1;
                    // Prefix filter: stop once even the weakest sharing
                    // rule exceeds the reach. The slack keeps every
                    // local's whole order-K prefix inside the walk, so
                    // the count stays complete over it and a count
                    // below `min(K, threshold)` rejects without a
                    // verification scan.
                    if weakest > reach {
                        stats.grams_skipped_prefix += remaining as u64;
                        break;
                    }
                    let sid = scratch.probe[absent + i].shard_gram as usize;
                    if req_a <= reach {
                        // Prefix position: the external's own order-K
                        // window is still open. The threshold layout's
                        // entry-key cut yields exactly the postings any
                        // still-decidable pair needs here — one binary
                        // search, one sweep, each posting counted once.
                        let (ekeys, records, sizes, tails) = layout.window(sid);
                        let end = ekeys.partition_point(|&k| k as usize >= a);
                        stats.postings_skipped_length += (records.len() - end) as u64;
                        scan_window(
                            (&records[..end], &sizes[..end], &tails[..end]),
                            remaining,
                            a,
                            cepoch,
                            scratch,
                            &mut stats,
                        );
                    } else {
                        // Late position: only sets small enough that
                        // their own sharing rule still fits the reach
                        // can open (or extend) an order-K window here —
                        // one size-ordered cut covers exactly those,
                        // and the external's ubiquitous grams cost at
                        // most a binary search instead of a posting
                        // sweep (usually just the first-size probe).
                        let capsize =
                            scratch.tceil[1..].partition_point(|&c| (c.max(1) as usize) <= reach);
                        let (records3, sizes3, tails3) = local_bigrams.posting_list(sid);
                        if sizes3.first().is_some_and(|&b| (b as usize) <= capsize) {
                            let end3 = sizes3.partition_point(|&b| (b as usize) <= capsize);
                            stats.postings_skipped_length += (records3.len() - end3) as u64;
                            scan_window(
                                (&records3[..end3], &sizes3[..end3], &tails3[..end3]),
                                remaining,
                                a,
                                cepoch,
                                scratch,
                                &mut stats,
                            );
                        } else {
                            stats.postings_skipped_length += records3.len() as u64;
                        }
                    }
                }
                // Touched holds exactly the records whose count
                // reached the decision floor `min(K, needed)` — the
                // count is complete over each pair's order-K prefix
                // windows (the slack above kept every such local in
                // every relevant window), so records below the floor
                // are proven non-candidates and were never queued.
                // Touched order (first-floor-crossing order) is
                // deterministic, and the pipeline index-sorts its
                // output, so no sort is needed here.
                for i in 0..out.scratch.touched.len() {
                    let l = out.scratch.touched[i] as usize;
                    let shared = (out.scratch.counts[l] & COUNT_MASK) as usize;
                    let b_df = local_bigrams.df_set(l);
                    let needed = required(&out.scratch.tceil, a.min(b_df.len()));
                    if shared >= needed {
                        out.push(s, e, l);
                    } else {
                        // Only genuine multi-collision survivors pay
                        // the verification scan.
                        stats.verify_merges += 1;
                        if overlap_reaches(b_df, &out.scratch.marks, epoch, needed) {
                            out.push(s, e, l);
                        }
                    }
                }
                out.scratch.touched.clear();
            }
        }
        out.scratch.filter_stats = stats;
    }

    /// Build each shard's key index, bigram postings and this
    /// threshold's posting-permutation layout (the local-side artifacts
    /// the filtered probe walk reads).
    fn warm(&self, local: LocalShards<'_>) {
        let local_side = self.key.local_side_of(local.schema());
        for shard in local.iter() {
            shard
                .key_index(&local_side)
                .bigram_index()
                .threshold_layout(self.threshold);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::test_support::*;
    use crate::blocking::{collect_pairs, BlockingStats};
    use crate::store::RecordStore;
    use std::collections::HashSet;

    fn key() -> BlockingKey {
        BlockingKey::per_side(EXT_PN, LOC_PN, 0)
    }

    #[test]
    fn identical_values_are_always_candidates() {
        let (external, local) = small_stores();
        let pairs = collect_pairs(&BigramBlocker::new(key(), 1.0), &external, &local);
        let set: HashSet<_> = pairs.iter().copied().collect();
        for i in 0..4 {
            assert!(set.contains(&(i, i)));
        }
    }

    #[test]
    fn lower_threshold_yields_more_candidates() {
        let (external, local) = small_stores();
        let strict = collect_pairs(&BigramBlocker::new(key(), 0.9), &external, &local);
        let loose = collect_pairs(&BigramBlocker::new(key(), 0.2), &external, &local);
        assert!(loose.len() >= strict.len());
        let strict_set: HashSet<_> = strict.into_iter().collect();
        let loose_set: HashSet<_> = loose.into_iter().collect();
        assert!(strict_set.is_subset(&loose_set));
    }

    #[test]
    fn typo_in_part_number_still_blocks_together() {
        let external = RecordStore::from_records(&[ext_record(0, "CRCW0805-10J")]); // one char off
        let local = RecordStore::from_records(&[
            loc_record(0, "CRCW0805-10K"),
            loc_record(1, "LM317-TO220"),
        ]);
        let pairs = collect_pairs(&BigramBlocker::new(key(), 0.6), &external, &local);
        let set: HashSet<_> = pairs.into_iter().collect();
        assert!(set.contains(&(0, 0)));
        assert!(!set.contains(&(0, 1)));
    }

    #[test]
    fn completeness_and_reduction_on_small_dataset() {
        let (external, local) = small_stores();
        let pairs = collect_pairs(&BigramBlocker::new(key(), 0.8), &external, &local);
        let true_pairs: HashSet<_> = (0..4).map(|i| (i, i)).collect();
        let stats = BlockingStats::evaluate(&pairs, &true_pairs, external.len(), local.len());
        assert_eq!(stats.pairs_completeness, 1.0);
        assert!(stats.reduction_ratio > 0.0);
    }

    #[test]
    fn sharded_candidates_equal_single_store() {
        // The sharing threshold depends only on the candidate pair's own
        // bigram sets, so the per-shard union equals the global set.
        let (external_records, local_records) = small_dataset();
        let external = RecordStore::from_records(&external_records);
        let local = RecordStore::from_records(&local_records);
        let blocker = BigramBlocker::new(key(), 0.6);
        let single = collect_pairs(&blocker, &external, &local);
        for shard_count in [2, 3, 9] {
            let sharded_store =
                crate::shard::ShardedStore::from_records(&local_records, shard_count);
            let sharded = collect_pairs(&blocker, &external, &sharded_store);
            assert_eq!(sharded, single, "{shard_count} shards");
        }
    }

    #[test]
    fn threshold_is_clamped_and_empty_inputs_ok() {
        let blocker = BigramBlocker::new(key(), 7.0);
        assert_eq!(blocker.threshold, 1.0);
        assert_eq!(blocker.name(), "bigram-indexing");
        let (e, l) = empty_stores();
        assert!(collect_pairs(&blocker, &e, &l).is_empty());
        // Record without the key property produces no candidates.
        let external = RecordStore::from_records(&[crate::record::Record::new(
            classilink_rdf::Term::iri("http://provider.e.org/item/9"),
        )]);
        let (_, local) = small_stores();
        assert!(collect_pairs(&blocker, &external, &local).is_empty());
    }
}
