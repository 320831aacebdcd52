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
//! The bigram sets are **store-level precomputation**: both sides' padded
//! key bigrams live in the store's cached
//! [`KeyIndex`](crate::token_index::KeyIndex) as ids into a value-sorted
//! table of packed `u64` grams — zero allocations once the indexes are
//! warm.
//!
//! The probe **counts, it does not filter**: for one external record it
//! computes the exact number of grams shared with *every* record of a
//! shard, 64 records a machine word, in **bit-sliced** counters — plane
//! `k` holds bit `k` of all the counts. Each of the external's grams is
//! one ripple-carry addition of the gram's records (a bitmap row, or a
//! short position list below the dense cut-off — the shard's
//! `GramCounter`, counted out of its gram-id sets, see
//! [`token_index`](crate::token_index)), and the
//! sharing rule is one bit-sliced `count ≥ required` comparison per run
//! of records it treats alike. Every count is exact, so the candidate
//! set is the definition's with nothing to prove —
//! `tests/bigram_filter.rs` and the identity matrix pin it against the
//! string-keyed count of the shared oracle (`tests/common/oracle.rs`) all
//! the same.
//!
//! The cost of a probe is `O(Σ_dense ⌈N/64⌉ · planes + Σ_sparse df)`
//! over the external's grams, `planes = bits(|bigrams_e|)`: linear in
//! the shard size `N`, with a constant of a few vector operations per
//! 64 records and gram.

use super::key::BlockingKey;
use super::{Blocker, CandidateRuns};
use crate::shard::ShardedStore;
use crate::store::RecordStore;
use crate::token_index::GramPositions;

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

/// Number of counter planes a count up to `max` needs: its bit length.
fn planes_for(max: usize) -> usize {
    (usize::BITS - max.leading_zeros()) as usize
}

/// Add one to the count of every position set in `row`: a ripple-carry
/// addition across the planes, all words of a plane at once. `planes`
/// holds the live planes only (a carry out of the last one cannot
/// happen: no count exceeds the probe's gram count).
fn add_row(planes: &mut [u64], carry: &mut [u64], row: &[u64]) {
    carry.copy_from_slice(row);
    for plane in planes.chunks_exact_mut(row.len()) {
        for (count, carry) in plane.iter_mut().zip(carry.iter_mut()) {
            let overflow = *count & *carry;
            *count ^= *carry;
            *carry = overflow;
        }
    }
}

/// Add one to the count of each listed position: the single-bit ripple.
fn add_list(planes: &mut [u64], words: usize, positions: &[u32]) {
    for &position in positions {
        let word = position as usize / 64;
        let mut carry = 1u64 << (position % 64);
        for plane in planes.chunks_exact_mut(words) {
            let overflow = plane[word] & carry;
            plane[word] ^= carry;
            carry = overflow;
        }
    }
}

/// Call `emit` with every position of `range` whose count is at least
/// `need` (`1 ..= 2^planes − 1`), ascending. `count ≥ need` exactly when
/// `count + (2^planes − need)` carries out of the top plane, and the
/// carry chain of adding a constant is one OR (constant bit set) or AND
/// (clear) a plane — computed for the range's words in `reaching`, whose
/// two end words are then masked to the range.
fn for_each_reaching(
    planes: &[u64],
    reaching: &mut [u64],
    need: usize,
    range: std::ops::Range<usize>,
    mut emit: impl FnMut(usize),
) {
    if range.is_empty() {
        return;
    }
    let words = reaching.len();
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    let reaching = &mut reaching[first..=last];
    reaching.fill(0);
    let addend = (1usize << (planes.len() / words)) - need;
    for (bit, plane) in planes.chunks_exact(words).enumerate() {
        let plane = &plane[first..=last];
        if addend >> bit & 1 == 1 {
            reaching.iter_mut().zip(plane).for_each(|(r, p)| *r |= p);
        } else {
            reaching.iter_mut().zip(plane).for_each(|(r, p)| *r &= p);
        }
    }
    reaching[0] &= !0 << (range.start % 64);
    reaching[last - first] &= !0 >> (63 - (range.end - 1) % 64);
    for (word, &bits) in reaching.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            emit((first + word) * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

impl Blocker for BigramBlocker {
    fn name(&self) -> &'static str {
        "bigram-indexing"
    }

    /// Native streaming: an exact **bit-sliced count-all probe**.
    ///
    /// The external side's padded key bigrams come from the store-level
    /// [`KeyIndex`](crate::token_index::KeyIndex) (built or fetched
    /// **once** for all shards). Per shard, the external gram ids are
    /// translated to the shard's gram table (one O(1)-lookup map built
    /// by a sorted merge); per (external, shard) the counter planes in
    /// the sink scratch are zeroed, every shard-present gram of the
    /// external is added, and each run of set sizes with one sharing
    /// rule `required(min(a, size))` — all sizes from `a` up are one
    /// run — is compared against it.
    ///
    /// Emission stays one explicit run per (external, shard), in
    /// ascending (set size, record id) order — deterministic, and the
    /// pipeline index-sorts its output — and the whole probe reuses
    /// sink scratch: allocation-free once the shard's counter artifact
    /// is built and the planes have grown.
    fn stream_candidates(
        &self,
        external: &RecordStore,
        local: &ShardedStore,
        out: &mut CandidateRuns,
    ) {
        out.reset(external.len(), local);
        out.scratch.tceil.clear();
        let external_index = external.key_index(&self.key.external_side(external));
        let external_bigrams = external_index.bigram_index();
        // No count exceeds the largest external set, whatever the shard.
        let max_planes = planes_for(external_bigrams.max_set_len() as usize);
        // One carry row, then the counter planes — out of the sink while
        // the probe loop pushes into it.
        let mut counts = std::mem::take(&mut out.scratch.planes);
        let local_side = self.key.local_side_of(local.schema());
        for (s, shard) in local.shards().iter().enumerate() {
            // An inactive (delta-restricted) shard skips its whole probe
            // loop — including the gram-map rebuild and the counter
            // build, which is what makes a delta run O(new shards).
            if shard.is_empty() || !out.shard_active(s) {
                continue;
            }
            let local_index = shard.key_index(&local_side);
            let local_bigrams = local_index.bigram_index();
            let counter = local_bigrams.counter();
            let max_size = local_bigrams.max_set_len() as usize;
            ensure_tceil(
                &mut out.scratch.tceil,
                self.threshold,
                max_size.max(external_bigrams.max_set_len() as usize),
            );
            build_gram_map(
                &mut out.scratch.gram_map,
                external_bigrams.gram_values(),
                local_bigrams.gram_values(),
            );
            let words = counter.words();
            if counts.len() < (max_planes + 1) * words {
                counts.resize((max_planes + 1) * words, 0);
            }
            for e in 0..external.len() {
                // Per-probe site: a counted trigger faults *mid-stream*,
                // with the sink already partially filled.
                fail::fail_point!("blocking::bigram");
                let grams = external_bigrams.id_set(e);
                let a = grams.len();
                let (carry, planes) = counts.split_at_mut(words);
                let planes = &mut planes[..planes_for(a) * words];
                planes.fill(0);
                let mut added = 0;
                for &gram in grams {
                    let shard_gram = out.scratch.gram_map[gram as usize];
                    if shard_gram == u32::MAX {
                        continue;
                    }
                    // No count exceeds the grams added so far: the
                    // planes above its bit length are still zero and
                    // no carry reaches them.
                    added += 1;
                    let live = &mut planes[..planes_for(added) * words];
                    match counter.gram(shard_gram as usize) {
                        GramPositions::Row(row) => add_row(live, carry, row),
                        GramPositions::List(list) => add_list(live, words, list),
                    }
                }
                let mut size = 1;
                while size <= max_size {
                    let need = required(&out.scratch.tceil, a.min(size));
                    let mut next = size + 1;
                    while next <= max_size && required(&out.scratch.tceil, a.min(next)) == need {
                        next += 1;
                    }
                    let range = counter.first_of_size(size)..counter.first_of_size(next);
                    for_each_reaching(planes, carry, need, range, |position| {
                        out.push(s, e, counter.record_of()[position] as usize)
                    });
                    size = next;
                }
            }
        }
        out.scratch.planes = counts;
    }

    /// Build each shard's key index, bigram gram table and counter
    /// (everything a probe of the shard reads).
    fn warm(&self, local: &ShardedStore) {
        let local_side = self.key.local_side_of(local.schema());
        for shard in local.shards() {
            shard.key_index(&local_side).bigram_index().counter();
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
        let local = ShardedStore::from_records(
            &[loc_record(0, "CRCW0805-10K"), loc_record(1, "LM317-TO220")],
            1,
        );
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
    fn sharded_candidates_equal_one_shard() {
        // The sharing threshold depends only on the candidate pair's own
        // bigram sets, so the per-shard union equals the global set.
        let (external_records, local_records) = small_dataset();
        let external = RecordStore::from_records(&external_records);
        let local = ShardedStore::from_records(&local_records, 1);
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
