//! Standard blocking: records sharing the same blocking key fall into the
//! same block, and only pairs inside one block are compared.
//!
//! Related work of the paper: "Blocking methods exploit an identified
//! (subset of) attribute(s) to split the data items into blocks. For example,
//! persons that share the same first five characters of their last name
//! belong to the same block."

use super::key::BlockingKey;
use super::{Blocker, CandidateRuns};
use crate::shard::ShardedStore;
use crate::store::RecordStore;

/// Key-equality blocking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandardBlocker {
    /// The blocking key recipe. Records with an empty key are skipped
    /// (they would otherwise all land in one giant block).
    pub key: BlockingKey,
}

impl StandardBlocker {
    /// Standard blocking with the given key.
    pub fn new(key: BlockingKey) -> Self {
        StandardBlocker { key }
    }
}

impl Blocker for StandardBlocker {
    fn name(&self) -> &'static str {
        "standard-blocking"
    }

    /// Native streaming: the external side's [`KeyIndex`] is built or
    /// fetched **once**; each shard is then probed per external record
    /// (equal-range lookup in the shard's sorted key table), emitting
    /// **one keyed block per external × equal-range** — the block
    /// stores `(table_start, len)` into the shard's key-sorted record
    /// table instead of `len` pairs, so the sink stays O(blocks)
    /// however large the key blocks are. No per-record `String`, no
    /// hash map, no allocation at all once the store-level indexes are
    /// warm. Probing external-major keeps the comparison phase's access
    /// pattern (long same-left-record runs) cache-friendly.
    ///
    /// [`KeyIndex`]: crate::token_index::KeyIndex
    fn stream_candidates(
        &self,
        external: &RecordStore,
        local: &ShardedStore,
        out: &mut CandidateRuns,
    ) {
        out.reset(external.len(), local);
        let external_index = external.key_index(&self.key.external_side(external));
        let local_side = self.key.local_side_of(local.schema());
        for (s, shard) in local.shards().iter().enumerate() {
            if !out.shard_active(s) {
                continue;
            }
            let local_index = shard.key_index(&local_side);
            out.set_key_table(s, local_index.clone());
            for e in 0..external.len() {
                // Per-probe site: a counted trigger faults *mid-stream*,
                // with the sink already partially filled.
                fail::fail_point!("blocking::standard");
                let key = external_index.key(e);
                if key.is_empty() {
                    continue;
                }
                let range = local_index.key_range(key);
                out.push_keyed(s, e, range.start, range.len());
            }
        }
    }

    /// Build each shard's key index (the only local-side artifact
    /// standard blocking reads).
    fn warm(&self, local: &ShardedStore) {
        let local_side = self.key.local_side_of(local.schema());
        for shard in local.shards() {
            shard.key_index(&local_side);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::test_support::*;
    use crate::blocking::{collect_pairs, BlockingStats};
    use std::collections::HashSet;

    fn key(prefix: usize) -> BlockingKey {
        BlockingKey::per_side(EXT_PN, LOC_PN, prefix)
    }

    #[test]
    fn same_prefix_lands_in_same_block() {
        let (external, local) = small_stores();
        let blocker = StandardBlocker::new(key(4));
        let pairs = collect_pairs(&blocker, &external, &local);
        // ext0 (crcw…) matches loc0 and loc1 shares only "crcw" prefix of length 4:
        // crcw0805 vs crcw0603 → both keys "crcw" → ext0 pairs with loc0, loc1;
        // ext1 idem; ext2 (t83a) with loc2; ext3 (lm31) with loc3.
        let set: HashSet<_> = pairs.iter().copied().collect();
        assert!(set.contains(&(0, 0)));
        assert!(set.contains(&(0, 1)));
        assert!(set.contains(&(1, 0)));
        assert!(set.contains(&(2, 2)));
        assert!(set.contains(&(3, 3)));
        assert!(!set.contains(&(0, 4)));
        assert_eq!(pairs.len(), 6);
        assert_eq!(blocker.name(), "standard-blocking");
    }

    #[test]
    fn longer_prefix_gives_fewer_candidates() {
        let (external, local) = small_stores();
        let loose = collect_pairs(&StandardBlocker::new(key(2)), &external, &local);
        let tight = collect_pairs(&StandardBlocker::new(key(8)), &external, &local);
        assert!(tight.len() <= loose.len());
        // With the full 8-char prefix every true pair is still found.
        let true_pairs: HashSet<_> = (0..4).map(|i| (i, i)).collect();
        let stats = BlockingStats::evaluate(&tight, &true_pairs, external.len(), local.len());
        assert_eq!(stats.pairs_completeness, 1.0);
        assert!(stats.reduction_ratio > 0.5);
    }

    #[test]
    fn records_missing_the_property_are_skipped() {
        let (mut external, local) = small_dataset();
        external.push(crate::record::Record::new(classilink_rdf::Term::iri(
            "http://provider.e.org/item/99",
        )));
        let external = crate::store::RecordStore::from_records(&external);
        let local = crate::shard::ShardedStore::from_records(&local, 1);
        let pairs = collect_pairs(&StandardBlocker::new(key(4)), &external, &local);
        assert!(pairs.iter().all(|(e, _)| *e != 4));
    }

    #[test]
    fn empty_inputs() {
        let (external, local) = empty_stores();
        let blocker = StandardBlocker::new(key(4));
        assert!(collect_pairs(&blocker, &external, &local).is_empty());
    }

    #[test]
    fn sharded_candidates_equal_one_shard() {
        // Key equality is a per-record predicate, so every sharding must
        // reproduce the one-shard list exactly.
        let (external_records, local_records) = small_dataset();
        let external = crate::store::RecordStore::from_records(&external_records);
        let local = crate::shard::ShardedStore::from_records(&local_records, 1);
        let blocker = StandardBlocker::new(key(4));
        let single = collect_pairs(&blocker, &external, &local);
        for shard_count in [2, 3, 7] {
            let sharded_store =
                crate::shard::ShardedStore::from_records(&local_records, shard_count);
            let sharded = collect_pairs(&blocker, &external, &sharded_store);
            assert_eq!(sharded, single, "{shard_count} shards");
        }
    }
}
