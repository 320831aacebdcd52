//! Sorted neighbourhood blocking.
//!
//! Related work of the paper: "Sorted Neighbourhood (SN) method sorts the
//! data items using a sorting key. A window of a given size is moved on the
//! list of sorted data items and those belonging to the window are compared."
//!
//! The locals are sorted by the sorting key into one **ladder** (the
//! cached per-shard ladders of each shard's [`KeyIndex`], merged on the
//! fly across shard boundaries); each external record is then *inserted*
//! into that ladder at its own sort position and windows against the
//! `window − 1` nearest locals on either side.
//!
//! Every ladder slot carries its sort value's first eight bytes as one
//! big-endian, zero-padded `u64` — a word that is monotone in the byte
//! order of the values — so the insertion search and the k-way walk
//! compare integers, and fall back to the arena strings, then to the
//! global id, only when two words are equal (values sharing eight bytes,
//! or one a prefix of the other). The order is exactly (sort value,
//! global id); the words only decide most comparisons sooner.
//!
//! This per-external formulation has three properties the engine leans
//! on:
//!
//! * **The window is a property of the record, not of the batch.** An
//!   external's candidates depend only on its sort value and the local
//!   ladder — other externals never consume window slots. A
//!   single-record probe (see [`crate::serve`]) therefore produces
//!   exactly the candidates the same record gets inside a bulk run,
//!   and a singleton external side windows against every shard's
//!   ladder like any other record.
//! * **No dedup is needed.** The below/above walks cover disjoint
//!   ladder positions and each local occurs once in the ladder, so
//!   every (external, local) pair is emitted at most once; all pushes
//!   of one external are consecutive per shard, so the sink coalesces
//!   them into one explicit block per (shard, external).
//! * **Shard counts are invisible.** The walk merges the per-shard
//!   ladders by (sort value, global id) with one cursor per shard, so
//!   the candidate set over a
//!   [`ShardedStore`](crate::shard::ShardedStore) is byte-identical to
//!   the single-store run even when a window straddles shards.
//!
//! Ties replicate the classic merged-list convention: an external with
//! sort value `v` inserts **after** every local whose sort value is
//! `≤ v` (locals sort before externals on equal keys), and equal-valued
//! locals order by global id.

use super::key::BlockingKey;
use super::{Blocker, CandidateRuns};
use crate::shard::LocalShards;
use crate::store::RecordStore;
use crate::token_index::{sort_word, KeyIndex, Rung};
use std::cmp::Ordering;
use std::sync::Arc;

/// Sorted-neighbourhood blocking over the key-sorted local ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedNeighborhoodBlocker {
    /// The sorting key recipe.
    pub key: BlockingKey,
    /// The window size (≥ 2); each external record pairs with the
    /// `window − 1` nearest locals below its sort position and the
    /// `window − 1` nearest above.
    pub window: usize,
}

impl SortedNeighborhoodBlocker {
    /// A sorted-neighbourhood blocker with the given key and window size.
    pub fn new(key: BlockingKey, window: usize) -> Self {
        SortedNeighborhoodBlocker {
            key,
            window: window.max(2),
        }
    }
}

impl Blocker for SortedNeighborhoodBlocker {
    fn name(&self) -> &'static str {
        "sorted-neighborhood"
    }

    /// Native streaming. Per external record: a binary search per shard
    /// locates its insertion position in every shard's cached sort ladder,
    /// then one k-way cursor walk, run once downward and once upward,
    /// emits the `window − 1` globally-nearest locals on each side —
    /// `O(shards · (log n + window))` per external. Both compare the
    /// ladder's integer words and read a sort value (an arena borrow) only
    /// where two words tie. Each external's pushes are consecutive per
    /// shard, so the sink coalesces them into one explicit block per
    /// (shard, external). The per-shard cursors live in the sink's
    /// scratch: a warm call allocates nothing.
    fn stream_candidates(
        &self,
        external: &RecordStore,
        local: LocalShards<'_>,
        out: &mut CandidateRuns,
    ) {
        out.reset(external.len(), local);
        fail::fail_point!("blocking::sorted_neighborhood");
        if self.window < 2 || external.is_empty() || local.is_empty() {
            // `new()` clamps, but the field is public: a window of 0 or
            // 1 holds no cross-source pair (and would invert the walk).
            return;
        }
        let reach = self.window - 1;
        let external_keys = external.key_index(&self.key.external_side(external));
        let local_side = self.key.local_side_of(local.schema());
        // No shard_active skip here: the sliding window is global, so
        // the walk must see every shard's ladder to decide which
        // new-shard records fall inside an external's window; pushes
        // into restricted shards are dropped by the sink itself.
        let mut cursors = std::mem::take(&mut out.scratch.ladders);
        cursors.extend(local.iter().map(|shard| LadderCursor {
            keys: shard.key_index(&local_side),
            below: 0,
            above: 0,
        }));
        for e in 0..external.len() {
            let value = external_keys.sort_value(e);
            let word = sort_word(value);
            for cursor in &mut cursors {
                cursor.below = cursor.insertion(word, value);
                cursor.above = cursor.below;
            }
            // The two walks cover disjoint ladder positions, so no pair
            // is emitted twice.
            for direction in [Ordering::Greater, Ordering::Less] {
                for _ in 0..reach {
                    let Some((s, record)) = step(&mut cursors, local, direction) else {
                        break;
                    };
                    out.push(s, e, record);
                }
            }
        }
        cursors.clear();
        out.scratch.ladders = cursors;
    }

    /// Build each shard's key index **and** its sort ladder (the two
    /// local-side artifacts the window walk reads).
    fn warm(&self, local: LocalShards<'_>) {
        let local_side = self.key.local_side_of(local.schema());
        for shard in local.iter() {
            shard.key_index(&local_side).ladder();
        }
    }
}

/// One shard's place in a window walk: its key index (whose sort ladder
/// the walk reads) and the two cursors around the external's insertion
/// position — `below` is one past the next ladder slot downward, `above`
/// the next one upward.
#[derive(Debug)]
pub(crate) struct LadderCursor {
    keys: Arc<KeyIndex>,
    below: usize,
    above: usize,
}

impl LadderCursor {
    /// The number of ladder slots that sort at or before an external of
    /// sort value `value` (word `word`): every slot of a smaller word,
    /// then, among the slots sharing its word, those whose sort value is
    /// not greater — locals sort before an external on equal values.
    fn insertion(&self, word: u64, value: &str) -> usize {
        let ladder = self.keys.ladder();
        let start = ladder.partition_point(|rung| rung.word < word);
        let ties = ladder[start..].partition_point(|rung| rung.word == word);
        let tied = &ladder[start..start + ties];
        start + tied.partition_point(|rung| self.keys.sort_value(rung.record as usize) <= value)
    }
}

/// One step of the window walk: among the shards' next slots in
/// `direction` — the slot below each `below` cursor when walking down
/// (`Greater`: the largest wins), the slot at each `above` cursor when
/// walking up (`Less`: the smallest wins) — take the winner by (word,
/// sort value, global id), move its shard's cursor past it and return
/// `(shard, record)`; `None` when no shard has a slot left that way.
fn step(
    cursors: &mut [LadderCursor],
    local: LocalShards<'_>,
    direction: Ordering,
) -> Option<(usize, usize)> {
    // The winner so far: its shard and rung.
    let mut best: Option<(usize, Rung)> = None;
    // A rung's order past its word: the sort value, then the global id
    // (equal values in different shards).
    let tail = |s: usize, rung: Rung| {
        let record = rung.record as usize;
        (cursors[s].keys.sort_value(record), local.offset(s) + record)
    };
    for (s, cursor) in cursors.iter().enumerate() {
        let ladder = cursor.keys.ladder();
        let position = match direction {
            Ordering::Greater => cursor.below.checked_sub(1),
            _ => Some(cursor.above).filter(|&p| p < ladder.len()),
        };
        let Some(rung) = position.map(|p| ladder[p]) else {
            continue;
        };
        let wins = best.is_none_or(|(bs, b)| {
            let order = rung.word.cmp(&b.word);
            order.then_with(|| tail(s, rung).cmp(&tail(bs, b))) == direction
        });
        if wins {
            best = Some((s, rung));
        }
    }
    let (s, rung) = best?;
    let cursor = &mut cursors[s];
    match direction {
        Ordering::Greater => cursor.below -= 1,
        _ => cursor.above += 1,
    }
    Some((s, rung.record as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::test_support::*;
    use crate::blocking::{collect_pairs, BlockingStats, CandidatePair, CartesianBlocker};
    use crate::store::RecordStore;
    use std::collections::HashSet;

    fn key() -> BlockingKey {
        BlockingKey::per_side(EXT_PN, LOC_PN, 0)
    }

    #[test]
    fn window_covers_adjacent_records() {
        let (external, local) = small_stores();
        let blocker = SortedNeighborhoodBlocker::new(key(), 3);
        let pairs = collect_pairs(&blocker, &external, &local);
        let set: HashSet<_> = pairs.iter().copied().collect();
        // Identical part numbers sort adjacently, so every true pair is found.
        for i in 0..4 {
            assert!(set.contains(&(i, i)), "missing true pair ({i},{i})");
        }
        assert_eq!(blocker.name(), "sorted-neighborhood");
    }

    #[test]
    fn larger_window_finds_superset_of_pairs() {
        let (external, local) = small_stores();
        let small: HashSet<_> =
            collect_pairs(&SortedNeighborhoodBlocker::new(key(), 2), &external, &local)
                .into_iter()
                .collect();
        let large: HashSet<_> =
            collect_pairs(&SortedNeighborhoodBlocker::new(key(), 5), &external, &local)
                .into_iter()
                .collect();
        assert!(small.is_subset(&large));
        assert!(large.len() >= small.len());
    }

    #[test]
    fn full_window_equals_cartesian_coverage() {
        let (external, local) = small_stores();
        let total = external.len() + local.len();
        let all: HashSet<_> = collect_pairs(
            &SortedNeighborhoodBlocker::new(key(), total),
            &external,
            &local,
        )
        .into_iter()
        .collect();
        let cartesian: HashSet<_> = collect_pairs(&CartesianBlocker, &external, &local)
            .into_iter()
            .collect();
        assert_eq!(all, cartesian);
    }

    #[test]
    fn produces_fewer_pairs_than_cartesian_but_complete() {
        let (external, local) = small_stores();
        let pairs = collect_pairs(&SortedNeighborhoodBlocker::new(key(), 3), &external, &local);
        let true_pairs: HashSet<_> = (0..4).map(|i| (i, i)).collect();
        let stats = BlockingStats::evaluate(&pairs, &true_pairs, external.len(), local.len());
        assert_eq!(stats.pairs_completeness, 1.0);
        assert!(stats.reduction_ratio > 0.0);
    }

    #[test]
    fn window_is_clamped_to_two_and_empty_input_is_fine() {
        let blocker = SortedNeighborhoodBlocker::new(key(), 0);
        assert_eq!(blocker.window, 2);
        let (external, local) = empty_stores();
        assert!(collect_pairs(&blocker, &external, &local).is_empty());
    }

    #[test]
    fn degenerate_window_set_through_the_public_field_yields_no_pairs() {
        // The field is pub, so the constructor clamp can be bypassed;
        // a window of 0 or 1 must degrade to zero candidates, not panic.
        let (external, local) = small_stores();
        for window in [0, 1] {
            let blocker = SortedNeighborhoodBlocker { key: key(), window };
            assert!(
                collect_pairs(&blocker, &external, &local).is_empty(),
                "window {window}"
            );
        }
    }

    #[test]
    fn no_duplicate_pairs() {
        // The below/above walks cover disjoint ladder positions, so the
        // emitted list must already be duplicate-free.
        let (external, local) = small_stores();
        for window in 2..8 {
            let pairs = collect_pairs(
                &SortedNeighborhoodBlocker::new(key(), window),
                &external,
                &local,
            );
            let set: HashSet<_> = pairs.iter().copied().collect();
            assert_eq!(set.len(), pairs.len(), "window {window}");
            // And the list is sorted: the per-window runs were merged.
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "window {window}");
        }
    }

    /// The naive per-external reference, on strings: insert each external
    /// into the (sort value, id)-ordered local list and take `window − 1`
    /// on each side — every pair, sorted, duplicates kept.
    fn reference(
        key: &BlockingKey,
        external: &RecordStore,
        local: &RecordStore,
        window: usize,
    ) -> Vec<CandidatePair> {
        let side_e = key.external_side(external);
        let side_l = key.local_side_of(local.interner());
        let mut ladder: Vec<(String, usize)> = (0..local.len())
            .map(|l| (side_l.sort_value(local, l), l))
            .collect();
        ladder.sort();
        let mut expected: Vec<CandidatePair> = Vec::new();
        for e in 0..external.len() {
            let value = side_e.sort_value(external, e);
            let position = ladder.partition_point(|(v, _)| *v <= value);
            for (_, l) in &ladder[position.saturating_sub(window - 1)..position] {
                expected.push((e, *l));
            }
            for (_, l) in ladder[position..].iter().take(window - 1) {
                expected.push((e, *l));
            }
        }
        expected.sort_unstable();
        expected
    }

    /// The streamed candidates match a naive per-external reference:
    /// insert the external into the (sort value, id)-ordered local
    /// list, take `window − 1` on each side.
    #[test]
    fn pairs_match_the_per_external_reference() {
        let (external, local) = small_stores();
        for window in [2, 3, 5, 40] {
            let pairs = collect_pairs(
                &SortedNeighborhoodBlocker::new(key(), window),
                &external,
                &local,
            );
            assert_eq!(
                pairs,
                reference(&key(), &external, &local, window),
                "window {window}"
            );
        }
    }

    /// The ladder's words decide most comparisons, never the order: on sort
    /// values built to tie, straddle and undercut the first eight bytes,
    /// the walk windows exactly as the string reference at any sharding.
    #[test]
    fn words_never_reorder_the_ladder() {
        let locals = [
            "abcdefghX1", // 8+ shared bytes, differing at byte 9 …
            "abcdefghA2",
            "abcdefghij",
            "abcdefghii",
            "abcdefg", // … 7 / 8 / 9 bytes, one a prefix of the next …
            "abcdefgh",
            "abcdefgh0",
            "abcdefgz",
            "abc\0def", // … NUL and '-', which the key strips into ties …
            "abc-def",
            "abc\0",
            "abc-",
            "abc",
            "abcdefgh\0",
            "abcdefgh-",
            "abcdefgé", // … a multi-byte char across byte 8 …
            "abcdefgéz",
            "abcdefg€x",
            "abcdefgh", // … equal values, in different shards at most counts
            "ABCDEFGH0",
            "",
            "abcdefgh",
        ];
        let externals = [
            "abcdefgh", // equal to locals: they sort first
            "abcdefgh0",
            "ABCDEFGHA",
            "abcdefg",
            "abcdefgé",
            "abc-def",
            "abc\0",
            "abc",
            "",
            "zzzz",
            "abcdefgh\0",
            "abcdefgi",
        ];
        let local_records: Vec<_> = (locals.iter().enumerate())
            .map(|(i, pn)| loc_record(i, pn))
            .collect();
        let external_records: Vec<_> = (externals.iter().enumerate())
            .map(|(i, pn)| ext_record(i, pn))
            .collect();
        let external = RecordStore::from_records(&external_records);
        let local = RecordStore::from_records(&local_records);
        for window in [2, 3, 10] {
            let expected = reference(&key(), &external, &local, window);
            let blocker = SortedNeighborhoodBlocker::new(key(), window);
            for shard_count in [1, 2, 5, 13] {
                let sharded = crate::shard::ShardedStore::from_records(&local_records, shard_count);
                assert_eq!(
                    collect_pairs(&blocker, &external, &sharded),
                    expected,
                    "window {window}, {shard_count} shards"
                );
            }
        }
    }

    #[test]
    fn sharded_candidates_equal_single_store() {
        // The walk merges per-shard ladders by (sort value, global id),
        // so the sharded set must be byte-identical to the single-store
        // set even for windows that straddle two shards.
        let (external_records, local_records) = {
            let external: Vec<_> = (0..12)
                .map(|i| ext_record(i, &format!("PN-{:03}", i * 3)))
                .collect();
            let local: Vec<_> = (0..12)
                .map(|i| loc_record(i, &format!("PN-{:03}", i * 3 + 1)))
                .collect();
            (external, local)
        };
        let external = crate::store::RecordStore::from_records(&external_records);
        let local = crate::store::RecordStore::from_records(&local_records);
        for window in [2, 4, 9] {
            let blocker = SortedNeighborhoodBlocker::new(key(), window);
            let single = collect_pairs(&blocker, &external, &local);
            for shard_count in [1, 2, 5, 13] {
                let sharded_store =
                    crate::shard::ShardedStore::from_records(&local_records, shard_count);
                let sharded = collect_pairs(&blocker, &external, &sharded_store);
                assert_eq!(sharded, single, "window {window}, {shard_count} shards");
            }
        }
    }

    /// Regression for the 1-record-external edge: a singleton external
    /// must window against **every** shard's ladder, across the full
    /// sweep of degenerate window sizes — 1 (no pairs), larger than
    /// the whole catalog (every local), and everything between.
    #[test]
    fn singleton_external_windows_against_every_shard() {
        let local_records: Vec<_> = (0..9)
            .map(|i| loc_record(i, &format!("PN-{:03}", i * 2)))
            .collect();
        let external = crate::store::RecordStore::from_records(&[ext_record(0, "PN-009")]);
        for shard_count in [1, 3, 9, 12] {
            let sharded = crate::shard::ShardedStore::from_records(&local_records, shard_count);
            // Window 1 (set through the public field): no pairs.
            let degenerate = SortedNeighborhoodBlocker {
                key: key(),
                window: 1,
            };
            assert!(
                collect_pairs(&degenerate, &external, &sharded).is_empty(),
                "{shard_count} shards, window 1"
            );
            // Window larger than the catalog: every local, from every
            // shard, exactly once.
            let all = SortedNeighborhoodBlocker::new(key(), local_records.len() + 5);
            let pairs = collect_pairs(&all, &external, &sharded);
            let expected: Vec<CandidatePair> = (0..local_records.len()).map(|l| (0, l)).collect();
            assert_eq!(pairs, expected, "{shard_count} shards, full window");
            // An intermediate window takes the nearest locals on both
            // sides of the external's sort position. "PN-009" inserts
            // after PN-000..PN-008 (locals 0..=4) and before
            // PN-010..PN-016 (locals 5..=8).
            let nearest = SortedNeighborhoodBlocker::new(key(), 3);
            let pairs = collect_pairs(&nearest, &external, &sharded);
            assert_eq!(
                pairs,
                vec![(0, 3), (0, 4), (0, 5), (0, 6)],
                "{shard_count} shards, window 3"
            );
        }
    }
}
