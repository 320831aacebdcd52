//! Sorted neighbourhood blocking.
//!
//! Related work of the paper: "Sorted Neighbourhood (SN) method sorts the
//! data items using a sorting key. A window of a given size is moved on the
//! list of sorted data items and those belonging to the window are compared."
//!
//! The locals are sorted by the sorting key into one **ladder**, ordered
//! by (sort value, global id), merged once from the catalog's shards'
//! [`KeyIndex`] ladders and cached on the catalog (a `CatalogLadder`).
//! Each external record is then *inserted* into that ladder at its own
//! sort position and windows against the `window − 1` nearest locals on
//! either side — two slices of the ladder. The externals have a ladder of
//! their own, so their insertion points are found by one merge walk of
//! the two ladders, each external galloping on from the one sorted before
//! it.
//!
//! Every ladder slot carries its sort value's first eight bytes as one
//! big-endian, zero-padded `u64` — a word that is monotone in the byte
//! order of the values — so the placement walk and the catalog merge
//! compare integers, and fall back to the arena strings, then to the
//! global id, only when two words are equal (values sharing eight bytes,
//! or one a prefix of the other). The order is exactly (sort value, global
//! id); the words only decide most comparisons sooner.
//!
//! This per-external formulation has three properties the engine leans
//! on:
//!
//! * **The window is a property of the record, not of the batch.** An
//!   external's candidates depend only on its sort value and the local
//!   ladder — other externals never consume window slots. A
//!   single-record probe (see [`crate::serve`]) therefore produces
//!   exactly the candidates the same record gets inside a bulk run.
//! * **No dedup is needed.** The two slices are disjoint and each local
//!   occurs once in the ladder, so every (external, local) pair is
//!   emitted at most once; all pushes of one external are consecutive
//!   per shard, so the sink coalesces them into one explicit block per
//!   (shard, external).
//! * **Shard counts are invisible.** The merged ladder holds every shard's
//!   locals by (sort value, global id), so the candidate set over a
//!   [`ShardedStore`] is byte-identical to the one-shard catalog's even
//!   when a window straddles shards.
//!
//! Ties replicate the classic merged-list convention: an external with
//! sort value `v` inserts **after** every local whose sort value is
//! `≤ v` (locals sort before externals on equal keys), and equal-valued
//! locals order by global id.

use super::key::{BlockingKey, KeySide};
use super::{Blocker, CandidateRuns};
use crate::shard::ShardedStore;
use crate::store::RecordStore;
use crate::token_index::{KeyIndex, Rung};
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

    /// Native streaming, in two passes. Placement: the externals in their
    /// own ladder's order — (sort value, id), cached on their key index —
    /// are one sorted list, so each one's insertion point in the local
    /// side's ladder is found by galloping forward from the previous
    /// one's: one merge walk, `O(E · log(n / E))` compares for E externals
    /// over n locals (`O(log n)` for a one-record probe). The walk
    /// compares the ladders' integer words and reads a sort value (an
    /// arena borrow) only where two words tie. Emission, in external-id
    /// order: the `window − 1` rungs below each external's point, nearest
    /// first, then the `window − 1` above. Each external's pushes are
    /// consecutive per shard, so the sink coalesces them into one explicit
    /// block per (shard, external). Once both ladders are built (the local
    /// one by [`warm`](Blocker::warm), the external one by the first
    /// call), a call allocates nothing.
    fn stream_candidates(
        &self,
        external: &RecordStore,
        local: &ShardedStore,
        out: &mut CandidateRuns,
    ) {
        out.reset(external.len(), local);
        fail::fail_point!("blocking::sorted_neighborhood");
        if self.window < 2 || external.is_empty() || local.is_empty() {
            // `new()` clamps, but the field is public: a window of 0 or
            // 1 holds no cross-source pair.
            return;
        }
        let reach = self.window - 1;
        let external_keys = external.key_index(&self.key.external_side(external));
        // No shard_active skip of the placement: the sliding window is
        // global, so every external is placed in the whole catalog's
        // ladder to decide which new-shard records fall inside its window.
        let ladder = local.sort_ladder(&self.key.local_side_of(local.schema()));
        let (keys, rungs) = (&ladder.keys[..], &ladder.rungs[..]);
        // Placement: the externals in (sort value, id) order, each
        // galloping on from the one before.
        let mut places = std::mem::take(&mut out.scratch.places);
        places.clear();
        places.resize(external.len(), 0);
        let mut placed = 0;
        for rung in external_keys.ladder() {
            let value = external_keys.sort_value(rung.record as usize);
            let sorts_first = |r: &Rung| at_or_before(keys, r, rung.word, value);
            placed += gallop(&rungs[placed..], sorts_first);
            places[rung.record as usize] =
                u32::try_from(placed).expect("sort ladder exceeds u32::MAX rungs");
        }
        // Emission, in external-id order.
        for (e, &p) in places.iter().enumerate() {
            let p = p as usize;
            let below = &rungs[p.saturating_sub(reach)..p];
            let above = &rungs[p..rungs.len().min(p.saturating_add(reach))];
            for rung in below.iter().rev().chain(above) {
                // Under a delta restriction most rungs lie in old shards:
                // a compare here, not a call into the sink.
                if out.shard_active(rung.shard as usize) {
                    out.push(rung.shard as usize, e, rung.record as usize);
                }
            }
        }
        out.scratch.places = places;
    }

    /// Build the ladder the windows slice: each shard's key index and
    /// sort ladder, and the catalog ladder merged from them.
    fn warm(&self, local: &ShardedStore) {
        local.sort_ladder(&self.key.local_side_of(local.schema()));
    }
}

/// A rung's sort value, read from its shard's key index.
fn sort_value<'a>(keys: &'a [Arc<KeyIndex>], rung: &Rung) -> &'a str {
    keys[rung.shard as usize].sort_value(rung.record as usize)
}

/// Whether `rung` sorts at or before the sort value `value`, of word
/// `word`: the ladder's order short of its global-id tie-break, deciding
/// on the words and reading the rung's sort value only when they tie.
fn at_or_before(keys: &[Arc<KeyIndex>], rung: &Rung, word: u64, value: &str) -> bool {
    rung.word < word || (rung.word == word && sort_value(keys, rung) <= value)
}

/// A catalog's sort ladder for one key side: every local of the
/// leading shards it covers, as (word, shard, record) rungs ordered by
/// (sort value, global id). Derived from the shards' own ladders and
/// cached on the catalog, never persisted (see
/// [`ShardedStore::sort_ladder`](crate::shard::ShardedStore::sort_ladder));
/// an appended catalog starts from its parent's and merges in only the
/// new shards.
#[derive(Debug, Default)]
pub(crate) struct CatalogLadder {
    /// Each covered shard's key index, in catalog order.
    keys: Vec<Arc<KeyIndex>>,
    /// The merged rungs.
    rungs: Vec<Rung>,
}

impl CatalogLadder {
    /// Number of leading catalog shards the ladder covers.
    pub(crate) fn shard_count(&self) -> usize {
        self.keys.len()
    }

    /// This ladder with `shards` — the catalog shards that follow the
    /// ones it covers — merged in, one after the other. Each merge is two
    /// ways and gallops, so a small delta costs its own rungs' searches
    /// plus one copy of this ladder.
    pub(crate) fn extended<'a>(
        &self,
        shards: impl IntoIterator<Item = &'a RecordStore>,
        side: &KeySide,
    ) -> CatalogLadder {
        let mut keys = self.keys.clone();
        let mut rungs = None;
        for store in shards {
            fail::fail_point!("blocking::sorted_neighborhood::ladder");
            let shard = u32::try_from(keys.len()).expect("shard count exceeds u32::MAX");
            keys.push(store.key_index(side));
            let below: &[Rung] = rungs.as_deref().unwrap_or(&self.rungs);
            let mut merged = Vec::with_capacity(below.len() + store.len());
            merge(below, shard, &keys, &mut merged);
            rungs = Some(merged);
        }
        let rungs = rungs.unwrap_or_else(|| self.rungs.clone());
        CatalogLadder { keys, rungs }
    }
}

/// Merge the own ladder of shard `shard` (the last of `keys`) into
/// `below`, whose rungs all lie in earlier shards, onto `out`. Each of the
/// shard's rungs gallops forward through `below` to the first rung it
/// precedes, and the rungs passed over are copied in one go.
fn merge(below: &[Rung], shard: u32, keys: &[Arc<KeyIndex>], out: &mut Vec<Rung>) {
    let index = &keys[shard as usize];
    let mut rest = below;
    for &rung in index.ladder() {
        let rung = Rung { shard, ..rung };
        let value = index.sort_value(rung.record as usize);
        // Every rung of `below` has a smaller global id, so it goes first
        // unless its sort value is greater.
        let taken = gallop(rest, |r| at_or_before(keys, r, rung.word, value));
        out.extend_from_slice(&rest[..taken]);
        out.push(rung);
        rest = &rest[taken..];
    }
    out.extend_from_slice(rest);
}

/// The length of the prefix of `rungs` that `holds` holds on (it must hold
/// on a prefix): probe at doubling distances from the front, then bisect
/// the last one — `O(log answer)` comparisons, so runs of `below` that
/// interleave finely cost about one comparison a rung.
fn gallop(rungs: &[Rung], holds: impl Fn(&Rung) -> bool) -> usize {
    let (mut known, mut step) = (0, 1);
    while known + step <= rungs.len() && holds(&rungs[known + step - 1]) {
        known += step;
        step *= 2;
    }
    let limit = rungs.len().min(known + step - 1);
    known + rungs[known..limit].partition_point(holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::test_support::*;
    use crate::blocking::{collect_pairs, BlockingStats, CandidatePair, CartesianBlocker};
    use crate::record::Record;
    use crate::shard::ShardedStore;
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

    /// The naive per-external reference, on strings, in emission order:
    /// insert each external into the (sort value, id)-ordered local list
    /// and take `window − 1` on each side, nearest first — every pair,
    /// duplicates kept.
    fn emission_reference(
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
        let reach = window - 1;
        let mut expected: Vec<CandidatePair> = Vec::new();
        for e in 0..external.len() {
            let value = side_e.sort_value(external, e);
            let position = ladder.partition_point(|(v, _)| *v <= value);
            let below = ladder[position.saturating_sub(reach)..position]
                .iter()
                .rev();
            for (_, l) in below.chain(ladder[position..].iter().take(reach)) {
                expected.push((e, *l));
            }
        }
        expected
    }

    /// [`emission_reference`], sorted.
    fn reference(
        key: &BlockingKey,
        external: &RecordStore,
        local: &RecordStore,
        window: usize,
    ) -> Vec<CandidatePair> {
        let mut expected = emission_reference(key, external, local, window);
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
                reference(&key(), &external, local.shard(0), window),
                "window {window}"
            );
        }
    }

    /// Local part numbers built to tie, straddle and undercut the first
    /// eight bytes of their sort values.
    const TIED_LOCALS: [&str; 22] = [
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

    /// External part numbers to insert among [`TIED_LOCALS`].
    const TIED_EXTERNALS: [&str; 12] = [
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

    fn tied_stores() -> (RecordStore, Vec<Record>) {
        let external_records: Vec<_> = (TIED_EXTERNALS.iter().enumerate())
            .map(|(i, pn)| ext_record(i, pn))
            .collect();
        let local_records = (TIED_LOCALS.iter().enumerate())
            .map(|(i, pn)| loc_record(i, pn))
            .collect();
        (RecordStore::from_records(&external_records), local_records)
    }

    /// The ladder's words decide most comparisons, never the order: on sort
    /// values built to tie, straddle and undercut the first eight bytes,
    /// the windows are exactly the string reference's at any sharding.
    #[test]
    fn words_never_reorder_the_ladder() {
        let (external, local_records) = tied_stores();
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
    fn sharded_candidates_equal_one_shard() {
        // The walk merges per-shard ladders by (sort value, global id),
        // so the sharded set must be byte-identical to the one-shard set
        // even for windows that straddle two shards.
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
        let local = ShardedStore::from_records(&local_records, 1);
        for window in [2, 4, 9] {
            let blocker = SortedNeighborhoodBlocker::new(key(), window);
            let single = collect_pairs(&blocker, &external, &local);
            for shard_count in [2, 5, 13] {
                let sharded_store =
                    crate::shard::ShardedStore::from_records(&local_records, shard_count);
                let sharded = collect_pairs(&blocker, &external, &sharded_store);
                assert_eq!(sharded, single, "window {window}, {shard_count} shards");
            }
        }
    }

    /// A one-shard catalog windows over a catalog ladder like any other:
    /// its shard's own ladder rung for rung, copied by the first stream
    /// and served from the catalog's cache to every later one.
    #[test]
    fn a_one_shard_catalog_windows_over_its_cached_ladder() {
        let (external, local_records) = tied_stores();
        let local = RecordStore::from_records(&local_records);
        let catalog = ShardedStore::from_records(&local_records, 1);
        let side = key().local_side_of(catalog.schema());
        assert!(catalog.cached_ladder(&side).is_none());
        let n = local_records.len();
        let mut runs = CandidateRuns::new();
        let mut ladders = Vec::new();
        for window in [2, 3, n + 1, usize::MAX] {
            let blocker = SortedNeighborhoodBlocker { key: key(), window };
            blocker.stream_candidates(&external, &catalog, &mut runs);
            let expected = emission_reference(&key(), &external, &local, window);
            assert!(runs.pairs(0).eq(expected), "window {window}");
            ladders.push(catalog.cached_ladder(&side).expect("cached by the stream"));
        }
        let ladder = &ladders[0];
        assert!(ladders.iter().all(|l| Arc::ptr_eq(l, ladder)));
        assert_eq!(ladder.shard_count(), 1);
        assert_eq!(ladder.rungs, catalog.shard(0).key_index(&side).ladder());
        assert!(ladder.rungs.iter().all(|rung| rung.shard == 0));
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

    /// A window set through the public field to the catalog's size, one
    /// more, or `usize::MAX` cannot overflow the reach: each external pairs
    /// with each local at most once, and from one past the catalog's size
    /// on, with every local exactly once, at any sharding.
    #[test]
    fn windows_as_wide_as_the_catalog_emit_every_local_once() {
        let (external, local_records) = tied_stores();
        let local = RecordStore::from_records(&local_records);
        let n = local_records.len();
        let every: Vec<CandidatePair> = (0..external.len())
            .flat_map(|e| (0..n).map(move |l| (e, l)))
            .collect();
        for window in [n, n + 1, usize::MAX] {
            let blocker = SortedNeighborhoodBlocker { key: key(), window };
            let expected = reference(&key(), &external, &local, window);
            if window > n {
                assert_eq!(expected, every, "window {window}");
            }
            for shard_count in [1, 3, n, n + 4] {
                let sharded = ShardedStore::from_records(&local_records, shard_count);
                let pairs = collect_pairs(&blocker, &external, &sharded);
                assert_eq!(pairs, expected, "window {window}, {shard_count} shards");
                assert!(pairs.windows(2).all(|w| w[0] < w[1]), "window {window}");
            }
        }
    }

    /// Equal sort values, and values tying on their 8-byte word, that lie
    /// in different shards come out in global-id order: the catalog's
    /// ladder is ordered by (sort value, global id), and every (shard,
    /// external) block holds that shard's share of the reference's
    /// emission sequence, in that sequence's order.
    #[test]
    fn ties_across_shards_come_out_in_global_id_order() {
        let (external, local_records) = tied_stores();
        let local = RecordStore::from_records(&local_records);
        let mut order: Vec<(String, usize)> = (local_records.iter().enumerate())
            .map(|(l, _)| (key().local_side(&local).sort_value(&local, l), l))
            .collect();
        order.sort();
        for shard_count in [2, 5, 13] {
            let sharded = ShardedStore::from_records(&local_records, shard_count);
            let ladder = sharded.sort_ladder(&key().local_side_of(sharded.schema()));
            let slots: Vec<(String, usize)> = (ladder.rungs.iter())
                .map(|rung| {
                    let value = sort_value(&ladder.keys, rung).to_string();
                    (
                        value,
                        sharded.global(rung.shard as usize, rung.record as usize),
                    )
                })
                .collect();
            assert_eq!(slots, order, "{shard_count} shards");
            for window in [2, 4, 10, usize::MAX] {
                let expected = emission_reference(&key(), &external, &local, window);
                let blocker = SortedNeighborhoodBlocker { key: key(), window };
                let mut runs = CandidateRuns::new();
                blocker.stream_candidates(&external, &sharded, &mut runs);
                for s in 0..shard_count {
                    let ids = sharded.offset(s)..sharded.offset(s) + sharded.shard(s).len();
                    let share = expected.iter().filter(|(_, l)| ids.contains(l));
                    let emitted = runs.pairs(s).map(|(e, l)| (e, sharded.global(s, l)));
                    assert!(
                        emitted.eq(share.copied()),
                        "window {window}, shard {s}/{shard_count}"
                    );
                }
            }
        }
    }

    /// Sort values drawn to tie: runs of `a` (an `A` lowercases into one)
    /// with a short tail, so values share their 8-byte word, repeat, are
    /// prefixes of each other or are empty (`-` is stripped), and an `é`
    /// can straddle byte 8.
    const TIED_VALUES: &str = "[aA]{0,9}[abé-]{0,3}";

    /// The streamed windows against [`emission_reference`] over 1, 3 and n
    /// shards at windows 2, 3, n + 1 and `usize::MAX`, through sinks
    /// restricted to shards `first..` for a few `first`: every active
    /// shard holds its share of the reference's emission sequence, in
    /// that order, and every inactive shard nothing.
    fn assert_windows_match(externals: &[String], locals: &[String]) {
        let external_records: Vec<_> = (externals.iter().enumerate())
            .map(|(i, pn)| ext_record(i, pn))
            .collect();
        let local_records: Vec<_> = (locals.iter().enumerate())
            .map(|(i, pn)| loc_record(i, pn))
            .collect();
        let external = RecordStore::from_records(&external_records);
        let local = RecordStore::from_records(&local_records);
        let n = locals.len();
        let mut runs = CandidateRuns::new();
        for window in [2, 3, n + 1, usize::MAX] {
            let expected = emission_reference(&key(), &external, &local, window);
            let blocker = SortedNeighborhoodBlocker { key: key(), window };
            for shard_count in [1, 3, n] {
                let sharded = ShardedStore::from_records(&local_records, shard_count);
                let shards = sharded.shard_count();
                for first in [0, 1, shards - 1] {
                    runs.restrict_to_shards_from(first);
                    blocker.stream_candidates(&external, &sharded, &mut runs);
                    for s in 0..shards {
                        let ids = sharded.offset(s)..sharded.offset(s) + sharded.shard(s).len();
                        let share =
                            (expected.iter()).filter(|(_, l)| s >= first && ids.contains(l));
                        let emitted = runs.pairs(s).map(|(e, l)| (e, sharded.global(s, l)));
                        assert!(
                            emitted.eq(share.copied()),
                            "window {window}, shard {s}/{shards} from {first}: \
                             externals {externals:?}, locals {locals:?}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// One external — the probe's shape — placed among many locals.
        #[test]
        fn a_lone_external_is_placed_like_the_reference(
            externals in proptest::collection::vec(TIED_VALUES, 1..2),
            locals in proptest::collection::vec(TIED_VALUES, 1..40),
        ) {
            assert_windows_match(&externals, &locals);
        }

        /// Many more externals than locals: most gallop zero steps, and
        /// equal externals share their insertion point.
        #[test]
        fn many_externals_are_placed_like_the_reference(
            externals in proptest::collection::vec(TIED_VALUES, 20..160),
            locals in proptest::collection::vec(TIED_VALUES, 1..8),
        ) {
            assert_windows_match(&externals, &locals);
        }
    }

    /// An appended catalog is handed its parent's ladder and merges only
    /// its new shards into it: the result equals a fresh merge of all its
    /// shards rung for rung, is cached, and is shared by clones.
    #[test]
    fn an_appended_catalog_merges_its_new_shards_into_the_parent_ladder() {
        let (_, local_records) = tied_stores();
        let (base_records, delta_records) = local_records.split_at(13);
        let base = ShardedStore::from_records(base_records, 3);
        let unstreamed = base.clone();
        let side = key().local_side_of(base.schema());
        let parent = base.sort_ladder(&side);
        let delta = || {
            let mut delta = base.delta_builder();
            for (i, record) in delta_records.iter().enumerate() {
                if i % 5 == 0 {
                    delta.begin_shard();
                }
                delta.push(record);
            }
            delta
        };
        let seeded = base.append_shards(delta());
        let fresh = unstreamed.append_shards(delta());
        assert_eq!(seeded.shard_count(), 5);
        let seed = seeded.cached_ladder(&side).expect("the parent's ladder");
        assert!(Arc::ptr_eq(&seed, &parent));
        assert!(fresh.cached_ladder(&side).is_none());

        let grown = seeded.sort_ladder(&side);
        let merged = fresh.sort_ladder(&side);
        assert_eq!(grown.shard_count(), 5);
        assert_eq!(grown.rungs, merged.rungs);
        assert_eq!(parent.shard_count(), 3, "the parent's ladder is untouched");
        for (a, b) in grown.keys.iter().zip(&parent.keys) {
            assert!(Arc::ptr_eq(a, b), "the base shards' key indexes are shared");
        }
        assert!(Arc::ptr_eq(&grown, &seeded.sort_ladder(&side)));
        assert!(Arc::ptr_eq(&grown, &seeded.clone().sort_ladder(&side)));
    }
}
