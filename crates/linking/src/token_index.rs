//! Store-level precomputation: the token tables of the set-based
//! similarity kernels and the key indexes of the blockers.
//!
//! A set measure (`jaccard_tokens`, `jaccard_chars`, `dice_bigrams`,
//! `monge_elkan`) compares token or bigram sets; tokenising, lowercasing
//! and deduplicating them per candidate pair is `O(candidates × string
//! work)` with several heap allocations per comparison. A `TokenTable`
//! moves that string work to the store, **one column at a time**: each
//! value of the column (or each record's full text, for the fallback) is
//! processed once, yielding
//!
//! * its tokens as dense ids into the table's own token arena, in
//!   appearance order (Monge-Elkan walks these): the learner's split,
//!   `Normalizer` into one buffer then the `SeparatorSegmenter`'s borrowed
//!   slices, so accents fold and a token is owned only once per table,
//! * the same ids **sorted by token text and deduplicated** (the set
//!   measures intersect these with a branch-light sorted merge), and
//! * its character bigrams packed into `u64`s (two scalar values), sorted
//!   and deduplicated — bigram intersections are pure integer merges.
//!
//! Token ids are local to one table, so every merge — across columns or
//! across stores — compares the resolved token bytes (each comparison
//! usually fails on the first byte); bigram ids are a pure function of the
//! two characters, so they agree everywhere and merge without any
//! resolution. Tokenisation and the bigram short-string convention are
//! shared verbatim with the per-pair `HashSet` references of
//! `similarity::naive` (see [`crate::similarity::token`]), which keeps the
//! kernels bit-identical to them. Bigrams are not segments: they are read
//! off the raw value, lowercased scalar by scalar, accents kept. The
//! public one-pair functions of [`crate::similarity::token`] run these
//! same kernels on a two-value table.
//!
//! A linkage rule names the properties it compares, so a store tokenises
//! only those: a column's table is built on its first use by the store's
//! crate-private `token_table` and cached in the store's derived state.
//! The compiled comparator warms the right-hand column of every set rule
//! on the catalog shards, the hoist builds the left-hand one of the
//! external store, and the full-text table is built only when a
//! set-measure fallback fires.
//!
//! The blocking side is the [`KeyIndex`]: every record's normalised key
//! once per recipe, the records sorted by key, and — for sorted
//! neighbourhood — a sort ladder that orders the records by sort value
//! and carries each slot's first eight bytes as one big-endian word, so
//! the window walk compares integers and reads a string only when two
//! words tie.

use crate::blocking::KeySide;
use crate::similarity::jaro::jaro_winkler_with;
use crate::similarity::scratch::SimScratch;
use crate::similarity::token::{bigram_pairs, lowercase_eq};
use crate::store::RecordStore;
use classilink_segment::{Normalizer, Segmenter, SeparatorSegmenter};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Pack a character bigram into one `u64` — the shared scalar bigram
/// representation of the [`TokenTable`] set kernels and the
/// [`KeyIndex`] blocking artifacts (intersections become pure integer
/// merges).
#[inline]
pub(crate) fn pack_bigram(a: char, b: char) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Distinct normalised tokens of one table, concatenated.
#[derive(Debug, Clone)]
struct TokenArena {
    text: String,
    /// Byte boundaries: token `t` is `text[bounds[t] .. bounds[t + 1]]`.
    bounds: Vec<u32>,
}

impl TokenArena {
    fn token(&self, id: u32) -> &str {
        &self.text[self.bounds[id as usize] as usize..self.bounds[id as usize + 1] as usize]
    }
}

/// The token table of one column — or of every record's full text, the
/// fallback measure's input: per value its token ids in appearance order,
/// the same ids sorted by token text and deduplicated, and its packed
/// bigrams, as three flat arrays with per-value offsets over the table's
/// own arena. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct TokenTable {
    arena: TokenArena,
    /// Token ids in appearance order (duplicates preserved).
    appear: Vec<u32>,
    appear_offsets: Vec<u32>,
    /// Token ids sorted by token text, deduplicated.
    sorted: Vec<u32>,
    sorted_offsets: Vec<u32>,
    /// Character bigrams packed as `(c0 as u64) << 32 | c1`, sorted,
    /// deduplicated.
    bigrams: Vec<u64>,
    bigram_offsets: Vec<u32>,
}

/// One value's precomputed token view: its sorted/appearance token ids
/// (resolvable against the owning table's arena), packed bigrams, and
/// the raw value text (for the bigram-less equality tie-break).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValueTokens<'a> {
    arena: &'a TokenArena,
    appear: &'a [u32],
    sorted: &'a [u32],
    bigrams: &'a [u64],
    raw: &'a str,
}

impl TokenTable {
    /// Tokenise and bigram-ise every value, exactly once each; value `i`
    /// of `values` is what [`value_tokens`](Self::value_tokens) answers
    /// for `i`.
    pub(crate) fn build<'v>(values: impl Iterator<Item = &'v str>) -> Self {
        fn offset(n: usize) -> u32 {
            u32::try_from(n).expect("token table exceeds u32::MAX entries")
        }
        let mut table = TokenTable {
            arena: TokenArena {
                text: String::new(),
                bounds: vec![0],
            },
            appear: Vec::new(),
            appear_offsets: vec![0],
            sorted: Vec::new(),
            sorted_offsets: vec![0],
            bigrams: Vec::new(),
            bigram_offsets: vec![0],
        };
        // The interning map lives only as long as the build; a token is
        // owned by it only the first time it is seen.
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut normalised = String::new();
        let mut scratch_ids: Vec<u32> = Vec::new();
        for value in values {
            let start = table.appear.len();
            Normalizer.apply_into(value, &mut normalised);
            SeparatorSegmenter::non_alphanumeric().for_each_segment(&normalised, &mut |token| {
                let id = ids.get(token).copied().unwrap_or_else(|| {
                    let arena = &mut table.arena;
                    arena.text.push_str(token);
                    arena.bounds.push(offset(arena.text.len()));
                    let id = offset(arena.bounds.len() - 2);
                    ids.insert(token.to_string(), id);
                    id
                });
                table.appear.push(id);
            });
            table.appear_offsets.push(offset(table.appear.len()));

            // Sorted-unique view: order by token text so merges against
            // any other table see one ordering; equal text ⇒ equal id, so
            // adjacent dedup suffices.
            scratch_ids.clear();
            scratch_ids.extend_from_slice(&table.appear[start..]);
            let arena = &table.arena;
            scratch_ids.sort_unstable_by(|&x, &y| arena.token(x).cmp(arena.token(y)));
            scratch_ids.dedup();
            table.sorted.extend_from_slice(&scratch_ids);
            table.sorted_offsets.push(offset(table.sorted.len()));

            let bigram_start = table.bigrams.len();
            table
                .bigrams
                .extend(bigram_pairs(value).map(|(a, b)| pack_bigram(a, b)));
            table.bigrams[bigram_start..].sort_unstable();
            let deduped = {
                let mut write = bigram_start;
                for read in bigram_start..table.bigrams.len() {
                    if write == bigram_start || table.bigrams[read] != table.bigrams[write - 1] {
                        table.bigrams[write] = table.bigrams[read];
                        write += 1;
                    }
                }
                write
            };
            table.bigrams.truncate(deduped);
            table.bigram_offsets.push(offset(table.bigrams.len()));
        }
        table
    }

    /// The token view of value `value` (a column-global value index, or a
    /// record for the full-text table); `raw` is the value's text.
    pub(crate) fn value_tokens<'a>(&'a self, value: usize, raw: &'a str) -> ValueTokens<'a> {
        let range = |offsets: &[u32]| offsets[value] as usize..offsets[value + 1] as usize;
        ValueTokens {
            arena: &self.arena,
            appear: &self.appear[range(&self.appear_offsets)],
            sorted: &self.sorted[range(&self.sorted_offsets)],
            bigrams: &self.bigrams[range(&self.bigram_offsets)],
            raw,
        }
    }
}

/// Sorted-merge intersection size over packed bigrams (both slices
/// sorted, deduplicated).
fn intersect_bigrams(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Sorted-merge intersection size over token ids from two (possibly
/// different) arenas: ids are ordered by token text, so the merge
/// compares resolved bytes.
fn intersect_tokens(a: &ValueTokens<'_>, b: &ValueTokens<'_>) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.sorted.len() && j < b.sorted.len() {
        match a.arena.token(a.sorted[i]).cmp(b.arena.token(b.sorted[j])) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Jaccard over precomputed token sets (bit-identical to
/// [`crate::similarity::jaccard_tokens`]).
pub(crate) fn jaccard_tokens_kernel(a: &ValueTokens<'_>, b: &ValueTokens<'_>) -> f64 {
    if a.raw == b.raw {
        return 1.0;
    }
    if a.sorted.is_empty() && b.sorted.is_empty() {
        return 1.0;
    }
    let intersection = intersect_tokens(a, b);
    let union = a.sorted.len() + b.sorted.len() - intersection;
    intersection as f64 / union as f64
}

/// Shared empty-set handling of the bigram measures (the short-string
/// convention of [`crate::similarity::token`]): both sides bigram-less →
/// lowercased equality decides; one side bigram-less → `0`.
fn bigram_trivial(a: &ValueTokens<'_>, b: &ValueTokens<'_>) -> Option<f64> {
    if a.bigrams.is_empty() && b.bigrams.is_empty() {
        return Some(if lowercase_eq(a.raw, b.raw) { 1.0 } else { 0.0 });
    }
    if a.bigrams.is_empty() || b.bigrams.is_empty() {
        return Some(0.0);
    }
    None
}

/// Jaccard over precomputed bigram sets (bit-identical to
/// [`crate::similarity::jaccard_chars`]).
pub(crate) fn jaccard_bigrams_kernel(a: &ValueTokens<'_>, b: &ValueTokens<'_>) -> f64 {
    if a.raw == b.raw {
        return 1.0;
    }
    if let Some(trivial) = bigram_trivial(a, b) {
        return trivial;
    }
    let intersection = intersect_bigrams(a.bigrams, b.bigrams);
    let union = a.bigrams.len() + b.bigrams.len() - intersection;
    intersection as f64 / union as f64
}

/// Dice over precomputed bigram sets (bit-identical to
/// [`crate::similarity::dice_bigrams`]).
pub(crate) fn dice_bigrams_kernel(a: &ValueTokens<'_>, b: &ValueTokens<'_>) -> f64 {
    if a.raw == b.raw {
        return 1.0;
    }
    if let Some(trivial) = bigram_trivial(a, b) {
        return trivial;
    }
    let intersection = intersect_bigrams(a.bigrams, b.bigrams) as f64;
    2.0 * intersection / (a.bigrams.len() + b.bigrams.len()) as f64
}

/// Monge-Elkan over precomputed token lists, with the Jaro-Winkler inner
/// measure on the scratch kernels (bit-identical to
/// [`crate::similarity::monge_elkan`]).
pub(crate) fn monge_elkan_kernel(
    a: &ValueTokens<'_>,
    b: &ValueTokens<'_>,
    scratch: &mut SimScratch,
) -> f64 {
    if a.raw == b.raw {
        return 1.0;
    }
    if a.appear.is_empty() && b.appear.is_empty() {
        return 1.0;
    }
    if a.appear.is_empty() || b.appear.is_empty() {
        return 0.0;
    }
    let mut directed = |xs: &ValueTokens<'_>, ys: &ValueTokens<'_>| -> f64 {
        xs.appear
            .iter()
            .map(|&x| {
                ys.appear
                    .iter()
                    .map(|&y| jaro_winkler_with(scratch, xs.arena.token(x), ys.arena.token(y)))
                    .fold(0.0f64, f64::max)
            })
            .sum::<f64>()
            / xs.appear.len() as f64
    };
    (directed(a, b) + directed(b, a)) / 2.0
}

/// Store-level blocking-key precomputation: the blocking analogue of the
/// `TokenTable`.
///
/// For one key *recipe* (property × prefix length, see
/// [`BlockingKey`](crate::blocking::BlockingKey)) every record's
/// normalised value is computed **once** into a text arena, together with
///
/// * the byte boundary of the truncated blocking key (the key is always a
///   prefix of the full normalised value, so both views are slices of one
///   arena — no second pass),
/// * the records sorted by key, so key-equality blocking resolves a probe
///   key to its block with two binary searches,
/// * on demand, the sort ladder sorted-neighbourhood blocking windows
///   over: the records sorted by full sort value, each slot with its
///   value's leading eight bytes as one integer, and
/// * on demand (the crate-private `KeyBigramIndex`), each key's
///   **padded character bigrams** as ids into a value-sorted gram table,
///   and the `GramCounter` a probe of the index adds up.
///
/// Indexes are built lazily by [`RecordStore::key_index`] and cached per
/// recipe for the store's lifetime, so repeated blocking calls (and every
/// shard of a sharded run) reuse them; after the first call the streaming
/// blockers allocate nothing per record (proved by
/// `crates/linking/tests/zero_alloc.rs`).
#[derive(Debug, Default)]
pub struct KeyIndex {
    /// Full normalised values, concatenated.
    text: String,
    /// Byte boundaries: record `r`'s full normalised value (its sort
    /// value) is `text[bounds[r] .. bounds[r + 1]]`.
    bounds: Vec<u32>,
    /// Absolute byte index where record `r`'s truncated blocking key ends
    /// (`bounds[r] ≤ key_ends[r] ≤ bounds[r + 1]`).
    key_ends: Vec<u32>,
    /// Record ids sorted by (truncated key, id).
    sorted: Vec<u32>,
    /// The key sort's rungs, kept across [`rebuild`](Self::rebuild)s.
    key_rungs: Vec<Rung>,
    /// The sort ladder of sorted-neighbourhood blocking, built on first
    /// use.
    ladder: OnceLock<Vec<Rung>>,
    /// Padded key bigrams, built on first bigram-blocking use.
    bigrams: OnceLock<KeyBigramIndex>,
}

/// One slot of a [`KeyIndex`]'s sorted-neighbourhood ladder: a record
/// and the **word** of its sort value — the first eight bytes,
/// big-endian, zero-padded. Byte order on strings is lexicographic, so
/// the word is monotone in it: a smaller word is a smaller sort value, and
/// only equal words need the strings (a value that is a prefix of
/// another, or two that share eight bytes) to decide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rung {
    pub(crate) word: u64,
    pub(crate) record: u32,
}

/// The word of a sort value: its first eight bytes as a big-endian
/// integer, zero-padded (see [`Rung`]).
#[inline]
pub(crate) fn sort_word(value: &str) -> u64 {
    let bytes = &value.as_bytes()[..value.len().min(8)];
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_be_bytes(word)
}

/// Fill `rungs` with `records` and their words, ordered by (`value`,
/// record): words decide, and a string is read only where two tie.
fn fill_rungs<'a>(
    rungs: &mut Vec<Rung>,
    records: impl Iterator<Item = u32>,
    value: impl Fn(u32) -> &'a str,
) {
    rungs.clear();
    rungs.extend(records.map(|record| Rung {
        word: sort_word(value(record)),
        record,
    }));
    rungs.sort_unstable_by(|a, b| {
        (a.word.cmp(&b.word))
            .then_with(|| value(a.record).cmp(value(b.record)))
            .then(a.record.cmp(&b.record))
    });
}

impl KeyIndex {
    /// Normalise every record's key once. `side` must have been resolved
    /// against `store`'s schema.
    pub(crate) fn build(store: &RecordStore, side: &KeySide) -> Self {
        let mut index = KeyIndex::default();
        index.rebuild(store, side);
        index
    }

    /// Re-normalise every record of `store` into this index **in
    /// place**, retaining every buffer's capacity. Derived artifacts
    /// that were already built — the bigram index, the sort ladder with
    /// its words — are rebuilt in place too (never dropped back to cold),
    /// so a warm index over a store whose contents were replaced (the
    /// serving layer's one-record probe store) re-keys without heap
    /// allocation once its buffers fit the new contents.
    pub(crate) fn rebuild(&mut self, store: &RecordStore, side: &KeySide) {
        fn offset(n: usize) -> u32 {
            u32::try_from(n).expect("key index exceeds u32::MAX bytes")
        }
        let bigrams = self.bigrams.take();
        let ladder = self.ladder.take();
        self.text.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.key_ends.clear();
        for record in 0..store.len() {
            let start = self.text.len();
            let key_len = match side.property().and_then(|p| store.first(record, p)) {
                Some(value) => side.write_normalised(value, &mut self.text),
                None => 0,
            };
            self.key_ends.push(offset(start + key_len));
            self.bounds.push(offset(self.text.len()));
        }
        let (text, bounds, key_ends) = (&self.text, &self.bounds, &self.key_ends);
        let key = |r: u32| &text[bounds[r as usize] as usize..key_ends[r as usize] as usize];
        fill_rungs(&mut self.key_rungs, 0..store.len() as u32, key);
        self.sorted.clear();
        self.sorted.extend(self.key_rungs.iter().map(|r| r.record));
        if let Some(mut index) = bigrams {
            index.rebuild(self);
            let _ = self.bigrams.set(index);
        }
        if let Some(mut ladder) = ladder {
            self.fill_ladder(&mut ladder);
            let _ = self.ladder.set(ladder);
        }
    }

    /// Number of records indexed.
    pub fn len(&self) -> usize {
        self.key_ends.len()
    }

    /// `true` when the index covers no record.
    pub fn is_empty(&self) -> bool {
        self.key_ends.is_empty()
    }

    /// The (truncated, normalised) blocking key of `record` — byte-equal
    /// to [`KeySide::key`], as a borrow of the arena.
    pub fn key(&self, record: usize) -> &str {
        &self.text[self.bounds[record] as usize..self.key_ends[record] as usize]
    }

    /// The full normalised value of `record` — byte-equal to
    /// [`KeySide::sort_value`], as a borrow of the arena.
    pub fn sort_value(&self, record: usize) -> &str {
        &self.text[self.bounds[record] as usize..self.bounds[record + 1] as usize]
    }

    /// The ids of every record whose blocking key equals `key`, in
    /// ascending id order (two binary searches over the key-sorted ids).
    pub fn records_with_key(&self, key: &str) -> &[u32] {
        &self.sorted[self.key_range(key)]
    }

    /// The range of [`sorted_records`](Self::sorted_records) holding
    /// every record whose blocking key equals `key` (two binary
    /// searches). This is what keyed candidate blocks store instead of
    /// the pairs themselves: a standard-blocking block is
    /// `(external, key_range)` — O(1), however large the block.
    pub fn key_range(&self, key: &str) -> std::ops::Range<usize> {
        let lo = self.sorted.partition_point(|&r| self.key(r as usize) < key);
        let run = self.sorted[lo..].partition_point(|&r| self.key(r as usize) == key);
        lo..lo + run
    }

    /// The key-sorted record table: every record id, ordered by
    /// (truncated key, id). Keyed candidate blocks
    /// ([`CandidateRuns`](crate::blocking::CandidateRuns)) are decoded
    /// as slices of this table.
    pub fn sorted_records(&self) -> &[u32] {
        &self.sorted
    }

    /// The sort ladder sorted-neighbourhood blocking windows over: every
    /// record with its word, ordered by (full sort value, id). Built on
    /// first use and cached for the index's lifetime.
    pub(crate) fn ladder(&self) -> &[Rung] {
        self.ladder.get_or_init(|| {
            let mut ladder = Vec::new();
            self.fill_ladder(&mut ladder);
            ladder
        })
    }

    /// Fill `ladder` from the key table's order: a key is a prefix of its
    /// sort value, so at prefix 0 the sort only confirms one sorted run.
    fn fill_ladder(&self, ladder: &mut Vec<Rung>) {
        let value = |record: u32| self.sort_value(record as usize);
        fill_rungs(ladder, self.sorted.iter().copied(), value);
    }

    /// The padded key-bigram artifacts, built on first use and cached.
    pub(crate) fn bigram_index(&self) -> &KeyBigramIndex {
        self.bigrams.get_or_init(|| KeyBigramIndex::build(self))
    }
}

/// Per-record **padded** key bigram sets, as ids into one table of the
/// index's distinct grams (packed `u64`s, sorted by value). Grams
/// replicate the classic padded-bigram convention of
/// [`classilink_segment::CharNGramSegmenter::padded_bigrams`] — the key
/// `"ab"` yields `{#a, ab, b#}`, the empty key yields `{##}` — so the
/// candidate sets are byte-identical to the string-based reference.
///
/// Both sides of a bigram probe read the same index: the external side
/// its records' sets as *gram ids* ([`id_set`](Self::id_set)), the local
/// side the [`GramCounter`] counted out of the same id sets on first use
/// ([`counter`](Self::counter)) — an index that is only ever probed
/// *with* never builds one.
#[derive(Debug, Default)]
pub(crate) struct KeyBigramIndex {
    /// Per-record gram-id sets, flat; record `r` owns
    /// `id_sets[set_offsets[r] .. set_offsets[r + 1]]`, in the order its
    /// key first reads each gram.
    id_sets: Vec<u32>,
    set_offsets: Vec<u32>,
    /// Distinct grams over all records, sorted by value: position `i`
    /// holds gram id `i`.
    grams: Vec<u64>,
    /// Largest per-record set size.
    max_set_len: u32,
    /// The local-side counting artifact, built on first use.
    counter: OnceLock<GramCounter>,
    /// Build scratch retained across [`rebuild`](Self::rebuild)s: the
    /// interning map of the pass (gram → id in order of first reading).
    interned: HashMap<u64, u32, GramHash>,
    /// Build scratch retained across rebuilds, per first-reading id: the
    /// last record that read the gram, then the gram's rank by value.
    stamps: Vec<u32>,
}

/// The padding character of the classic bigram-blocking convention.
const PAD: char = '#';

/// The gram interner's hash: a folded multiply of the gram XOR a random
/// per-index seed, which keeps crafted catalog values from colliding
/// (SipHash cost about as much as the rest of the index build).
#[derive(Clone, Default)]
struct GramHash(u64);

impl BuildHasher for GramHash {
    type Hasher = GramHash;

    fn build_hasher(&self) -> GramHash {
        self.clone()
    }
}

impl Hasher for GramHash {
    fn write(&mut self, gram: &[u8]) {
        let gram = u64::from_ne_bytes(gram.try_into().expect("a gram hashes as one u64"));
        let product = u128::from(self.0 ^ gram) * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl KeyBigramIndex {
    fn build(keys: &KeyIndex) -> Self {
        let mut index = KeyBigramIndex {
            interned: HashMap::with_hasher(GramHash(RandomState::new().hash_one(PAD))),
            ..KeyBigramIndex::default()
        };
        index.rebuild(keys);
        index
    }

    /// Re-derive the id sets and the gram table from `keys` **in place**,
    /// keeping every buffer's capacity: a warm index re-reads its keys
    /// without heap allocation. A built [`GramCounter`] is dropped.
    fn rebuild(&mut self, keys: &KeyIndex) {
        fn offset(n: usize) -> u32 {
            u32::try_from(n).expect("key bigram index exceeds u32::MAX entries")
        }
        self.counter.take();
        self.id_sets.clear();
        self.set_offsets.clear();
        self.set_offsets.push(0);
        self.grams.clear();
        self.max_set_len = 0;
        self.interned.clear();
        self.stamps.clear();
        let (ids, grams, stamps) = (&mut self.interned, &mut self.grams, &mut self.stamps);
        for record in 0..keys.len() {
            let start = self.id_sets.len();
            // The pad closes every key, so the empty key reads the pad
            // pair itself — not "no grams" — matching the segmenter.
            let mut prev = PAD;
            for c in keys.key(record).chars().chain([PAD]) {
                let gram = pack_bigram(prev, c);
                prev = c;
                let id = *ids.entry(gram).or_insert_with(|| {
                    grams.push(gram);
                    stamps.push(u32::MAX);
                    offset(grams.len() - 1)
                });
                if stamps[id as usize] != record as u32 {
                    stamps[id as usize] = record as u32;
                    self.id_sets.push(id);
                }
            }
            self.set_offsets.push(offset(self.id_sets.len()));
            self.max_set_len = self.max_set_len.max(offset(self.id_sets.len() - start));
        }
        // Rename the ids to their ranks by value: the probe merges two
        // gram tables, so they must be value-sorted.
        grams.sort_unstable();
        for (rank, gram) in grams.iter().enumerate() {
            stamps[ids[gram] as usize] = offset(rank);
        }
        for id in &mut self.id_sets {
            *id = stamps[*id as usize];
        }
    }

    /// Record `r`'s grams as ids into [`gram_values`](Self::gram_values),
    /// each once, in the order the key first reads them. No reader needs
    /// an order: a probe adds the grams' rows, and sums are order-free.
    pub(crate) fn id_set(&self, record: usize) -> &[u32] {
        &self.id_sets[self.set_offsets[record] as usize..self.set_offsets[record + 1] as usize]
    }

    /// The distinct grams over all records, sorted by packed value;
    /// positions in this table are the gram ids every other accessor
    /// speaks.
    pub(crate) fn gram_values(&self) -> &[u64] {
        &self.grams
    }

    /// Largest per-record gram-set size.
    pub(crate) fn max_set_len(&self) -> u32 {
        self.max_set_len
    }

    /// The counting artifact a probe *of* this index adds up, built on
    /// first use and cached until the next [`rebuild`](Self::rebuild).
    pub(crate) fn counter(&self) -> &GramCounter {
        self.counter.get_or_init(|| GramCounter::build(self))
    }
}

/// Below this document frequency a gram stays a position list however
/// small the index: a bitmap row is one word at least.
const MIN_DENSE_DF: usize = 8;

/// The local side of the bigram probe
/// ([`BigramBlocker`](crate::blocking::BigramBlocker)): everything a
/// probe needs to count, for one external record, the grams it shares
/// with **every** record of the index at once — 64 records a word.
/// Independent of the blocker's threshold.
///
/// Records are renumbered into *positions*, ascending by (set size,
/// record id), so the records a sharing rule `required(min(a, size))`
/// treats alike are one contiguous position range. Each gram is then
/// either a **bitmap row** over positions or, below the dense cut-off
/// `max(⌈N/64⌉, 8)`, its ascending **position list**. The cut-off
/// is derived, not tuned: from there on a row averages at least one
/// position a word (adding the row touches no more words than walking
/// the list touches positions) and its 8·⌈N/64⌉ bytes are at most 8 per
/// position.
#[derive(Debug, PartialEq)]
pub(crate) struct GramCounter {
    /// Words in a bitmap row (and in a probe's counter plane): `⌈N/64⌉`.
    words: usize,
    /// The record at each position.
    record_of: Vec<u32>,
    /// `size_start[m]`: the first position whose record has at least
    /// `m` grams, for `m` in `0 ..= max_set_len + 1` (the last entry is
    /// `N`).
    size_start: Vec<u32>,
    /// Where each gram id's positions live.
    slots: Vec<GramSlot>,
    /// Dense grams' bitmap rows, `words` words each.
    rows: Vec<u64>,
    /// Sparse grams' position lists, each ascending.
    sparse: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum GramSlot {
    /// Row number in `rows`.
    Row(u32),
    /// Range of `sparse`.
    List(u32, u32),
}

/// One gram's records, as [`GramCounter`] positions.
pub(crate) enum GramPositions<'a> {
    /// Bit `p % 64` of word `p / 64` is set for every position `p`.
    Row(&'a [u64]),
    /// The positions, ascending.
    List(&'a [u32]),
}

impl GramCounter {
    /// Count the counter out of `index`'s id sets, sorting nothing: the
    /// scatter walks the positions in order, so every list comes out sorted.
    fn build(index: &KeyBigramIndex) -> Self {
        let records = index.set_offsets.len() - 1;
        let words = records.div_ceil(64);
        let size = |record: usize| index.id_set(record).len();
        // Counting sort by set size, equal sizes in record order; and per
        // gram id its document frequency.
        let mut size_start = vec![0u32; index.max_set_len as usize + 2];
        let mut df = vec![0u32; index.grams.len()];
        for record in 0..records {
            size_start[size(record) + 1] += 1;
            for &id in index.id_set(record) {
                df[id as usize] += 1;
            }
        }
        for m in 1..size_start.len() {
            size_start[m] += size_start[m - 1];
        }
        let mut next = size_start.clone();
        let mut record_of = vec![0u32; records];
        for record in 0..records {
            let slot = &mut next[size(record)];
            record_of[*slot as usize] = record as u32;
            *slot += 1;
        }
        // In id order, each gram's row, or its list's range — empty until
        // the scatter extends it.
        let cut_off = words.max(MIN_DENSE_DF);
        let (mut rows, mut listed) = (0, 0);
        let slots = df
            .into_iter()
            .map(|df| {
                if df as usize >= cut_off {
                    rows += 1;
                    GramSlot::Row(rows - 1)
                } else {
                    listed += df;
                    GramSlot::List(listed - df, listed - df)
                }
            })
            .collect();
        let mut counter = GramCounter {
            words,
            record_of,
            size_start,
            slots,
            rows: vec![0; rows as usize * words],
            sparse: vec![0; listed as usize],
        };
        for (position, &record) in counter.record_of.iter().enumerate() {
            for &id in index.id_set(record as usize) {
                match &mut counter.slots[id as usize] {
                    GramSlot::Row(row) => {
                        counter.rows[*row as usize * words + position / 64] |= 1 << (position % 64)
                    }
                    GramSlot::List(_, end) => {
                        counter.sparse[*end as usize] = position as u32;
                        *end += 1;
                    }
                }
            }
        }
        counter
    }

    /// Words in a bitmap row: `⌈N/64⌉`.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The record id at each position.
    pub(crate) fn record_of(&self) -> &[u32] {
        &self.record_of
    }

    /// The first position whose record has at least `size` grams (`N`
    /// when none has).
    pub(crate) fn first_of_size(&self, size: usize) -> usize {
        self.size_start[size.min(self.size_start.len() - 1)] as usize
    }

    /// Gram id `id`'s records.
    pub(crate) fn gram(&self, id: usize) -> GramPositions<'_> {
        match self.slots[id] {
            GramSlot::Row(row) => {
                GramPositions::Row(&self.rows[row as usize * self.words..][..self.words])
            }
            GramSlot::List(start, end) => {
                GramPositions::List(&self.sparse[start as usize..end as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::similarity::naive;
    use classilink_rdf::Term;
    use proptest::prelude::*;

    const PN: &str = "http://e.org/v#pn";

    /// Build two single-column stores from raw values and return the
    /// per-value token views for (store a, value i) × (store b, value j).
    fn single_value_stores(a: &str, b: &str) -> (RecordStore, RecordStore) {
        let mut ra = Record::new(Term::iri("http://e.org/a"));
        ra.add(PN, a);
        let mut rb = Record::new(Term::iri("http://e.org/b"));
        rb.add(PN, b);
        (
            RecordStore::from_records(&[ra]),
            RecordStore::from_records(&[rb]),
        )
    }

    fn kernels_vs_naive(a: &str, b: &str) {
        let (sa, sb) = single_value_stores(a, b);
        let pid_a = sa.property(PN).unwrap();
        let pid_b = sb.property(PN).unwrap();
        let (ia, ib) = (sa.token_table(pid_a), sb.token_table(pid_b));
        let (ia, ib) = (ia.unwrap(), ib.unwrap());
        let va = sa.value_list(0, pid_a);
        let vb = sb.value_list(0, pid_b);
        let ta = ia.value_tokens(va.value_index(0), va.get(0));
        let tb = ib.value_tokens(vb.value_index(0), vb.get(0));
        let mut scratch = SimScratch::new();
        assert_eq!(
            jaccard_tokens_kernel(&ta, &tb).to_bits(),
            naive::jaccard_tokens(a, b).to_bits(),
            "jaccard_tokens({a:?}, {b:?})"
        );
        assert_eq!(
            jaccard_bigrams_kernel(&ta, &tb).to_bits(),
            naive::jaccard_chars(a, b).to_bits(),
            "jaccard_chars({a:?}, {b:?})"
        );
        assert_eq!(
            dice_bigrams_kernel(&ta, &tb).to_bits(),
            naive::dice_bigrams(a, b).to_bits(),
            "dice_bigrams({a:?}, {b:?})"
        );
        assert_eq!(
            monge_elkan_kernel(&ta, &tb, &mut scratch).to_bits(),
            naive::monge_elkan(a, b).to_bits(),
            "monge_elkan({a:?}, {b:?})"
        );
    }

    #[test]
    fn kernel_matches_naive_on_pinned_cases() {
        for (a, b) in [
            ("fixed film resistor", "film capacitor"),
            ("CRCW0805-10K", "CRCW0805 10K"),
            ("", ""),
            ("a", "ab"),
            ("a", "A"),
            ("night", "nacht"),
            ("vishay fixed film", "vishai fixd film"),
            ("  ", "--"),
            ("ab", "ba"),
        ] {
            kernels_vs_naive(a, b);
        }
    }

    #[test]
    fn kernel_matches_naive_on_non_ascii() {
        for (a, b) in [
            ("café au lait", "cafe au lait"),
            ("résistance 10kΩ", "resistance 10kΩ"),
            ("😀😀 part", "😀 part"),
            ("e\u{301}tude", "étude"), // combining acute vs precomposed
            ("İstanbul", "istanbul"),  // lowercase expansion
            ("ß", "ss"),
            ("ß", "ß"),
        ] {
            kernels_vs_naive(a, b);
        }
    }

    #[test]
    fn index_is_built_once_and_reused() {
        let (sa, _) = single_value_stores("fixed film resistor film", "x");
        let pn = sa.property(PN).unwrap();
        let first = sa.token_table(pn).unwrap() as *const TokenTable;
        let second = sa.token_table(pn).unwrap() as *const TokenTable;
        assert_eq!(first, second);
        let tokens = sa.token_table(pn).unwrap().value_tokens(0, "");
        assert_eq!((tokens.appear.len(), tokens.sorted.len()), (4, 3));
    }

    #[test]
    fn table_tokens_are_the_segments_of_the_normalised_value() {
        // One split: a table tokenises exactly as the learner segments.
        let values = [
            ("CRCW0805-10K 5% 63V", &["crcw0805", "10k", "5", "63v"][..]),
            ("  Vishay\tfixed--film ", &["vishay", "fixed", "film"]),
            ("", &[]),
            ("-- .", &[]),
            ("café", &["cafe"]),
            ("Würth", &["wurth"]),
            ("STRASSE", &["strasse"]),
            ("straße", &["straße"]),
            ("İstanbul", &["i", "stanbul"]),
            ("ΟΔΟΣ.Α", &["οδοσ", "α"]),
            ("ΟΔΟΣ Α", &["οδος", "α"]),
        ];
        let table = TokenTable::build(values.iter().map(|(value, _)| *value));
        let splitter = SeparatorSegmenter::non_alphanumeric();
        for (i, (value, expected)) in values.into_iter().enumerate() {
            let view = table.value_tokens(i, value);
            let tokens: Vec<&str> = view.appear.iter().map(|&t| view.arena.token(t)).collect();
            assert_eq!(
                tokens,
                splitter.split(&Normalizer.apply(value)),
                "{value:?}"
            );
            assert_eq!(tokens, expected, "{value:?}");
        }
    }

    #[test]
    fn full_text_tokens_cover_all_attributes() {
        let mut r = Record::new(Term::iri("http://e.org/a"));
        r.add(PN, "CRCW0805").add("http://e.org/v#mfr", "Vishay");
        let store = RecordStore::from_records(&[r]);
        let index = store.full_text_tokens();
        let full = index.value_tokens(0, store.full_text(0));
        assert_eq!(full.appear.len(), 2);
        assert_eq!(full.sorted.len(), 2);
    }

    mod key_index {
        use super::*;
        use crate::blocking::BlockingKey;
        use classilink_segment::{CharNGramSegmenter, Segmenter};

        fn store_of(values: &[&str]) -> RecordStore {
            let records: Vec<Record> = values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let mut r = Record::new(Term::iri(format!("http://e.org/item/{i}")));
                    if !v.is_empty() || i % 2 == 0 {
                        r.add(PN, *v);
                    }
                    r
                })
                .collect();
            RecordStore::from_records(&records)
        }

        const VALUES: &[&str] = &[
            "CRCW0805-10K",
            "crcw0805 10k",
            "T83-A225",
            "",
            "İSTANBUL-42",
            "LM317",
            "x",
        ];

        #[test]
        fn keys_and_sort_values_match_the_key_side() {
            let store = store_of(VALUES);
            for prefix in [0, 3, 6] {
                let side = BlockingKey::shared(PN, prefix).external_side(&store);
                let index = KeyIndex::build(&store, &side);
                assert_eq!(index.len(), store.len());
                assert!(!index.is_empty());
                for r in 0..store.len() {
                    assert_eq!(index.key(r), side.key(&store, r), "record {r}");
                    assert_eq!(
                        index.sort_value(r),
                        side.sort_value(&store, r),
                        "record {r}"
                    );
                }
            }
        }

        #[test]
        fn records_with_key_is_the_exact_block() {
            let store = store_of(VALUES);
            let side = BlockingKey::shared(PN, 4).external_side(&store);
            let index = KeyIndex::build(&store, &side);
            for r in 0..store.len() {
                let probe = side.key(&store, r);
                let expected: Vec<u32> = (0..store.len() as u32)
                    .filter(|&o| side.key(&store, o as usize) == probe)
                    .collect();
                assert_eq!(index.records_with_key(&probe), expected, "key {probe:?}");
            }
            assert!(index.records_with_key("no-such-key").is_empty());
        }

        #[test]
        fn missing_property_yields_empty_keys() {
            let store = store_of(VALUES);
            let side = BlockingKey::shared("http://nowhere.org/v#x", 4).external_side(&store);
            assert_eq!(side.property(), None);
            let index = KeyIndex::build(&store, &side);
            for r in 0..store.len() {
                assert_eq!(index.key(r), "");
                assert_eq!(index.sort_value(r), "");
            }
            assert_eq!(index.records_with_key("").len(), store.len());
        }

        /// The ladder orders the records by (sort value, id) and carries
        /// each slot's word, and the key table orders them by (key, id) —
        /// as built, and after an in-place rebuild over other contents.
        #[test]
        fn ladder_words_follow_their_slots_through_a_rebuild() {
            let check = |index: &KeyIndex| {
                let ladder = index.ladder();
                assert_eq!(ladder.len(), index.len());
                for rung in ladder {
                    let value = index.sort_value(rung.record as usize);
                    assert_eq!(rung.word, sort_word(value), "record {}", rung.record);
                }
                let slot = |rung: &Rung| (index.sort_value(rung.record as usize), rung.record);
                assert!(ladder.windows(2).all(|w| slot(&w[0]) < slot(&w[1])));
                let keyed = |r: u32| (index.key(r as usize), r);
                let sorted = index.sorted_records();
                assert!(sorted.windows(2).all(|w| keyed(w[0]) < keyed(w[1])));
            };
            let store = store_of(VALUES);
            let mut index =
                KeyIndex::build(&store, &BlockingKey::shared(PN, 0).external_side(&store));
            check(&index);
            let other = store_of(&["zz-top", "ABCDEFGH1", "abcdefgh0", "", "abc", "abcdefgh"]);
            index.rebuild(&other, &BlockingKey::shared(PN, 0).external_side(&other));
            assert!(
                index.ladder.get().is_some(),
                "a built ladder is rebuilt, not dropped"
            );
            check(&index);
        }

        #[test]
        fn sort_words_are_big_endian_and_zero_padded() {
            assert_eq!(sort_word("abcdefgh"), u64::from_be_bytes(*b"abcdefgh"));
            assert_eq!(sort_word("abcdefghij"), sort_word("abcdefgh"));
            assert_eq!(sort_word("ab"), u64::from_be_bytes(*b"ab\0\0\0\0\0\0"));
            assert_eq!(sort_word(""), 0);
        }

        proptest! {
            /// A word never contradicts the byte order of its values.
            #[test]
            fn prop_sort_words_are_monotone(a in "\\PC{0,12}", b in "\\PC{0,12}") {
                let (low, high) = if a <= b { (&a, &b) } else { (&b, &a) };
                prop_assert!(sort_word(low) <= sort_word(high));
            }
        }

        /// A gram's records by brute force: the keys that contain it.
        fn posting_list(sets: &[Vec<u64>], gram: u64) -> Vec<u32> {
            (0..sets.len() as u32)
                .filter(|&r| sets[r as usize].contains(&gram))
                .collect()
        }

        /// Check `index`'s bigram index and counter against the naive
        /// reference: every key's padded bigrams through the segmenter,
        /// and posting lists found by brute force. Returns the rows and
        /// lists the counter holds.
        fn check_bigrams(index: &KeyIndex) -> (usize, usize) {
            let segmenter = CharNGramSegmenter::padded_bigrams();
            let sets: Vec<Vec<u64>> = (0..index.len())
                .map(|r| {
                    let mut set: Vec<u64> = segmenter
                        .split_distinct(index.key(r))
                        .iter()
                        .map(|gram| {
                            let mut chars = gram.chars();
                            let (a, b) = (chars.next().unwrap(), chars.next().unwrap());
                            assert!(chars.next().is_none(), "bigram {gram:?} not 2 chars");
                            pack_bigram(a, b)
                        })
                        .collect();
                    set.sort_unstable();
                    set
                })
                .collect();
            let bigrams = index.bigram_index();
            let grams = bigrams.gram_values();
            let mut expected = sets.concat();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(grams, expected, "gram table");
            for (r, set) in sets.iter().enumerate() {
                let mut values: Vec<u64> = bigrams
                    .id_set(r)
                    .iter()
                    .map(|&id| grams[id as usize])
                    .collect();
                values.sort_unstable();
                assert_eq!(&values, set, "record {r}: {:?}", index.key(r));
            }
            let max = sets.iter().map(Vec::len).max().unwrap_or(0);
            assert_eq!(bigrams.max_set_len() as usize, max);

            // Positions ascend by (set size, record id), and every gram's
            // row or list holds exactly its posting list's positions —
            // rows from the dense cut-off on, lists below it.
            let counter = bigrams.counter();
            let words = index.len().div_ceil(64);
            assert_eq!(counter.words(), words);
            let size = |r: u32| sets[r as usize].len();
            let record_of = counter.record_of();
            assert_eq!(record_of.len(), index.len());
            assert!(record_of
                .windows(2)
                .all(|w| (size(w[0]), w[0]) < (size(w[1]), w[1])));
            for m in 0..=max + 3 {
                assert_eq!(
                    counter.first_of_size(m),
                    record_of.iter().filter(|&&r| size(r) < m).count(),
                    "size {m}"
                );
            }
            let (mut rows, mut lists) = (0, 0);
            for (id, &gram) in grams.iter().enumerate() {
                let postings = posting_list(&sets, gram);
                let dense = postings.len() >= words.max(MIN_DENSE_DF);
                let mut records: Vec<u32> = match counter.gram(id) {
                    GramPositions::Row(row) => {
                        rows += 1;
                        assert!(dense, "gram id {id}: a row below the cut-off");
                        (0..record_of.len())
                            .filter(|p| row[p / 64] >> (p % 64) & 1 == 1)
                            .map(|p| record_of[p])
                            .collect()
                    }
                    GramPositions::List(list) => {
                        lists += 1;
                        assert!(!dense, "gram id {id}: a list from the cut-off on");
                        assert!(list.windows(2).all(|w| w[0] < w[1]), "gram id {id}");
                        list.iter().map(|&p| record_of[p as usize]).collect()
                    }
                };
                records.sort_unstable();
                assert_eq!(records, postings, "gram id {id}");
            }
            (rows, lists)
        }

        /// Keys with the shapes a counting pass must get right, before
        /// `filler` numbered ones: grams repeated within one key, the
        /// empty key (with and without a value), non-ASCII keys; then
        /// one gram (`kq`) at document frequency `cut_off − 1` and one
        /// (`mz`) at `cut_off`.
        fn edge_values(records: usize, cut_off: usize) -> Vec<String> {
            let shapes = ["aaaa", "abab", "", "", "İSTANBUL-42", "ÄÖü-ßß", "x"];
            (0..records)
                .map(|i| match shapes.get(i) {
                    Some(shape) => shape.to_string(),
                    None => format!(
                        "{i}{}{}",
                        if i < shapes.len() + cut_off - 1 {
                            "/kq"
                        } else {
                            ""
                        },
                        if i < shapes.len() + cut_off {
                            "/mz"
                        } else {
                            ""
                        }
                    ),
                })
                .collect()
        }

        fn store_of_strings(values: &[String]) -> RecordStore {
            store_of(&values.iter().map(String::as_str).collect::<Vec<_>>())
        }

        /// The gram table and the id sets replicate the segmenter's
        /// padded-bigram convention record by record, at a full and at a
        /// truncated key.
        #[test]
        fn bigram_sets_match_the_padded_segmenter() {
            let values = [VALUES, &["aaaa", "abab", "ÄÖü-ßß", "aaaa"]].concat();
            let store = store_of(&values);
            for prefix in [0, 3] {
                let index = KeyIndex::build(
                    &store,
                    &BlockingKey::shared(PN, prefix).external_side(&store),
                );
                check_bigrams(&index);
            }
        }

        /// Shards on both sides of a word boundary (63 / 64 / 65 records)
        /// and one whose cut-off is its word count (600 records, 10
        /// words): every gram's row or list matches its brute-force
        /// posting list, and the grams at `cut_off − 1` and `cut_off` fall
        /// on either side.
        #[test]
        fn counter_matches_the_naive_posting_lists() {
            for records in [63usize, 64, 65, 600] {
                let cut_off = records.div_ceil(64).max(MIN_DENSE_DF);
                let store = store_of_strings(&edge_values(records, cut_off));
                let index =
                    KeyIndex::build(&store, &BlockingKey::shared(PN, 0).external_side(&store));
                let (rows, lists) = check_bigrams(&index);
                assert!(
                    rows > 0 && lists > 0,
                    "{records}: {rows} rows, {lists} lists"
                );
                let bigrams = index.bigram_index();
                let id = |gram| bigrams.gram_values().binary_search(&gram).unwrap();
                let counter = bigrams.counter();
                assert!(matches!(
                    counter.gram(id(pack_bigram('k', 'q'))),
                    GramPositions::List(list) if list.len() == cut_off - 1
                ));
                assert!(matches!(
                    counter.gram(id(pack_bigram('m', 'z'))),
                    GramPositions::Row(_)
                ));
            }
        }

        /// A warm bigram index and counter rebuilt in place over other
        /// contents equal a fresh build of those contents: gram table, id
        /// sets and counter — nothing of the retained stamps or interning
        /// map leaks from one build into the next.
        #[test]
        fn bigram_index_follows_a_rebuild() {
            let side = |store: &RecordStore| BlockingKey::shared(PN, 0).external_side(store);
            let first = store_of_strings(&edge_values(65, 8));
            let mut index = KeyIndex::build(&first, &side(&first));
            index.bigram_index().counter();
            let contents = [
                edge_values(63, 8).into_iter().rev().collect(),
                vec!["ba".to_string(), "ab".to_string(), "aaaa".to_string()],
                edge_values(130, 3),
            ];
            for values in &contents {
                let store = store_of_strings(values);
                index.rebuild(&store, &side(&store));
                let bigrams = index.bigrams.get().expect("a built index is rebuilt");
                assert!(
                    bigrams.counter.get().is_none(),
                    "the old counter is dropped"
                );
                check_bigrams(&index);
                let fresh = KeyIndex::build(&store, &side(&store));
                assert_eq!(index.sorted_records(), fresh.sorted_records());
                let (warm, fresh) = (index.bigram_index(), fresh.bigram_index());
                assert_eq!(warm.gram_values(), fresh.gram_values());
                for r in 0..store.len() {
                    let as_set = |ids: &[u32]| {
                        let mut ids = ids.to_vec();
                        ids.sort_unstable();
                        ids
                    };
                    assert_eq!(
                        as_set(warm.id_set(r)),
                        as_set(fresh.id_set(r)),
                        "record {r}"
                    );
                }
                assert_eq!(warm.counter(), fresh.counter());
            }
        }
    }

    proptest! {
        /// The token-index kernels are bit-identical to the naive
        /// per-pair set construction on arbitrary printable input.
        #[test]
        fn prop_kernels_match_naive(a in "\\PC{0,20}", b in "\\PC{0,20}") {
            kernels_vs_naive(&a, &b);
        }

        /// And on ASCII part-number-like input (the common case).
        #[test]
        fn prop_kernels_match_naive_ascii(a in "[a-zA-Z0-9 -]{0,24}", b in "[a-zA-Z0-9 -]{0,24}") {
            kernels_vs_naive(&a, &b);
        }
    }
}
