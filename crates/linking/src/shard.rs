//! Sharded catalogs: one logical record set split into per-shard
//! [`RecordStore`]s on a shared schema.
//!
//! The comparison phase of the linkage pipeline is embarrassingly
//! parallel over candidate pairs, but a single monolithic [`RecordStore`]
//! forces every worker through one allocation and makes incremental /
//! distributed growth impossible. A [`ShardedStore`] splits the catalog
//! into **contiguous, immutable shards** that all intern into one
//! [`SchemaInterner`], with three consequences:
//!
//! * **Global ids are stable.** Shard `s` holds the records
//!   `offsets[s] .. offsets[s + 1]` of the logical catalog, so the global
//!   id of shard-local record `i` is simply `offsets[s] + i` — the same
//!   index the record has in a one-shard catalog of the same records.
//!   Blockers emit shard-local ids and links are offset back to global
//!   ids; results stay byte-identical to the one-shard catalog's run.
//! * **One schema, one compile.** Because every shard shares the schema,
//!   a [`CompiledComparator`](crate::comparator::CompiledComparator) or a
//!   resolved [`KeySide`] is compiled **once**
//!   and is valid against every shard (and against sibling stores of the
//!   same scenario batch).
//! * **No routing on the hot path.** Blockers **stream** per-shard runs
//!   of shard-local pairs into the sink the comparison phase scores from
//!   (see
//!   [`Blocker::stream_candidates`](crate::blocking::Blocker::stream_candidates)
//!   and
//!   [`LinkagePipeline::run_sharded`](crate::pipeline::LinkagePipeline::run_sharded));
//!   [`ShardedStore::locate`] maps a global id back to `(shard, local)`
//!   by binary-searching the offset table, once per surviving link.
//!
//! Each shard, being a plain [`RecordStore`], also owns its lazily-built
//! derived state; the pipeline warms every shard's token tables and
//! signature columns for the properties the compiled comparator's rules
//! compare before spawning workers (each of which owns one
//! [`SimScratch`](crate::similarity::SimScratch) for its whole run), so
//! the per-pair loop stays allocation-free across shard boundaries.
//!
//! ```text
//!  logical catalog (global ids)      0 1 2 3 4 5 6 7 8 9
//!                                    ├─────────┼───────┼─┤
//!  shard stores (local ids)          0 1 2 3 4│0 1 2 3│0│
//!                                    shard 0   shard 1 s2
//!  offsets = [0, 5, 9, 10]
//!
//!  blocker on (external, shard 1) emits (e, 2)
//!  a link on it reports global id  (e, offsets[1] + 2) = (e, 7)
//! ```

use crate::blocking::sorted_neighborhood::CatalogLadder;
use crate::blocking::KeySide;
use crate::error::{panic_payload, LinkError, LinkResult};
use crate::intern::{PropertyId, PropertyInterner, SchemaInterner};
use crate::record::Record;
use crate::store::{RecordStore, RecordStoreBuilder};
use classilink_rdf::Term;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An immutable catalog split into contiguous per-shard [`RecordStore`]s
/// sharing one property schema. See the [module docs](self).
///
/// Shards are held as `Arc`s: cloning the catalog — and, crucially,
/// **appending** to it ([`append_shards`](Self::append_shards)) —
/// shares the surviving shards instead of copying them, so their
/// lazily-built artifacts (token tables, key indexes, bigram counters)
/// ride along warm. An append therefore costs O(delta), not O(catalog) —
/// bar the sorted-neighbourhood catalog ladder, which an append hands on
/// for the grown catalog to merge its new shards into (one copy of the
/// ladder, O(delta) searches).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedStore {
    /// The per-shard stores, in catalog order.
    shards: Vec<Arc<RecordStore>>,
    /// Global id of each shard's first record; `len = shards + 1`, the
    /// last entry is the total record count.
    offsets: Vec<usize>,
    /// The schema every shard was frozen with.
    schema: Arc<PropertyInterner>,
    /// The merged sort ladders built so far (see
    /// [`sort_ladder`](Self::sort_ladder)).
    ladders: LadderCache,
}

/// A catalog's merged sort ladders, one per key side — derived like a
/// store's key indexes: built on first use, never persisted, ignored by
/// `==`; a clone shares the ladders built so far.
#[derive(Debug, Default)]
struct LadderCache(Mutex<HashMap<KeySide, Arc<CatalogLadder>>>);

impl LadderCache {
    /// The map. Poison recovery: an entry is inserted only once its
    /// ladder is complete, so the map is sound whatever panicked.
    fn lock(&self) -> MutexGuard<'_, HashMap<KeySide, Arc<CatalogLadder>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for LadderCache {
    fn clone(&self) -> Self {
        LadderCache(Mutex::new(self.lock().clone()))
    }
}

impl PartialEq for LadderCache {
    /// Equal shards are equal catalogs, whatever each has built.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Default for ShardedStore {
    /// One empty shard (a derived `Default` would violate the "at least
    /// one shard, `offsets` seeded with 0" invariant every accessor
    /// relies on).
    fn default() -> Self {
        Self::builder().build()
    }
}

impl ShardedStore {
    /// An empty builder on a fresh schema.
    pub fn builder() -> ShardedStoreBuilder {
        ShardedStoreBuilder::default()
    }

    /// An empty builder interning into an existing shared schema (so the
    /// sharded catalog can agree on ids with sibling stores, e.g. the
    /// external side of a scenario).
    pub fn builder_with_schema(schema: SchemaInterner) -> ShardedStoreBuilder {
        ShardedStoreBuilder {
            schema,
            shards: Vec::new(),
            record_count: 0,
        }
    }

    /// Split a slice of records into `shard_count` contiguous shards
    /// (sizes as even as a contiguous split allows; trailing shards may
    /// be empty when `shard_count` exceeds the record count). Record `i`
    /// of the slice keeps global id `i`.
    pub fn from_records(records: &[Record], shard_count: usize) -> Self {
        Self::from_records_with_schema(records, shard_count, SchemaInterner::new())
    }

    /// [`from_records`](Self::from_records) on an existing shared schema.
    pub fn from_records_with_schema(
        records: &[Record],
        shard_count: usize,
        schema: SchemaInterner,
    ) -> Self {
        Self::split(records.len(), shard_count, schema, |builder, i| {
            builder.push(&records[i])
        })
    }

    /// Re-shard the records of `store`, in order, on an existing shared
    /// schema (see [`RecordStoreBuilder::push_from`]): record `i` of
    /// `store` keeps global id `i`.
    pub fn from_store_with_schema(
        store: &RecordStore,
        shard_count: usize,
        schema: SchemaInterner,
    ) -> Self {
        Self::split(store.len(), shard_count, schema, |builder, i| {
            builder.push_from(store, i)
        })
    }

    /// The contiguous split behind every `from_*` constructor: items
    /// `0..len` go, in order and through `push`, into `shard_count` shards
    /// of `⌈len / shard_count⌉` records, padded with empty shards.
    fn split(
        len: usize,
        shard_count: usize,
        schema: SchemaInterner,
        mut push: impl FnMut(&mut ShardedStoreBuilder, usize) -> usize,
    ) -> Self {
        let shard_count = shard_count.max(1);
        let chunk = len.div_ceil(shard_count).max(1);
        let mut builder = Self::builder_with_schema(schema);
        for start in (0..len).step_by(chunk) {
            builder.begin_shard();
            for item in start..len.min(start + chunk) {
                push(&mut builder, item);
            }
        }
        builder.pad_to(shard_count);
        builder.build()
    }

    /// Number of shards (always ≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard stores, in catalog order (`Arc`s, so an epoch or a
    /// delta append can share them without re-columnarising).
    pub fn shards(&self) -> &[Arc<RecordStore>] {
        &self.shards
    }

    /// One shard's store.
    pub fn shard(&self, shard: usize) -> &RecordStore {
        &self.shards[shard]
    }

    /// Total number of records across all shards.
    pub fn len(&self) -> usize {
        *self
            .offsets
            .last()
            .expect("offsets always has a last entry")
    }

    /// `true` when no shard holds any record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared schema every shard was frozen with.
    pub fn schema(&self) -> &PropertyInterner {
        &self.schema
    }

    /// The interned id of a property IRI, valid for **every** shard.
    pub fn property(&self, iri: &str) -> Option<PropertyId> {
        self.schema.get(iri)
    }

    /// Global id of `shard`'s first record.
    pub fn offset(&self, shard: usize) -> usize {
        self.offsets[shard]
    }

    /// Map a global record id to `(shard, shard-local id)`.
    ///
    /// Ids at or beyond [`len`](Self::len) are mapped to the last shard
    /// with an out-of-range local id.
    pub fn locate(&self, global: usize) -> (usize, usize) {
        let shard = self
            .offsets
            .partition_point(|&offset| offset <= global)
            .saturating_sub(1)
            .min(self.shards.len() - 1);
        (shard, global - self.offsets[shard])
    }

    /// Offset a shard-local record id back to its global id (the inverse
    /// of [`locate`](Self::locate)).
    pub fn global(&self, shard: usize, local: usize) -> usize {
        self.offsets[shard] + local
    }

    /// The item identifier of the record with this global id.
    pub fn id(&self, global: usize) -> &Term {
        let (shard, local) = self.locate(global);
        self.shards[shard].id(local)
    }

    /// The sorted-neighbourhood ladder of the whole catalog for `side`
    /// (resolved against the catalog's schema): every shard's locals
    /// merged by (sort value, global id), built on first use and cached
    /// per side — every sorted-neighbourhood stream windows over it, a
    /// one-shard catalog's being its shard's own ladder, copied once. A
    /// catalog grown by [`append_shards`](Self::append_shards) starts from
    /// its parent's ladder and merges in only the new shards.
    /// The build runs outside the cache's lock and is inserted whole, so a
    /// panic inside it leaves the cache as it was.
    pub(crate) fn sort_ladder(&self, side: &KeySide) -> Arc<CatalogLadder> {
        let cached = self.ladders.lock().get(side).cloned();
        let shards = self.shard_count();
        if let Some(ladder) = cached.as_ref().filter(|l| l.shard_count() == shards) {
            return ladder.clone();
        }
        let empty = CatalogLadder::default();
        let seed = cached.as_deref().unwrap_or(&empty);
        let new_shards = self.shards[seed.shard_count()..].iter().map(|s| &**s);
        let ladder = Arc::new(seed.extended(new_shards, side));
        self.ladders.lock().insert(*side, ladder.clone());
        ladder
    }

    /// The ladder cached for `side`, if any, without building one.
    #[cfg(test)]
    pub(crate) fn cached_ladder(&self, side: &KeySide) -> Option<Arc<CatalogLadder>> {
        self.ladders.lock().get(side).cloned()
    }

    /// The global id of item `id`, if any shard holds it — of its **last**
    /// record when the id repeats, as [`RecordStore::index_of`] answers.
    pub fn index_of(&self, id: &Term) -> Option<usize> {
        let mut shards = self.shards.iter().zip(&self.offsets).rev();
        shards.find_map(|(shard, offset)| Some(offset + shard.index_of(id)?))
    }

    /// A catalog of already-built shards — the builder's and the snapshot
    /// loader's constructor. Every shard must have been built on (a
    /// clone of) `schema`; the offset table follows from the shard
    /// lengths, so a loaded catalog is structurally identical to the one
    /// that was persisted.
    ///
    /// # Panics
    /// Panics when `shards` is empty (a catalog always has at least one
    /// shard — the loader rejects a zero-shard manifest as corrupt
    /// before calling this).
    pub(crate) fn from_shards(
        shards: Vec<Arc<RecordStore>>,
        schema: Arc<PropertyInterner>,
    ) -> ShardedStore {
        assert!(!shards.is_empty(), "a catalog has at least one shard");
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        offsets.push(0);
        for store in &shards {
            offsets.push(offsets.last().expect("non-empty") + store.len());
        }
        ShardedStore {
            shards,
            offsets,
            schema,
            ladders: LadderCache::default(),
        }
    }

    /// An empty shard builder whose schema **continues** this catalog's:
    /// every property keeps its id, new properties extend the sequence.
    /// Columnarise a delta batch into it (directly, or through a
    /// [`FeedIngest`](crate::ingest::FeedIngest) built on the seeded
    /// schema) and publish with [`append_shards`](Self::append_shards).
    pub fn delta_builder(&self) -> ShardedStoreBuilder {
        Self::builder_with_schema(SchemaInterner::seeded(&self.schema))
    }

    /// Append a delta batch as new shards — the incremental growth path.
    ///
    /// The surviving shards are **`Arc`-shared**, not rebuilt: their
    /// warmed token/key/bigram artifacts carry over, so the append costs
    /// O(delta records), however large the catalog. The catalog's sort
    /// ladders are handed on too, for the grown catalog's first
    /// sorted-neighbourhood use to merge the new shards into. Records of the delta
    /// get the global ids `self.len()..`; the result is equal to a full
    /// rebuild over the concatenated record sequence with the same shard
    /// boundaries. `delta` must come from [`delta_builder`](Self::delta_builder)
    /// (or a schema seeded from this catalog) so ids agree.
    ///
    /// Panics on a contained fault — the fault-tolerant entry point is
    /// [`try_append_shards`](Self::try_append_shards).
    pub fn append_shards(&self, delta: ShardedStoreBuilder) -> ShardedStore {
        self.try_append_shards(delta)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`append_shards`](Self::append_shards): a panic while
    /// columnarising a delta shard surfaces as
    /// [`LinkError::ShardBuildPanicked`] and `self` is untouched —
    /// nothing is half-appended.
    pub fn try_append_shards(&self, delta: ShardedStoreBuilder) -> LinkResult<ShardedStore> {
        // Models a fault at the append boundary, before any delta shard
        // columnarises.
        fail::fail_point!("shard::append", |arg: Option<String>| {
            Err(LinkError::injected("shard::append", arg))
        });
        let delta = delta.try_build()?;
        // Schema continuation: the catalog's table must be a prefix of
        // the delta's, id for id — guaranteed by `delta_builder`, and
        // cheap to verify (property counts are tiny).
        assert!(
            self.schema.len() <= delta.schema.len()
                && self
                    .schema
                    .iter()
                    .zip(delta.schema.iter())
                    .all(|((ia, na), (ib, nb))| ia == ib && na == nb),
            "delta schema does not continue the catalog schema; \
             build the delta on ShardedStore::delta_builder()"
        );
        let mut shards = self.shards.clone();
        shards.extend(delta.shards.iter().cloned());
        let mut offsets = self.offsets.clone();
        offsets.pop();
        offsets.extend(delta.offsets.iter().map(|o| o + self.len()));
        Ok(ShardedStore {
            shards,
            offsets,
            // The delta snapshot extends the catalog's table, so it is
            // the appended catalog's schema. Old shards keep their own
            // (prefix) Arc: ids agree wherever both define them, and a
            // post-append property simply resolves to empty columns on
            // an old shard.
            schema: delta.schema,
            ladders: self.ladders.clone(),
        })
    }
}

/// Incremental [`ShardedStore`] construction: open shards with
/// [`begin_shard`](Self::begin_shard), push records into the current
/// shard, then [`build`](Self::build).
#[derive(Debug, Clone, Default)]
pub struct ShardedStoreBuilder {
    schema: SchemaInterner,
    shards: Vec<RecordStoreBuilder>,
    record_count: usize,
}

impl ShardedStoreBuilder {
    /// Open a new (empty) shard; subsequent pushes go into it. Returns
    /// the shard's index.
    pub fn begin_shard(&mut self) -> usize {
        self.shards
            .push(RecordStore::builder_with_schema(self.schema.clone()));
        self.shards.len() - 1
    }

    /// Append empty shards until there are at least `shard_count`.
    pub fn pad_to(&mut self, shard_count: usize) {
        while self.shards.len() < shard_count {
            self.begin_shard();
        }
    }

    fn current(&mut self) -> &mut RecordStoreBuilder {
        if self.shards.is_empty() {
            self.begin_shard();
        }
        self.shards
            .last_mut()
            .expect("begin_shard pushed a builder")
    }

    /// Open the next record in the current shard (see
    /// [`RecordStoreBuilder::begin_record`]); returns its global id.
    pub fn begin_record(&mut self, id: Term) -> usize {
        self.current().begin_record(id);
        self.record_count += 1;
        self.record_count - 1
    }

    /// Append one value of `property` to the record opened last (see
    /// [`RecordStoreBuilder::push_value`]). Panics when the current shard
    /// has no record yet.
    pub fn push_value(&mut self, property: &str, value: &str) {
        self.current().push_value(property, value);
    }

    /// The id of the record opened last in the current shard.
    pub(crate) fn last_id(&self) -> Option<&Term> {
        self.shards.last()?.last_id()
    }

    /// Append one [`Record`] to the current shard; returns its global id.
    pub fn push(&mut self, record: &Record) -> usize {
        self.current().push(record);
        self.record_count += 1;
        self.record_count - 1
    }

    /// Append record `record` of `store` to the current shard (see
    /// [`RecordStoreBuilder::push_from`]); returns its global id.
    pub(crate) fn push_from(&mut self, store: &RecordStore, record: usize) -> usize {
        self.current().push_from(store, record);
        self.record_count += 1;
        self.record_count - 1
    }

    /// Number of records pushed so far (across all shards).
    pub fn len(&self) -> usize {
        self.record_count
    }

    /// `true` when no record has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.record_count == 0
    }

    /// Freeze every shard, all sharing one schema snapshot.
    ///
    /// Pushing already filled every shard's columns, so freezing only seals
    /// them, shard by shard on the calling thread: there is no per-value
    /// work left that threads could share.
    pub fn build(self) -> ShardedStore {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`try_build`](Self::try_build); `workers` has no effect, a build
    /// having nothing to spread over threads. The argument stays for
    /// `linkbench` until ROADMAP item 1's benchmark PR moves it to
    /// `try_build`.
    pub fn try_build_with_workers(self, _workers: usize) -> LinkResult<ShardedStore> {
        self.try_build()
    }

    /// Fallible [`build`](Self::build): a panic while sealing a shard is
    /// reported as [`LinkError::ShardBuildPanicked`] naming that shard, and
    /// the build is abandoned.
    pub fn try_build(mut self) -> LinkResult<ShardedStore> {
        if self.shards.is_empty() {
            self.begin_shard();
        }
        // One snapshot, one `Arc`: taken after every push, so every
        // shard sees the full schema regardless of which shard interned
        // a property first.
        let schema = Arc::new(self.schema.snapshot());
        let mut shards = Vec::with_capacity(self.shards.len());
        for (shard, builder) in self.shards.into_iter().enumerate() {
            let store = catch_unwind(AssertUnwindSafe(|| {
                fail::fail_point!("shard::columnarise");
                builder.finish(schema.clone())
            }))
            .map_err(|payload| LinkError::ShardBuildPanicked {
                shard,
                payload: panic_payload(payload),
            })?;
            shards.push(Arc::new(store));
        }
        Ok(ShardedStore::from_shards(shards, schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PN: &str = "http://e.org/v#pn";
    const MFR: &str = "http://e.org/v#mfr";

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let mut r = Record::new(Term::iri(format!("http://e.org/item/{i}")));
                r.add(PN, format!("PN-{i:04}"));
                if i % 2 == 0 {
                    r.add(MFR, "Vishay");
                }
                r
            })
            .collect()
    }

    #[test]
    fn contiguous_split_preserves_global_ids() {
        let records = records(10);
        let sharded = ShardedStore::from_records(&records, 3);
        let single = RecordStore::from_records(&records);
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.len(), single.len());
        for global in 0..single.len() {
            assert_eq!(sharded.id(global), single.id(global));
            let (shard, local) = sharded.locate(global);
            assert_eq!(sharded.global(shard, local), global);
            assert_eq!(sharded.shard(shard).id(local), single.id(global));
        }
    }

    #[test]
    fn shards_share_one_schema() {
        let sharded = ShardedStore::from_records(&records(7), 3);
        let pn = sharded.property(PN).expect("pn interned");
        for shard in sharded.shards() {
            assert_eq!(shard.property(PN), Some(pn));
            assert!(std::ptr::eq(shard.interner(), sharded.schema()));
        }
        // A property present in only some shards still resolves — to
        // empty values — on the others.
        let mfr = sharded.property(MFR).expect("mfr interned");
        for shard in sharded.shards() {
            for record in 0..shard.len() {
                let _ = shard.values(record, mfr).count(); // must not panic
            }
        }
    }

    #[test]
    fn uneven_and_empty_shards() {
        // 5 records over 4 shards: contiguous split gives 2+2+1 and one
        // padded empty shard.
        let sharded = ShardedStore::from_records(&records(5), 4);
        assert_eq!(sharded.shard_count(), 4);
        let sizes: Vec<usize> = sharded.shards().iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![2, 2, 1, 0]);
        assert_eq!(sharded.len(), 5);
        // Empty input: one (or shard_count) empty shards, len 0.
        let empty = ShardedStore::from_records(&[], 3);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn locate_clamps_out_of_range_ids() {
        let sharded = ShardedStore::from_records(&records(5), 2);
        let (shard, local) = sharded.locate(100);
        assert_eq!(shard, sharded.shard_count() - 1);
        assert!(local >= sharded.shard(shard).len());
    }

    #[test]
    fn index_of_searches_all_shards() {
        let records = records(6);
        let sharded = ShardedStore::from_records(&records, 3);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(sharded.index_of(&record.id), Some(i));
        }
        assert_eq!(sharded.index_of(&Term::iri("http://e.org/nowhere")), None);
    }

    #[test]
    fn builder_mixes_push_styles() {
        let mut builder = ShardedStore::builder();
        // Pushing before begin_shard auto-opens shard 0.
        let first = builder.push(&records(1)[0]);
        assert_eq!(first, 0);
        builder.begin_shard();
        let second = builder.begin_record(Term::iri("http://e.org/item/x"));
        builder.push_value(PN, "PN-X");
        assert_eq!(second, 1);
        assert_eq!(builder.len(), 2);
        let store = builder.build();
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.locate(1), (1, 0));
    }

    #[test]
    fn every_worker_count_builds_the_same_store() {
        // Uneven shard sizes, a property present in only some shards.
        let records = records(23);
        let mut builder = ShardedStore::builder();
        for (i, record) in records.iter().enumerate() {
            if i % 5 == 0 {
                builder.begin_shard();
            }
            builder.push(record);
        }
        let built = builder.clone().build();
        for workers in [0, 1, 2, 16] {
            let with_workers = builder.clone().try_build_with_workers(workers).unwrap();
            assert_eq!(built, with_workers, "{workers} workers");
        }
        for (i, record) in records.iter().enumerate() {
            assert_eq!(built.id(i), &record.id);
        }
    }

    #[test]
    fn append_shards_matches_a_full_rebuild_and_shares_surviving_shards() {
        let all = records(10);
        let (base_records, delta_records) = all.split_at(6);
        let base = ShardedStore::from_records(base_records, 2);
        // Warm a cache on a surviving shard so we can observe it ride
        // along.
        let mfr = base.schema().get(MFR).unwrap();
        let warmed = base.shard(0).token_table(mfr).unwrap();

        let mut delta = base.delta_builder();
        for (i, record) in delta_records.iter().enumerate() {
            if i % 2 == 0 {
                delta.begin_shard();
            }
            delta.push(record);
        }
        let appended = base.append_shards(delta);

        // Equal to a full rebuild over the concatenated records with the
        // same shard boundaries (2 base shards of 3, 2 delta shards of 2).
        let mut full = ShardedStore::builder();
        for (i, record) in all.iter().enumerate() {
            if i == 0 || i == 3 || i == 6 || i == 8 {
                full.begin_shard();
            }
            full.push(record);
        }
        let full = full.build();
        assert_eq!(appended.shard_count(), 4);
        assert_eq!(appended.len(), 10);
        assert_eq!(appended, full);
        for (i, record) in all.iter().enumerate() {
            assert_eq!(appended.id(i), &record.id);
            assert_eq!(appended.index_of(&record.id), Some(i));
        }

        // Surviving shards are the same allocations, not copies — the
        // warmed artifacts carried over.
        for s in 0..base.shard_count() {
            assert!(Arc::ptr_eq(&base.shards()[s], &appended.shards()[s]));
        }
        let carried = appended.shard(0).token_table(mfr).unwrap();
        assert!(std::ptr::eq(warmed, carried));
        // The base catalog itself is untouched.
        assert_eq!(base.len(), 6);
        assert_eq!(base.shard_count(), 2);
    }

    #[test]
    fn appended_schema_extends_the_base_prefix() {
        let base = ShardedStore::from_records(&records(4), 2);
        let mut delta = base.delta_builder();
        delta.begin_record(Term::iri("http://e.org/item/new"));
        delta.push_value(PN, "PN-NEW");
        delta.push_value("http://e.org/v#colour", "red");
        let appended = base.append_shards(delta);
        // Old ids survive verbatim; the new property extends the table.
        assert_eq!(appended.property(PN), base.property(PN));
        assert_eq!(appended.property(MFR), base.property(MFR));
        let colour = appended
            .property("http://e.org/v#colour")
            .expect("delta property interned");
        assert_eq!(colour.index(), base.schema().len());
        // A post-append property resolves to empty columns on old shards.
        for record in 0..base.shard(0).len() {
            assert_eq!(appended.shard(0).values(record, colour).count(), 0);
        }
        // ...and to its values on the delta shard.
        let (shard, local) = appended.locate(4);
        let values: Vec<&str> = appended.shard(shard).values(local, colour).collect();
        assert_eq!(values, vec!["red"]);
    }

    #[test]
    #[should_panic(expected = "does not continue the catalog schema")]
    fn append_rejects_a_foreign_schema() {
        let base = ShardedStore::from_records(&records(4), 2);
        // A fresh schema interning an unrelated property at id 0: the
        // ids disagree with the base table, so this is no continuation.
        let mut delta = ShardedStore::builder();
        delta.begin_record(Term::iri("http://e.org/item/f"));
        delta.push_value("http://e.org/v#colour", "red");
        delta.push_value(PN, "PN-F");
        base.append_shards(delta);
    }

    #[test]
    fn empty_builder_builds_one_empty_shard() {
        let store = ShardedStore::builder().build();
        assert_eq!(store.shard_count(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn default_upholds_the_shard_invariants() {
        let store = ShardedStore::default();
        assert_eq!(store.shard_count(), 1);
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        // locate on a (necessarily out-of-range) id clamps instead of
        // underflowing.
        let (shard, local) = store.locate(0);
        assert_eq!(shard, 0);
        assert_eq!(local, 0);
        assert_eq!(store, ShardedStore::builder().build());
    }
}
