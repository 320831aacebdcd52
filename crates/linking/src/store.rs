//! The interned, columnar record store.
//!
//! [`crate::record::Record`] is a convenient builder — a
//! `BTreeMap<String, Vec<String>>` per item — but a terrible layout for
//! the linking hot path: every blocking key, attribute lookup and
//! similarity call hashes a full property IRI and chases per-record
//! allocations. [`RecordStore`] is the execution-side representation the
//! blockers and the comparator actually run on:
//!
//! * property IRIs are interned once into dense
//!   [`PropertyId`]s (see [`crate::intern`]),
//! * attribute values live in **contiguous per-property columns** — one
//!   text arena per property with value and per-record offsets — so
//!   `values(record, property)` is two array reads and yields `&str`
//!   slices into the arena,
//! * records are plain indexes (`usize`) into the store; candidate pairs
//!   are `(usize, usize)` and never clone a [`Term`],
//! * everything else a store can answer — the whole-record `full_text`
//!   the fallback similarity reads, the id → record map, the key indexes
//!   — is **derived** from those two: built once on first use, ignored by
//!   equality, never persisted (see `Derived`). What is derived *per
//!   column* — the symbol signatures the comparator's run prefilter reads
//!   in place of the values, the token table a set-measure rule reads —
//!   sits in one slot per column and is built only for the columns a
//!   compiled rule compares.
//!
//! Stores are immutable once built. Build one with
//! [`RecordStore::from_records`], or record by record with a
//! [`RecordStoreBuilder`] (the streaming feed of [`crate::ingest`] and the
//! data generator both do). Stores built
//! standalone intern independently: resolve an IRI against each store
//! (once, at construction of a blocker or comparator) with
//! [`RecordStore::property`], and never reuse an id across stores.
//! Stores built on one shared
//! [`crate::intern::SchemaInterner`] (via
//! [`RecordStore::builder_with_schema`] or the sharded constructors in
//! [`crate::shard`]) assign identical ids, so one resolution serves every
//! store of the batch.

use crate::blocking::key::KeySide;
use crate::intern::{PropertyId, PropertyInterner, SchemaInterner};
use crate::record::Record;
use crate::similarity::symbols::Signature;
use crate::token_index::{KeyIndex, TokenTable};
use classilink_rdf::Term;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One property's column: all values of that property over all records,
/// concatenated into a single text arena.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Column {
    /// Every value of this property, concatenated.
    text: String,
    /// Byte boundaries of the values in `text`: value `i` is
    /// `text[bounds[i] .. bounds[i + 1]]`; `len = value_count + 1`.
    bounds: Vec<u32>,
    /// Per-record value ranges: record `r` owns values
    /// `offsets[r] .. offsets[r + 1]`; `len = record_count + 1`.
    offsets: Vec<u32>,
}

impl Column {
    /// A column with no values, for a store with no records yet.
    fn new() -> Self {
        Column {
            text: String::new(),
            bounds: vec![0],
            offsets: Vec::new(),
        }
    }

    /// Append `value` to `record`'s values. Records come in non-decreasing
    /// order; the ones skipped since the last push own no value here.
    fn push(&mut self, record: usize, value: &str) {
        self.seal(record);
        self.text.push_str(value);
        self.bounds.push(offset(self.text.len()));
    }

    /// Give every record up to `records` that has none yet the start of
    /// its range: the current value count, which also ends the range before
    /// it. Sealing at the record count completes the column.
    fn seal(&mut self, records: usize) {
        let values = offset(self.bounds.len() - 1);
        let sealed = self.offsets.len().max(records + 1);
        self.offsets.resize(sealed, values);
    }

    fn value(&self, i: usize) -> &str {
        &self.text[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    fn range(&self, record: usize) -> std::ops::Range<usize> {
        self.offsets[record] as usize..self.offsets[record + 1] as usize
    }

    /// Every value's [`Signature`], in value order: one walk of the text
    /// along its bounds.
    fn signatures(&self) -> Box<[Signature]> {
        let values = self.bounds.windows(2);
        values
            .map(|w| Signature::of(&self.text[w[0] as usize..w[1] as usize]))
            .collect()
    }
}

/// Id → record lookup over a store's `ids`: one `(hash of the id, record)`
/// entry per record, sorted and bisected. The keys stay in `ids`, so a
/// build clones no [`Term`]: 30 000 small long-lived allocations made
/// lazily, mid-run, slowed every later allocation (`linkbench`
/// `rule_link/learn_ms` +30 % with a `HashMap<Term, u32>`); bisecting the
/// `Term`s themselves cost the rule blocker +70 % `blocking.stream_s`.
#[derive(Debug, Clone)]
pub(crate) struct IdIndex {
    /// Randomly keyed: ids come from outside the program.
    hasher: RandomState,
    entries: Vec<(u64, u32)>,
}

impl IdIndex {
    fn build(ids: &[Term]) -> Self {
        let hasher = RandomState::new();
        let mut entries: Vec<(u64, u32)> = (ids.iter().zip(0..))
            .map(|(id, record)| (hasher.hash_one(id), record))
            .collect();
        entries.sort_unstable();
        IdIndex { hasher, entries }
    }

    /// The last record of `ids` holding `id` (equal ids hash alike, and
    /// equal hashes sort by record).
    fn get(&self, ids: &[Term], id: &Term) -> Option<usize> {
        let hash = self.hasher.hash_one(id);
        let start = self.entries.partition_point(|&(h, _)| h < hash);
        (self.entries[start..].iter())
            .take_while(|&&(h, _)| h == hash)
            .filter(|&&(_, record)| ids[record as usize] == *id)
            .last()
            .map(|&(_, record)| record as usize)
    }
}

/// A memo of what is derived per [`KeySide`] — a store's key indexes, a
/// catalog's merged sort ladders: built on first use, never persisted,
/// ignored by `==`; a clone shares the values built so far.
#[derive(Debug)]
pub(crate) struct SideMemo<T>(Mutex<HashMap<KeySide, Arc<T>>>);

impl<T> SideMemo<T> {
    /// The map. Poison recovery: an entry is inserted only once its value
    /// is complete, so the map is sound whatever panicked — keep serving
    /// and rebuild on demand instead of cascading.
    pub(crate) fn lock(&self) -> MutexGuard<'_, HashMap<KeySide, Arc<T>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> Default for SideMemo<T> {
    fn default() -> Self {
        SideMemo(Mutex::default())
    }
}

impl<T> Clone for SideMemo<T> {
    fn clone(&self) -> Self {
        SideMemo(Mutex::new(self.lock().clone()))
    }
}

impl<T> PartialEq for SideMemo<T> {
    /// Equal contents make equal stores and catalogs, whatever each has
    /// built.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Everything a store can re-derive from its ids and columns. Each slot
/// is built on first use — the per-column ones only for the columns
/// somebody asks for — and lives until the contents change, which only
/// [`RecordStore::refill_single`] does — through [`Derived::reset`].
/// A clone keeps what was built; key indexes are immutable, so it shares
/// them by `Arc`.
#[derive(Debug, Clone, Default)]
struct Derived {
    /// Every record's [`RecordStore::full_text`], concatenated, and the
    /// byte bounds: record `r` owns `text[bounds[r] .. bounds[r + 1]]`.
    full_text: OnceLock<(String, Vec<u32>)>,
    /// The full text's token table (see [`RecordStore::full_text_tokens`]).
    full_text_tokens: OnceLock<TokenTable>,
    /// Record index per item identifier (see [`RecordStore::index_of`]).
    id_index: OnceLock<IdIndex>,
    /// One [`KeyIndex`] per resolved key side (see
    /// [`RecordStore::key_index`]).
    key_indexes: SideMemo<KeyIndex>,
    /// One slot per column, filled for the columns a compiled rule
    /// compares on this side.
    columns: OnceLock<Box<[ColumnSlot]>>,
}

/// What is derived per column, each built on first use: the signatures
/// a filtered string rule's run prefilter reads (see
/// [`RecordStore::signatures`]), the token table a set rule reads (see
/// [`RecordStore::token_table`]).
#[derive(Debug, Clone, Default)]
struct ColumnSlot {
    signatures: OnceLock<Box<[Signature]>>,
    tokens: OnceLock<TokenTable>,
}

impl Derived {
    /// Follow `store`'s new contents: every slot goes back to unbuilt
    /// except the key indexes, each rebuilt **in place**, so a warm probe
    /// refill allocates nothing (`Arc::get_mut` succeeds because blockers
    /// drop their external-side handle when streaming returns; a handle
    /// held across refills forces a fresh build instead).
    fn reset(&mut self, store: &RecordStore) {
        let key_indexes = std::mem::take(&mut self.key_indexes);
        for (side, index) in key_indexes.lock().iter_mut() {
            match Arc::get_mut(index) {
                Some(index) => index.rebuild(store, side),
                None => *index = Arc::new(KeyIndex::build(store, side)),
            }
        }
        *self = Derived {
            key_indexes,
            ..Derived::default()
        };
    }
}

impl PartialEq for Derived {
    /// Equal ids and columns are equal stores, whatever each has built.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Immutable, columnar store of flat records. See the [module
/// docs](self) for the layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordStore {
    /// The property symbol table this store was frozen with. Shared (via
    /// `Arc`) between every shard of a [`ShardedStore`](crate::shard::ShardedStore)
    /// so that one id resolution serves all of them.
    interner: Arc<PropertyInterner>,
    /// Item identifier per record index.
    ids: Vec<Term>,
    /// One column per interned property, indexed by `PropertyId`.
    columns: Vec<Column>,
    /// Lazily built caches over the fields above.
    derived: Derived,
}

impl RecordStore {
    /// An empty builder interning into its own private schema.
    pub fn builder() -> RecordStoreBuilder {
        RecordStoreBuilder::default()
    }

    /// An empty builder interning into a **shared** schema: every store
    /// built on a handle of the same [`SchemaInterner`] assigns the same
    /// [`PropertyId`] to the same IRI, so compiled comparators and
    /// resolved blocking keys can be reused across all of them.
    pub fn builder_with_schema(schema: SchemaInterner) -> RecordStoreBuilder {
        RecordStoreBuilder {
            schema,
            ids: Vec::new(),
            columns: Vec::new(),
            known: Vec::new(),
            next_known: 0,
        }
    }

    /// Columnarise a slice of records (order preserved: record `i` of the
    /// store is `records[i]`).
    pub fn from_records(records: &[Record]) -> Self {
        let mut builder = Self::builder();
        for record in records {
            builder.push(record);
        }
        builder.build()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The item identifier of record `record`.
    pub fn id(&self, record: usize) -> &Term {
        &self.ids[record]
    }

    /// The record index of item `id`, if present (the last such record
    /// when several share the id).
    pub fn index_of(&self, id: &Term) -> Option<usize> {
        self.id_index().get(&self.ids, id)
    }

    /// The lazily-built index behind [`index_of`](Self::index_of). First
    /// call costs `O(store)` (one hash per record and a sort of the
    /// hashes); the rule-based blocker's `warm` pays it up front for a
    /// served catalog.
    pub(crate) fn id_index(&self) -> &IdIndex {
        self.derived
            .id_index
            .get_or_init(|| IdIndex::build(&self.ids))
    }

    /// The interned id of a property IRI, if this store's schema knows it.
    ///
    /// With a private schema that means "some record of this store has
    /// the property"; with a shared [`SchemaInterner`] the IRI may have
    /// been interned by a sibling store, in which case the id resolves
    /// but every record's value list is empty.
    pub fn property(&self, iri: &str) -> Option<PropertyId> {
        self.interner.get(iri)
    }

    /// The property interner this store was frozen with (shared between
    /// all stores built on one [`SchemaInterner`]).
    pub fn interner(&self) -> &PropertyInterner {
        &self.interner
    }

    /// `(id, IRI)` of every property of this store's schema (including,
    /// under a shared schema, properties only sibling stores populate).
    pub fn properties(&self) -> impl Iterator<Item = (PropertyId, &str)> {
        self.interner.iter()
    }

    /// The values of `property` on `record` (empty iterator when the
    /// record, or this whole store, has no values for it).
    pub fn values(&self, record: usize, property: PropertyId) -> Values<'_> {
        self.value_list(record, property).iter()
    }

    /// The values of `property` on `record` as a random-access list —
    /// the comparison hot path's view: `get` indexes the column slice
    /// directly (no iterator cloning for the multi-value best-pairing
    /// loop) and the list addresses the matching token-table
    /// entries by column-global value index.
    pub fn value_list(&self, record: usize, property: PropertyId) -> ValueList<'_> {
        // Under a shared schema an id may exceed this store's column
        // count (property interned by a sibling store, or after this
        // store was frozen) — such properties are simply absent here.
        match self.columns.get(property.index()) {
            Some(column) => {
                let range = column.range(record);
                ValueList {
                    column: Some(column),
                    start: range.start,
                    len: range.len(),
                }
            }
            None => ValueList::empty(),
        }
    }

    /// The first value of `property` on `record`, if any.
    pub fn first(&self, record: usize, property: PropertyId) -> Option<&str> {
        self.values(record, property).next()
    }

    /// Does nothing, and is kept so that existing callers compile. A
    /// column's token table is built when a set-measure rule of a
    /// [`CompiledComparator`](crate::comparator::CompiledComparator) first
    /// reads it — the pipeline and the serving layer warm those columns
    /// before scoring — so a store has no token index to build up front.
    pub fn token_index(&self) {}

    /// `property`'s token table — every value tokenised and bigram-ised
    /// once, what a set-measure rule reads — or `None` when this store has
    /// no column for it. Built per column on first call (`O(column)`).
    pub(crate) fn token_table(&self, property: PropertyId) -> Option<&TokenTable> {
        let (column, slot) = self.column_slot(property)?;
        let values = (0..column.bounds.len() - 1).map(|i| column.value(i));
        Some(slot.tokens.get_or_init(|| TokenTable::build(values)))
    }

    /// The token table over every record's full text, addressed by record,
    /// which only a firing set-measure fallback reads. Built on first
    /// call, which also joins the full texts.
    pub(crate) fn full_text_tokens(&self) -> &TokenTable {
        let texts = (0..self.len()).map(|r| self.full_text(r));
        (self.derived.full_text_tokens).get_or_init(|| TokenTable::build(texts))
    }

    /// The lazily-built blocking-key precomputation for one resolved
    /// [`KeySide`]: every record's normalised key (and, on demand, its
    /// padded key bigrams) computed once and cached for the store's
    /// lifetime, shared by every recipe-compatible blocker. `side` must
    /// have been resolved against this store's schema. First call per
    /// recipe costs `O(store)`; later calls are a map lookup.
    pub fn key_index(&self, side: &KeySide) -> Arc<KeyIndex> {
        self.derived
            .key_indexes
            .lock()
            .entry(*side)
            .or_insert_with(|| Arc::new(KeyIndex::build(self, side)))
            .clone()
    }

    /// The [`Signature`] of every value of `property`, by record — what the
    /// comparator's run prefilter reads in place of the values — or `None`
    /// when no record of this store has the property. Built per column on
    /// first call (`O(column bytes)`); the pipeline and the serving layer
    /// warm it, for the columns a string rule compares, before the scoring
    /// loop can reach a cold store.
    pub(crate) fn signatures(&self, property: PropertyId) -> Option<SignatureColumn<'_>> {
        let (column, slot) = self.column_slot(property)?;
        Some(SignatureColumn {
            offsets: &column.offsets,
            signatures: slot.signatures.get_or_init(|| column.signatures()),
        })
    }

    /// `property`'s column and its derived slot, or `None` when this store
    /// has no column for it. The slot array is sized on first call.
    fn column_slot(&self, property: PropertyId) -> Option<(&Column, &ColumnSlot)> {
        let column = self.columns.get(property.index())?;
        let slots = self.derived.columns.get_or_init(|| {
            let slots = self.columns.iter().map(|_| ColumnSlot::default());
            slots.collect()
        });
        Some((column, &slots[property.index()]))
    }

    /// Number of per-property columns (≤ the schema's property count:
    /// properties interned only by sibling stores have no column here).
    pub(crate) fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// The raw item identifiers, in record order — the persistence
    /// layer's view.
    pub(crate) fn persist_ids(&self) -> &[Term] {
        &self.ids
    }

    /// Column `column`'s flat parts `(text, bounds, offsets)` exactly as
    /// stored — what the snapshot writer serializes.
    pub(crate) fn persist_column(&self, column: usize) -> (&str, &[u32], &[u32]) {
        let column = &self.columns[column];
        (&column.text, &column.bounds, &column.offsets)
    }

    /// Reassemble a store from persisted parts, validating every
    /// structural invariant the accessors above rely on — a snapshot
    /// file that matches its content hash can still be adversarially
    /// malformed, and indexing must never panic on it. Errors are
    /// human-readable descriptions of the violated invariant; the caller
    /// wraps them into a [`PersistError`](crate::persist::PersistError).
    pub(crate) fn from_persisted_parts(
        interner: Arc<PropertyInterner>,
        ids: Vec<Term>,
        columns: Vec<(String, Vec<u32>, Vec<u32>)>,
    ) -> Result<RecordStore, String> {
        let record_count = ids.len();
        if u32::try_from(record_count).is_err() {
            return Err("record count exceeds u32::MAX".to_string());
        }
        if columns.len() > interner.len() {
            return Err(format!(
                "{} columns but the schema has only {} properties",
                columns.len(),
                interner.len()
            ));
        }
        let mut built = Vec::with_capacity(columns.len());
        for (c, (text, bounds, offsets)) in columns.into_iter().enumerate() {
            // `bounds` must tile `text` on character boundaries, `offsets`
            // the values — `Column::value` and `range` slice unchecked.
            check_tiling(&format!("column {c}: bounds"), &bounds, text.len())?;
            if let Some(b) = bounds.iter().find(|&&b| !text.is_char_boundary(b as usize)) {
                return Err(format!("column {c}: bound {b} splits a character"));
            }
            if offsets.len() != record_count + 1 {
                return Err(format!(
                    "column {c}: {} offsets for {record_count} records",
                    offsets.len()
                ));
            }
            check_tiling(&format!("column {c}: offsets"), &offsets, bounds.len() - 1)?;
            built.push(Column {
                text,
                bounds,
                offsets,
            });
        }
        if !full_text_fits(&built) {
            return Err("full text exceeds u32::MAX bytes".to_string());
        }
        Ok(RecordStore {
            interner,
            ids,
            columns: built,
            derived: Derived::default(),
        })
    }

    /// Every value of every attribute of `record`, space-joined in sorted
    /// property order (what [`Record::full_text`] returns). The first
    /// call joins every record of the store once; after that this is a
    /// slice borrow, not an allocation.
    pub fn full_text(&self, record: usize) -> &str {
        let (text, bounds) = self
            .derived
            .full_text
            .get_or_init(|| self.derive_full_text());
        &text[bounds[record] as usize..bounds[record + 1] as usize]
    }

    /// Join every record's values in property-IRI order (mirrors
    /// [`Record::full_text`], which iterates a `BTreeMap`). Only columns
    /// and their IRIs enter, so a shard frozen with a prefix of the
    /// catalog schema and its restored twin on the full schema agree.
    fn derive_full_text(&self) -> (String, Vec<u32>) {
        let mut sorted: Vec<(&str, &Column)> = (self.interner.iter())
            .filter_map(|(id, iri)| Some((iri, self.columns.get(id.index())?)))
            .collect();
        sorted.sort_unstable_by_key(|&(iri, _)| iri);
        let mut text = String::new();
        let mut bounds = Vec::with_capacity(self.len() + 1);
        bounds.push(0);
        for record in 0..self.len() {
            let mut first = true;
            for (_, column) in &sorted {
                for value in column.range(record) {
                    if !first {
                        text.push(' ');
                    }
                    first = false;
                    text.push_str(column.value(value));
                }
            }
            bounds.push(u32::try_from(text.len()).expect("full text exceeds u32::MAX bytes"));
        }
        (text, bounds)
    }

    /// `(property IRI, value)` facts of `record`, in interning order.
    pub fn facts(&self, record: usize) -> impl Iterator<Item = (&str, &str)> {
        self.interner
            .iter()
            .flat_map(move |(id, iri)| self.values(record, id).map(move |v| (iri, v)))
    }

    /// Materialise one record (the inverse of [`RecordStore::from_records`]).
    pub fn record(&self, record: usize) -> Record {
        let mut out = Record::new(self.ids[record].clone());
        for (iri, value) in self.facts(record) {
            out.add(iri, value);
        }
        out
    }

    /// Materialise every record, in index order.
    pub fn to_records(&self) -> Vec<Record> {
        (0..self.len()).map(|i| self.record(i)).collect()
    }

    /// Replace this store's contents **in place** with one record — the
    /// serving layer's probe store. `ids` and every column are cleared
    /// and refilled retaining their capacity, and every cached
    /// [`KeyIndex`] is rebuilt in place, so a warm refill performs no
    /// allocation; the other derived state is dropped and re-derived for
    /// the one record by whoever reads it (see [`Derived::reset`]).
    /// `schema` must be the shared [`SchemaInterner`] this store was
    /// built on; properties the record introduces are interned into it
    /// (append-only, so ids compiled against it elsewhere stay valid).
    pub(crate) fn refill_single(&mut self, schema: &SchemaInterner, record: &Record) {
        // Models a malformed record failing mid-refill; every stage below
        // clears its buffers at the start of the *next* call, so a probe
        // store abandoned here heals on retry.
        fail::fail_point!("store::refill_single");
        for property in record.attributes.keys() {
            schema.intern(property);
        }
        if self.interner.len() != schema.len() {
            // Cold path: first refill, or the record introduced a new
            // property. Warm refills skip the re-snapshot.
            self.interner = Arc::new(schema.snapshot());
        }

        if self.ids.len() == 1 {
            assign_term(&mut self.ids[0], &record.id);
        } else {
            self.ids.clear();
            self.ids.push(record.id.clone());
        }

        for column in &mut self.columns {
            column.text.clear();
            column.bounds.truncate(1);
            column.offsets.clear();
        }
        for (property, values) in &record.attributes {
            let pid = self
                .interner
                .get(property)
                .expect("probe property interned above");
            // First sight of this property on the probe side grows the
            // column table; later refills reuse the slot.
            let column = column_mut(&mut self.columns, pid);
            for value in values {
                column.push(0, value);
            }
        }
        for column in &mut self.columns {
            column.seal(1);
        }

        let mut derived = std::mem::take(&mut self.derived);
        derived.reset(self);
        self.derived = derived;
    }
}

/// The column of `property`. Under a shared schema sibling builders
/// advance the id sequence, so ids may skip: pad with empty columns.
fn column_mut(columns: &mut Vec<Column>, property: PropertyId) -> &mut Column {
    while columns.len() <= property.index() {
        columns.push(Column::new());
    }
    &mut columns[property.index()]
}

/// Offsets are `u32` to halve the index footprint; overflow must fail
/// loudly, not wrap into corrupt column slices.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("column exceeds u32::MAX bytes/values; shard the store")
}

/// `index` starts at 0, never decreases and ends at `end`.
fn check_tiling(what: &str, index: &[u32], end: usize) -> Result<(), String> {
    if index.first() != Some(&0) {
        return Err(format!("{what} must start at 0"));
    }
    if index.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what} are not monotonic"));
    }
    match index[index.len() - 1] as usize {
        last if last == end => Ok(()),
        last => Err(format!("{what} end at {last}, not at {end}")),
    }
}

/// `true` when the full text of these columns — every value plus a
/// separator each — fits `u32` bounds. Checked where a store is built or
/// loaded, so the lazy [`RecordStore::full_text`] never fails on one.
fn full_text_fits(columns: &[Column]) -> bool {
    let bytes = columns
        .iter()
        .map(|c| (c.text.len() + c.bounds.len()) as u64);
    bytes.sum::<u64>() <= u64::from(u32::MAX)
}

/// Overwrite `dest` with `src`, reusing `dest`'s string allocation when
/// both are the same simple variant (the warm-probe common case).
fn assign_term(dest: &mut Term, src: &Term) {
    match (dest, src) {
        (Term::Iri(d), Term::Iri(s)) | (Term::Blank(d), Term::Blank(s)) => {
            d.clear();
            d.push_str(s);
        }
        (dest, src) => *dest = src.clone(),
    }
}

/// One column's value signatures, addressed by record (see
/// [`RecordStore::signatures`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignatureColumn<'a> {
    /// The column's per-record value ranges.
    offsets: &'a [u32],
    /// One signature per value of the column.
    signatures: &'a [Signature],
}

impl<'a> SignatureColumn<'a> {
    /// The signatures of `record`'s values, in value order.
    #[inline]
    pub(crate) fn of(&self, record: usize) -> &'a [Signature] {
        &self.signatures[self.offsets[record] as usize..self.offsets[record + 1] as usize]
    }
}

/// Iterator over one record's values of one property.
#[derive(Debug, Clone)]
pub struct Values<'a> {
    /// `None` when the property has no column in this store (the range
    /// is empty in that case, so the iterator yields nothing).
    column: Option<&'a Column>,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for Values<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let i = self.range.next()?;
        Some(self.column?.value(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Values<'_> {}

/// Random-access view of one record's values of one property (see
/// [`RecordStore::value_list`]).
#[derive(Debug, Clone, Copy)]
pub struct ValueList<'a> {
    /// `None` when the property has no column in this store.
    column: Option<&'a Column>,
    /// Column-global index of the record's first value.
    start: usize,
    /// Number of values the record holds for the property.
    len: usize,
}

impl<'a> ValueList<'a> {
    /// An empty list (what a rule with an unresolved property hoists).
    pub(crate) fn empty() -> Self {
        ValueList {
            column: None,
            start: 0,
            len: 0,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the record has no value for the property.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th value (a direct column-slice read).
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> &'a str {
        assert!(i < self.len, "value index {i} out of range ({})", self.len);
        self.column
            .expect("non-empty ValueList always has a column")
            .value(self.start + i)
    }

    /// The column-global value index of the `i`-th value — the key the
    /// per-column token tables are addressed by.
    pub(crate) fn value_index(&self, i: usize) -> usize {
        self.start + i
    }

    /// Iterate the values in order.
    pub fn iter(&self) -> Values<'a> {
        Values {
            column: self.column,
            range: self.start..self.start + self.len,
        }
    }
}

impl<'a> IntoIterator for &ValueList<'a> {
    type Item = &'a str;
    type IntoIter = Values<'a>;

    fn into_iter(self) -> Values<'a> {
        self.iter()
    }
}

/// Incremental [`RecordStore`] construction: push records one at a time,
/// then [`build`](RecordStoreBuilder::build).
///
/// Builders made with [`RecordStore::builder`] intern into a private
/// schema; builders made with [`RecordStore::builder_with_schema`] share
/// a [`SchemaInterner`] with sibling builders (see [`crate::shard`]).
#[derive(Debug, Clone, Default)]
pub struct RecordStoreBuilder {
    schema: SchemaInterner,
    ids: Vec<Term>,
    /// One column per property seen so far, sealed up to the last record
    /// that has a value in it.
    columns: Vec<Column>,
    /// The first [`KNOWN_PROPERTIES`] properties this builder interned,
    /// with their ids: a feed repeats a handful of properties, and a hit
    /// here skips the shared schema's lock and hash. The schema never
    /// reassigns an id, so an entry cannot go stale.
    known: Vec<(Box<str>, PropertyId)>,
    /// Where in `known` the next lookup starts: one past the last hit, as
    /// a feed's records list their properties in one order.
    next_known: usize,
}

/// How many properties a [`RecordStoreBuilder`] remembers.
const KNOWN_PROPERTIES: usize = 32;

impl RecordStoreBuilder {
    /// Open the next record; the values pushed until the next call are
    /// its own. Returns its index.
    pub fn begin_record(&mut self, id: Term) -> usize {
        let record = self.ids.len();
        assert!(u32::try_from(record).is_ok(), "more than u32::MAX records");
        self.ids.push(id);
        record
    }

    /// Append one value of `property` to the record opened last, straight
    /// into its column. Panics when no record has been opened.
    ///
    /// The property is resolved through the ids this builder has already
    /// interned before the shared schema is asked, so for the first
    /// `KNOWN_PROPERTIES` (32) properties a builder sees, only a
    /// property's first sight locks the schema or allocates.
    pub fn push_value(&mut self, property: &str, value: &str) {
        let record = self.ids.len().checked_sub(1).expect("no record is open");
        let pid = self.property_id(property);
        column_mut(&mut self.columns, pid).push(record, value);
    }

    /// The id of `property`: from `known` if it is there, else interned
    /// into the shared schema (and remembered while there is room).
    fn property_id(&mut self, property: &str) -> PropertyId {
        let (wrapped, from_cursor) = self.known.split_at(self.next_known);
        let hit = (from_cursor.iter().chain(wrapped))
            .position(|(known, _)| **known == *property)
            .map(|i| (self.next_known + i) % self.known.len());
        if let Some(i) = hit {
            self.next_known = (i + 1) % self.known.len();
            return self.known[i].1;
        }
        let pid = self.schema.intern(property);
        if self.known.len() < KNOWN_PROPERTIES {
            self.known.push((property.into(), pid));
        }
        pid
    }

    /// The id of the record opened last.
    pub(crate) fn last_id(&self) -> Option<&Term> {
        self.ids.last()
    }

    /// Append one [`Record`].
    pub fn push(&mut self, record: &Record) -> usize {
        let index = self.begin_record(record.id.clone());
        for (property, values) in &record.attributes {
            for value in values {
                self.push_value(property, value);
            }
        }
        index
    }

    /// Append record `record` of `store`: its id, then its values in
    /// `store`'s interning order ([`RecordStore::facts`]), so re-pushing a
    /// whole store in record order interns its properties in the order
    /// `store` did.
    pub fn push_from(&mut self, store: &RecordStore, record: usize) -> usize {
        let index = self.begin_record(store.id(record).clone());
        for (property, value) in store.facts(record) {
            self.push_value(property, value);
        }
        index
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no record has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Freeze into an immutable store, snapshotting the schema as it
    /// stands now.
    pub fn build(self) -> RecordStore {
        let interner = Arc::new(self.schema.snapshot());
        self.finish(interner)
    }

    /// Freeze into an immutable store carrying the given (already
    /// snapshotted) schema — the shard path, where every shard of a
    /// [`ShardedStore`](crate::shard::ShardedStore) must share one `Arc`.
    pub(crate) fn finish(mut self, interner: Arc<PropertyInterner>) -> RecordStore {
        for column in &mut self.columns {
            column.seal(self.ids.len());
            // The store lives long and grows no more: hand back what the
            // doubling left over.
            column.text.shrink_to_fit();
            column.bounds.shrink_to_fit();
            column.offsets.shrink_to_fit();
        }
        assert!(
            full_text_fits(&self.columns),
            "full text exceeds u32::MAX bytes"
        );
        RecordStore {
            interner,
            ids: self.ids,
            columns: self.columns,
            derived: Derived::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PN: &str = "http://e.org/v#pn";
    const MFR: &str = "http://e.org/v#mfr";

    fn sample_records() -> Vec<Record> {
        let mut a = Record::new(Term::iri("http://e.org/p1"));
        a.add(PN, "CRCW0805-10K")
            .add(MFR, "Vishay")
            .add(MFR, "Vishay Intertech");
        let b = Record::new(Term::iri("http://e.org/p2"));
        let mut c = Record::new(Term::iri("http://e.org/p3"));
        c.add(PN, "T83A225");
        vec![a, b, c]
    }

    #[test]
    fn id_based_access_matches_record_access() {
        let records = sample_records();
        let store = RecordStore::from_records(&records);
        assert_eq!(store.len(), 3);
        let pn = store.property(PN).unwrap();
        let mfr = store.property(MFR).unwrap();
        assert_eq!(store.first(0, pn), Some("CRCW0805-10K"));
        let mfrs: Vec<&str> = store.values(0, mfr).collect();
        assert_eq!(mfrs, vec!["Vishay", "Vishay Intertech"]);
        assert_eq!(store.values(1, pn).len(), 0);
        assert_eq!(store.first(1, pn), None);
        assert_eq!(store.first(2, pn), Some("T83A225"));
        assert_eq!(store.facts(1).count(), 0);
        assert_eq!(store.property("http://nowhere.org/v#x"), None);
    }

    #[test]
    fn ids_and_index_round_trip() {
        let store = RecordStore::from_records(&sample_records());
        for i in 0..store.len() {
            assert_eq!(store.index_of(store.id(i)), Some(i));
        }
        assert_eq!(store.index_of(&Term::iri("http://e.org/p9")), None);
        assert_eq!(RecordStore::default().index_of(store.id(0)), None);
        // A repeated id answers with its last record: 300 records over
        // 100 ids, so every hit scans an equal-hash run of the index.
        let id = |i: usize| Term::iri(format!("http://e.org/p{i}"));
        let records: Vec<Record> = (0..300).map(|i| Record::new(id(i % 100))).collect();
        let store = RecordStore::from_records(&records);
        for i in 0..100 {
            assert_eq!(store.index_of(&id(i)), Some(200 + i));
        }
        assert_eq!(store.index_of(&id(100)), None);
    }

    #[test]
    fn full_text_matches_record() {
        let records = sample_records();
        let store = RecordStore::from_records(&records);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(store.full_text(i), record.full_text());
        }
        assert_eq!(store.full_text(1), "");
    }

    #[test]
    fn records_round_trip_through_the_store() {
        let records = sample_records();
        let store = RecordStore::from_records(&records);
        assert_eq!(store.to_records(), records);
    }

    #[test]
    fn facts_enumerate_all_attribute_values() {
        let store = RecordStore::from_records(&sample_records());
        let facts: Vec<(&str, &str)> = store.facts(0).collect();
        assert_eq!(facts.len(), 3);
        assert!(facts.contains(&(PN, "CRCW0805-10K")));
        assert!(facts.contains(&(MFR, "Vishay Intertech")));
        assert_eq!(store.facts(1).count(), 0);
    }

    #[test]
    fn empty_store_and_empty_builder() {
        let store = RecordStore::from_records(&[]);
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert!(store.interner().is_empty());
        assert!(store.to_records().is_empty());
        let built = RecordStore::builder().build();
        assert_eq!(built, store);
    }

    #[test]
    fn incremental_column_fill_seals_every_shape() {
        // One inner slice per record: its facts.
        type Shape = &'static [&'static [(&'static str, &'static str)]];
        const P: &str = PN;
        const M: &str = MFR;
        let shapes: [(&str, Shape); 5] = [
            ("the empty builder", &[]),
            ("records without facts only", &[&[], &[]]),
            (
                "a property first seen at a late record",
                &[&[(P, "a")], &[(P, "b")], &[(M, "late")]],
            ),
            (
                "no facts at the start, in the middle, at the end",
                &[&[], &[(P, "a")], &[], &[], &[(M, "b")], &[]],
            ),
            (
                "multi-valued properties",
                &[&[(M, "x"), (M, "y"), (P, "a")], &[], &[(M, "w"), (M, "Ω")]],
            ),
        ];
        // With a property a sibling interned first, the builder's own ids
        // skip 0 and its column 0 is padding.
        for ((what, shape), sibling) in shapes.into_iter().flat_map(|s| [(s, false), (s, true)]) {
            let schema = SchemaInterner::new();
            if sibling {
                schema.intern("http://e.org/v#sibling");
            }
            let mut builder = RecordStore::builder_with_schema(schema);
            let mut records = Vec::new();
            for (i, facts) in shape.iter().enumerate() {
                let mut record = Record::new(Term::iri(format!("http://e.org/r{i}")));
                for (property, value) in *facts {
                    record.add(*property, *value);
                }
                builder.push(&record);
                records.push(record);
            }
            let store = builder.build();
            assert_eq!(store.to_records(), records, "{what}");
            // `from_persisted_parts` checks every bound and offset.
            let columns = (0..store.column_count())
                .map(|c| store.persist_column(c))
                .map(|(text, bounds, offsets)| (text.into(), bounds.into(), offsets.into()))
                .collect();
            let ids = store.persist_ids().to_vec();
            let rebuilt = RecordStore::from_persisted_parts(store.interner.clone(), ids, columns);
            assert_eq!(rebuilt.as_ref(), Ok(&store), "{what}");
        }
    }

    #[test]
    fn builder_takes_values_as_they_arrive() {
        let mut builder = RecordStore::builder();
        assert_eq!(builder.begin_record(Term::iri("http://e.org/x")), 0);
        builder.push_value(PN, "a");
        builder.push_value(PN, "b");
        assert_eq!(builder.begin_record(Term::iri("http://e.org/y")), 1);
        let store = builder.build();
        let pn = store.property(PN).unwrap();
        let values: Vec<&str> = store.values(0, pn).collect();
        assert_eq!(values, vec!["a", "b"]);
        assert_eq!(store.facts(1).count(), 0);
    }

    #[test]
    fn shared_schema_stores_agree_on_ids() {
        let schema = SchemaInterner::new();
        let mut a = RecordStore::builder_with_schema(schema.clone());
        let mut b = RecordStore::builder_with_schema(schema.clone());
        // Interleave interning so b's first property is not id 0.
        a.push(&sample_records()[0]); // interns PN, MFR
        let mut r = Record::new(Term::iri("http://e.org/q1"));
        r.add("http://e.org/v#other", "x").add(PN, "T83A225");
        b.push(&r);
        let (a, b) = (a.build(), b.build());
        assert_eq!(a.property(PN), b.property(PN));
        // Record attributes intern in BTreeMap (IRI) order: mfr, then pn.
        assert_eq!(a.property(MFR).unwrap().index(), 0);
        assert_eq!(a.property(PN).unwrap().index(), 1);
        // A property only the sibling store populates resolves to an
        // empty value list, not a panic.
        let other = a.property("http://e.org/v#other").unwrap();
        assert_eq!(a.values(0, other).count(), 0);
        assert_eq!(b.first(0, other), Some("x"));
        // full_text joins only this store's own values (sorted by IRI:
        // #other before #pn).
        assert_eq!(b.full_text(0), "x T83A225");
    }

    /// Past the builder's memo of known properties, in shifting orders
    /// and interleaved with a sibling builder, every value still lands in
    /// the column of its property's schema id.
    #[test]
    fn pushed_values_land_in_their_schema_columns() {
        let schema = SchemaInterner::new();
        let mut a = RecordStore::builder_with_schema(schema.clone());
        let mut b = RecordStore::builder_with_schema(schema.clone());
        let iri = |p: usize| format!("http://e.org/v#p{p}");
        let properties = KNOWN_PROPERTIES + 9;
        for record in 0..6 {
            for builder in [&mut a, &mut b] {
                builder.begin_record(Term::iri(format!("http://e.org/r{record}")));
                for k in 0..properties {
                    let p = (k * (record + 1) + record) % properties;
                    builder.push_value(&iri(p), &format!("{record}:{p}"));
                }
            }
        }
        for store in [a.build(), b.build()] {
            for p in 0..properties {
                let id = store.property(&iri(p)).unwrap();
                assert_eq!(Some(id), schema.get(&iri(p)));
                for record in 0..6 {
                    let expected = format!("{record}:{p}");
                    assert_eq!(store.first(record, id), Some(expected.as_str()));
                }
            }
        }
    }

    #[test]
    fn ids_interned_after_freezing_resolve_to_empty_values() {
        let schema = SchemaInterner::new();
        let mut builder = RecordStore::builder_with_schema(schema.clone());
        builder.push(&sample_records()[0]);
        let store = builder.build();
        // A sibling interns a brand-new property after this store froze:
        // the id exceeds the store's column count.
        let late = schema.intern("http://e.org/v#late");
        assert!(late.index() >= store.interner().len());
        assert_eq!(store.values(0, late).count(), 0);
        assert_eq!(store.first(0, late), None);
    }

    #[test]
    fn key_index_is_cached_per_recipe() {
        use crate::blocking::BlockingKey;
        let store = RecordStore::from_records(&sample_records());
        let four = BlockingKey::shared(PN, 4).external_side(&store);
        let zero = BlockingKey::shared(PN, 0).external_side(&store);
        // Same recipe → same Arc; different recipe → a different index.
        let a = store.key_index(&four);
        let b = store.key_index(&four);
        assert!(Arc::ptr_eq(&a, &b));
        let c = store.key_index(&zero);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.key(0), "crcw");
        assert_eq!(c.key(0), "crcw080510k");
        // Recipe-compatible sides share one entry even when resolved
        // through different BlockingKey values (e.g. a standard blocker
        // and a sorted-neighbourhood blocker on the same property).
        let same = BlockingKey::per_side(PN, "http://other.org/v#x", 4).external_side(&store);
        assert!(Arc::ptr_eq(&a, &store.key_index(&same)));
        // Clones share the already-built entries.
        let clone = store.clone();
        assert!(Arc::ptr_eq(&a, &clone.key_index(&four)));
    }

    #[test]
    fn signatures_are_a_derived_cache() {
        let schema = SchemaInterner::new();
        let mut builder = RecordStore::builder_with_schema(schema.clone());
        for record in &sample_records() {
            builder.push(record);
        }
        let store = builder.build();
        let (pn, mfr) = (store.property(PN).unwrap(), store.property(MFR).unwrap());
        let built = |store: &RecordStore, property: PropertyId| {
            let slots = store.derived.columns.get();
            slots.is_some_and(|slots| slots[property.index()].signatures.get().is_some())
        };
        let cold = store.clone();
        // Addressed by record, in value order; a record without the
        // property has none.
        let column = store.signatures(mfr).unwrap();
        assert_eq!(
            column.of(0),
            [Signature::of("Vishay"), Signature::of("Vishay Intertech")]
        );
        assert!(column.of(1).is_empty() && column.of(2).is_empty());
        // Built for the column asked for and no other; equality ignores it.
        assert!(built(&store, mfr) && !built(&store, pn) && !built(&cold, mfr));
        assert_eq!(store, cold);
        // A clone keeps what was built.
        assert!(built(&store.clone(), mfr));
        // A property a sibling shard interned has no column here: nothing
        // to sign, nothing built.
        let late = schema.intern("http://e.org/v#late");
        assert!(store.signatures(late).is_none());
        // One it interned *before* this shard's own is a padding column:
        // no record has a value in it.
        let mut younger = RecordStore::builder_with_schema(schema.clone());
        younger.push(&{
            let mut r = Record::new(Term::iri("http://e.org/p5"));
            r.add("http://e.org/v#later-still", "x");
            r
        });
        assert!(younger.build().signatures(late).unwrap().of(0).is_empty());
        // The probe store's signatures go with its contents.
        let mut probe = RecordStore::builder_with_schema(schema.clone()).build();
        probe.refill_single(&schema, &sample_records()[0]);
        assert_eq!(
            probe.signatures(pn).unwrap().of(0),
            [Signature::of("CRCW0805-10K")]
        );
        probe.refill_single(&schema, &sample_records()[2]);
        assert!(probe.derived.columns.get().is_none());
        assert_eq!(
            probe.signatures(pn).unwrap().of(0),
            [Signature::of("T83A225")]
        );
    }

    /// The columns of `store` whose token table is built, and whether its
    /// full-text one is.
    fn token_tables(store: &RecordStore) -> (Vec<usize>, bool) {
        let slots = store
            .derived
            .columns
            .get()
            .map_or(&[][..], |slots| &slots[..]);
        let built = (0..slots.len()).filter(|&c| slots[c].tokens.get().is_some());
        let full_text = store.derived.full_text_tokens.get().is_some();
        (built.collect(), full_text)
    }

    #[test]
    fn token_tables_are_a_derived_per_column_cache() {
        let schema = SchemaInterner::new();
        let mut builder = RecordStore::builder_with_schema(schema.clone());
        for record in &sample_records() {
            builder.push(record);
        }
        let store = builder.build();
        let mfr = store.property(MFR).unwrap();
        let cold = store.clone();
        // The eager index's entry point tokenises nothing.
        store.token_index();
        assert_eq!(token_tables(&store), (vec![], false));
        // Built for the column asked for and no other, once; equality
        // ignores it.
        let table = store.token_table(mfr).unwrap();
        assert!(std::ptr::eq(table, store.token_table(mfr).unwrap()));
        assert_eq!(token_tables(&store), (vec![mfr.index()], false));
        assert_eq!(store, cold);
        // A clone keeps what was built.
        assert_eq!(token_tables(&store.clone()), (vec![mfr.index()], false));
        // A property a sibling shard interned has no column here: no table.
        let late = schema.intern("http://e.org/v#late");
        assert!(store.token_table(late).is_none());
        assert_eq!(token_tables(&store), (vec![mfr.index()], false));
        // The probe store's tables go with its contents.
        let mut probe = RecordStore::builder_with_schema(schema.clone()).build();
        probe.refill_single(&schema, &sample_records()[0]);
        probe.token_table(mfr).unwrap();
        assert_eq!(token_tables(&probe), (vec![mfr.index()], false));
        probe.refill_single(&schema, &sample_records()[2]);
        assert_eq!(token_tables(&probe), (vec![], false));
    }

    /// The feed's link, `jw_jaccard` under sorted neighbourhood, over the
    /// `small()` scenario (3 catalog shards on one schema): exactly the two
    /// tables its Jaccard rule reads — `maker` on the external store,
    /// `manufacturer` on every shard — and no other, not even the full
    /// text's.
    #[test]
    fn a_feed_shaped_run_builds_exactly_its_jaccard_rules_two_tables() {
        use crate::blocking::{BlockingKey, SortedNeighborhoodBlocker};
        use crate::comparator::{AttributeRule, RecordComparator};
        use crate::pipeline::LinkagePipeline;
        use crate::shard::ShardedStore;
        use crate::similarity::SimilarityMeasure;
        use classilink_datagen::scenario::{generate, ScenarioConfig};
        use classilink_datagen::vocab::{
            LOCAL_MANUFACTURER, LOCAL_PART_NUMBER, PROVIDER_MANUFACTURER, PROVIDER_PART_NUMBER,
        };
        let scenario = generate(&ScenarioConfig::small());
        // The generator links its own build of this crate: carry its
        // records over by value.
        let stores = [scenario.external_store(), scenario.local_store()];
        let [external, local] = stores.map(|store| {
            let records = store.to_records().into_iter();
            let records = records.map(|r| Record {
                id: r.id,
                attributes: r.attributes,
            });
            records.collect::<Vec<_>>()
        });
        let schema = SchemaInterner::new();
        let mut builder = RecordStore::builder_with_schema(schema.clone());
        for record in &external {
            builder.push(record);
        }
        let external = builder.build();
        let local = ShardedStore::from_records_with_schema(&local, 3, schema);
        let rule = |left: &str, right: &str, measure, weight| AttributeRule {
            left_property: left.to_string(),
            right_property: right.to_string(),
            measure,
            weight,
        };
        let jw_jaccard = RecordComparator::new(vec![
            rule(
                PROVIDER_PART_NUMBER,
                LOCAL_PART_NUMBER,
                SimilarityMeasure::JaroWinkler,
                0.8,
            ),
            rule(
                PROVIDER_MANUFACTURER,
                LOCAL_MANUFACTURER,
                SimilarityMeasure::JaccardTokens,
                0.2,
            ),
        ])
        .with_thresholds(0.95, 0.90);
        let key = BlockingKey::per_side(PROVIDER_PART_NUMBER, LOCAL_PART_NUMBER, 0);
        let blocker = SortedNeighborhoodBlocker::new(key, 10);
        let result = LinkagePipeline::new(&blocker, &jw_jaccard).run_sharded(&external, &local);
        assert!(!result.matches.is_empty());
        let column = |iri: &str| local.schema().get(iri).unwrap().index();
        let maker = (vec![column(PROVIDER_MANUFACTURER)], false);
        assert_eq!(token_tables(&external), maker);
        let manufacturer = (vec![column(LOCAL_MANUFACTURER)], false);
        for shard in local.shards() {
            assert_eq!(token_tables(shard), manufacturer);
        }
    }

    /// A comparator builds the token table of each column a set rule
    /// compares — the local side's in its warm, the external side's in
    /// the hoist — and the full-text table only when its rules cannot
    /// fire and its set-measure fallback does.
    #[test]
    fn comparators_build_the_token_tables_they_read() {
        use crate::blocking::CartesianBlocker;
        use crate::comparator::RecordComparator;
        use crate::pipeline::LinkagePipeline;
        use crate::shard::ShardedStore;
        use crate::similarity::SimilarityMeasure;
        // Every record has a maker: a rule on it fires on every pair.
        let mut other = Record::new(Term::iri("http://e.org/p4"));
        other.add(PN, "T83A225").add(MFR, "Kemet");
        let records = [sample_records().swap_remove(0), other];
        let external = RecordStore::from_records(&records);
        let nowhere = "http://nowhere.org/v#x";
        let mfr = external.property(MFR).unwrap().index();
        for (rule, property, measure, built) in [
            (
                "set rule",
                MFR,
                SimilarityMeasure::JaccardTokens,
                (vec![mfr], false),
            ),
            (
                "string rule",
                MFR,
                SimilarityMeasure::JaroWinkler,
                (vec![], false),
            ),
            (
                "rule that cannot fire",
                nowhere,
                SimilarityMeasure::JaccardTokens,
                (vec![], true),
            ),
        ] {
            let (external, local) = (external.clone(), ShardedStore::from_records(&records, 1));
            // The default fallback is Monge-Elkan, a set measure.
            let cmp = RecordComparator::single(property, MFR, measure);
            assert!(cmp.fallback.is_some());
            let result =
                LinkagePipeline::new(&CartesianBlocker, &cmp).run_sharded(&external, &local);
            assert_eq!(result.comparisons, 4, "{rule}");
            assert_eq!(token_tables(local.shard(0)), built, "{rule}: local");
            assert_eq!(token_tables(&external), built, "{rule}: external");
        }
    }

    #[test]
    fn refill_single_matches_fresh_build() {
        use crate::blocking::BlockingKey;
        let schema = SchemaInterner::new();
        let mut store = RecordStore::builder_with_schema(schema.clone()).build();
        let key = BlockingKey::shared(PN, 4);
        let mut extra = Record::new(Term::iri("http://e.org/p4"));
        extra.add("http://e.org/v#zz", "late").add(PN, "X1");
        let mut probes = sample_records();
        probes.push(extra);
        for record in &probes {
            store.refill_single(&schema, record);
            assert_eq!(store.len(), 1);
            assert_eq!(store.id(0), &record.id);
            assert_eq!(store.full_text(0), record.full_text());
            assert_eq!(store.to_records(), vec![record.clone()]);
            // Derived state follows the contents: this probe's id
            // resolves, every other probe's misses.
            for other in &probes {
                let expected = (other.id == record.id).then_some(0);
                assert_eq!(store.index_of(&other.id), expected);
            }
            // Cached key indexes are rebuilt against the new contents.
            let side = key.external_side(&store);
            assert_eq!(store.key_index(&side).key(0), side.key(&store, 0));
        }
        // A handle held across refills forces a fresh index instead of
        // an in-place rebuild — contents must still agree.
        let side = key.external_side(&store);
        let held = store.key_index(&side);
        store.refill_single(&schema, &probes[0]);
        let side = key.external_side(&store);
        assert_eq!(held.key(0), "x1");
        assert_eq!(store.key_index(&side).key(0), "crcw");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Record ↔ RecordStore round trip: arbitrary (including
            /// multi-byte) values, multi-valued and missing properties.
            #[test]
            fn prop_record_store_round_trip(
                v1 in "\\PC{0,20}",
                v2 in "[a-z0-9 -]{0,15}",
                record_count in 0usize..7,
                property_count in 1usize..4,
            ) {
                let mut records = Vec::new();
                for i in 0..record_count {
                    let mut r = Record::new(Term::iri(format!("http://e.org/item/{i}")));
                    for p in 0..property_count {
                        let property = format!("http://e.org/v#p{p}");
                        if (i + p) % 2 == 0 {
                            r.add(&property, format!("{v1}-{i}-{p}"));
                        }
                        if (i * 3 + p) % 4 == 1 {
                            r.add(&property, v2.clone());
                        }
                    }
                    records.push(r);
                }
                let store = RecordStore::from_records(&records);
                prop_assert_eq!(store.len(), records.len());
                prop_assert_eq!(store.to_records(), records.clone());
                for (i, r) in records.iter().enumerate() {
                    prop_assert_eq!(store.full_text(i), r.full_text());
                    prop_assert_eq!(store.index_of(&r.id), Some(i));
                    for (property, values) in &r.attributes {
                        let id = store.property(property).unwrap();
                        let stored: Vec<&str> = store.values(i, id).collect();
                        let original: Vec<&str> =
                            values.iter().map(String::as_str).collect();
                        prop_assert_eq!(stored, original);
                    }
                }
            }
        }
    }
}
