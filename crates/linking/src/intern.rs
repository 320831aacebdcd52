//! Property-IRI interning.
//!
//! Records in this workspace are keyed by full property IRIs such as
//! `http://provider.example.org/vocab#partNumber`. Hashing and comparing
//! those strings in the per-pair comparison hot path is pure overhead:
//! the set of distinct properties is tiny (a handful per source) while
//! the number of lookups grows with `|SE| × |SL|`. The
//! [`PropertyInterner`] maps each distinct IRI to a dense [`PropertyId`]
//! exactly once, so every later lookup is an array index.
//!
//! Interned ids are **local to one interner** (and therefore to one
//! [`RecordStore`](crate::store::RecordStore)): stores built standalone
//! intern independently, so ids must never be mixed across such stores.
//! APIs that work across two stores (blocking keys, attribute rules)
//! resolve their IRIs against each store once at construction — see
//! [`RecordComparator::compile`](crate::comparator::RecordComparator::compile).
//!
//! The exception is the [`SchemaInterner`]: a **shared** symbol table
//! that several store builders (the per-shard stores of a
//! [`ShardedStore`](crate::shard::ShardedStore), or the external and
//! local stores of one scenario batch) intern into. Every store built on
//! the same `SchemaInterner` assigns the same [`PropertyId`] to the same
//! IRI, so blocking keys and
//! [`CompiledComparator`](crate::comparator::CompiledComparator)s are
//! resolved **once** and reused across all store pairs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A dense identifier for an interned property IRI.
///
/// Valid only for the [`PropertyInterner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PropertyId(pub u32);

impl PropertyId {
    /// The id as a column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A symbol table assigning dense [`PropertyId`]s to property IRIs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropertyInterner {
    names: Vec<String>,
    ids: HashMap<String, PropertyId>,
}

impl PropertyInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `name`, interning it on first sight.
    pub fn intern(&mut self, name: &str) -> PropertyId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id =
            PropertyId(u32::try_from(self.names.len()).expect("more than u32::MAX properties"));
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The id of `name`, if it has been interned.
    pub fn get(&self, name: &str) -> Option<PropertyId> {
        self.ids.get(name).copied()
    }

    /// Number of interned properties.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Rebuild an interner from its serialized name list — the inverse
    /// of [`iter`](Self::iter): interning the names in order reproduces
    /// the original ids exactly, so a restored interner compares equal
    /// to the one that was persisted. Duplicate names mean the snapshot
    /// is corrupt (an interner never holds two ids for one IRI).
    pub(crate) fn from_names(names: Vec<String>) -> Result<PropertyInterner, String> {
        let mut interner = PropertyInterner::new();
        for name in &names {
            interner.intern(name);
        }
        if interner.len() != names.len() {
            return Err("schema snapshot repeats a property name".to_string());
        }
        Ok(interner)
    }

    /// `(id, IRI)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (PropertyId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (PropertyId(i as u32), n.as_str()))
    }
}

/// A property symbol table **shared between several store builders**.
///
/// Cloning a `SchemaInterner` clones a *handle*: all clones intern into
/// the same underlying table (guarded by a mutex, so shards may even be
/// built concurrently). Ids handed out by any handle are valid for every
/// store built on the same schema, which is what lets a
/// [`CompiledComparator`](crate::comparator::CompiledComparator) or a
/// resolved [`KeySide`](crate::blocking::KeySide) be compiled once and
/// reused across shard/store pairs.
///
/// A builder takes an immutable [`snapshot`](SchemaInterner::snapshot)
/// when it freezes its store; properties interned *after* that snapshot
/// simply resolve to empty columns on the already-built store.
#[derive(Debug, Clone, Default)]
pub struct SchemaInterner {
    inner: Arc<Mutex<PropertyInterner>>,
}

impl SchemaInterner {
    /// An empty shared schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared schema **continuing** an existing snapshot: every
    /// already-interned IRI keeps exactly the id the snapshot gave it,
    /// and new IRIs extend the dense sequence from there. This is how a
    /// delta batch (see
    /// [`ShardedStore::delta_builder`](crate::shard::ShardedStore::delta_builder))
    /// columnarises against a frozen catalog without re-resolving a
    /// single compiled id.
    pub fn seeded(snapshot: &PropertyInterner) -> Self {
        SchemaInterner {
            inner: Arc::new(Mutex::new(snapshot.clone())),
        }
    }

    /// Lock the shared table, recovering from poisoning: the critical
    /// sections below never unwind mid-mutation (`PropertyInterner`
    /// pushes the name before publishing the id, and the remaining ops
    /// are reads), so a poisoned mutex only means *some other* code
    /// panicked while holding it — the table itself is still a valid
    /// append-only interner and must keep serving rather than cascade
    /// the failure into every schema user.
    fn table(&self) -> std::sync::MutexGuard<'_, PropertyInterner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The id of `name`, interning it on first sight (in any handle).
    pub fn intern(&self, name: &str) -> PropertyId {
        self.table().intern(name)
    }

    /// The id of `name`, if any handle has interned it.
    pub fn get(&self, name: &str) -> Option<PropertyId> {
        self.table().get(name)
    }

    /// Number of interned properties.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    /// An immutable copy of the current table (what a freezing store
    /// builder embeds into its [`RecordStore`](crate::store::RecordStore)).
    pub fn snapshot(&self) -> PropertyInterner {
        self.table().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut interner = PropertyInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern("http://e.org/v#a");
        let b = interner.intern("http://e.org/v#b");
        assert_eq!(interner.intern("http://e.org/v#a"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn lookup_round_trips() {
        let mut interner = PropertyInterner::new();
        let id = interner.intern("http://e.org/v#pn");
        assert_eq!(interner.get("http://e.org/v#pn"), Some(id));
        assert_eq!(interner.get("http://e.org/v#missing"), None);
    }

    #[test]
    fn schema_handles_share_one_table() {
        let schema = SchemaInterner::new();
        assert!(schema.is_empty());
        let handle = schema.clone();
        let a = schema.intern("http://e.org/v#a");
        // The clone sees the id and continues the same dense sequence.
        assert_eq!(handle.get("http://e.org/v#a"), Some(a));
        let b = handle.intern("http://e.org/v#b");
        assert_eq!(b.index(), 1);
        assert_eq!(schema.len(), 2);
        // A snapshot is a point-in-time copy: later interns don't show up.
        let snapshot = schema.snapshot();
        schema.intern("http://e.org/v#c");
        assert_eq!(snapshot.len(), 2);
        assert_eq!(schema.len(), 3);
    }

    #[test]
    fn seeded_schema_continues_the_snapshot() {
        let schema = SchemaInterner::new();
        let a = schema.intern("http://e.org/v#a");
        let b = schema.intern("http://e.org/v#b");
        let snapshot = schema.snapshot();
        let delta = SchemaInterner::seeded(&snapshot);
        assert_eq!(delta.get("http://e.org/v#a"), Some(a));
        assert_eq!(delta.intern("http://e.org/v#b"), b);
        assert_eq!(delta.intern("http://e.org/v#c").index(), 2);
        // The base snapshot and its source schema are untouched.
        assert_eq!(snapshot.len(), 2);
        assert_eq!(schema.len(), 2);
    }

    #[test]
    fn iteration_preserves_interning_order() {
        let mut interner = PropertyInterner::new();
        interner.intern("b");
        interner.intern("a");
        let names: Vec<&str> = interner.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
        let ids: Vec<usize> = interner.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
