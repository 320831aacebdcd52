//! Blocking keys: how one record is reduced to a short comparable key.
//!
//! The related work describes keys such as "persons that share the same
//! first five characters of their last name belong to the same block" and
//! sorted-neighbourhood sorting keys. [`BlockingKey`] captures these
//! variants as a *recipe* over property IRIs; before touching records it
//! is resolved against a [`RecordStore`] into a [`KeySide`], which holds
//! the interned [`crate::intern::PropertyId`] so that key
//! extraction in the blocking loop never hashes an IRI string.
//!
//! Normalisation — lowercase, keep only alphanumerics, count the prefix in
//! output characters — is one loop over the value's chars
//! that treats an ASCII char as the byte it is (`to_ascii_lowercase`,
//! `is_ascii_alphanumeric`: what `char::to_lowercase` and
//! `char::is_alphanumeric` answer for it); only the other chars take the
//! `to_lowercase` expansion. Part numbers are ASCII, so building a
//! [`KeyIndex`](crate::token_index::KeyIndex) — every record's key, once
//! per recipe — is a byte loop for them.

use crate::intern::{PropertyId, PropertyInterner};
use crate::store::RecordStore;

/// A recipe for turning a record into a blocking/sorting key string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingKey {
    /// Property IRI used on external records.
    pub external_property: String,
    /// Property IRI used on local records (schemas differ, so the two sides
    /// may use different property names for the same information).
    pub local_property: String,
    /// Keep only the first `prefix_length` characters of the normalised
    /// value; `0` keeps the whole value. Every non-alphanumeric character
    /// is stripped before truncating.
    pub prefix_length: usize,
}

impl BlockingKey {
    /// A key over the same property IRI on both sides.
    pub fn shared(property: impl Into<String>, prefix_length: usize) -> Self {
        let p = property.into();
        BlockingKey {
            external_property: p.clone(),
            local_property: p,
            prefix_length,
        }
    }

    /// A key with different property IRIs per side.
    pub fn per_side(
        external_property: impl Into<String>,
        local_property: impl Into<String>,
        prefix_length: usize,
    ) -> Self {
        BlockingKey {
            external_property: external_property.into(),
            local_property: local_property.into(),
            prefix_length,
        }
    }

    /// Resolve the external-side property against `store` (one string
    /// lookup; every later key extraction is id-based).
    pub fn external_side(&self, store: &RecordStore) -> KeySide {
        self.external_side_of(store.interner())
    }

    /// Resolve the local-side property against `store`.
    pub fn local_side(&self, store: &RecordStore) -> KeySide {
        self.local_side_of(store.interner())
    }

    /// Resolve the external side against a schema directly. With a
    /// shared [`SchemaInterner`](crate::intern::SchemaInterner) snapshot
    /// the returned [`KeySide`] is valid for **every** store built on
    /// that schema (all shards of a
    /// [`ShardedStore`](crate::shard::ShardedStore)).
    pub fn external_side_of(&self, schema: &PropertyInterner) -> KeySide {
        KeySide {
            property: schema.get(&self.external_property),
            prefix_length: self.prefix_length,
        }
    }

    /// Resolve the local side against a schema directly (see
    /// [`external_side_of`](Self::external_side_of)).
    pub fn local_side_of(&self, schema: &PropertyInterner) -> KeySide {
        KeySide {
            property: schema.get(&self.local_property),
            prefix_length: self.prefix_length,
        }
    }
}

/// One side of a [`BlockingKey`], resolved against a specific
/// [`RecordStore`]. Only valid for records of that store.
///
/// It is also the cache key of the store-level
/// [`KeyIndex`](crate::token_index::KeyIndex): two equal sides produce
/// identical keys on every record, so they share one index (e.g. a
/// standard blocker and a sorted-neighbourhood blocker on the same
/// property).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeySide {
    /// The interned property, `None` when no record of the store has it.
    property: Option<PropertyId>,
    prefix_length: usize,
}

impl KeySide {
    /// The resolved property id, if the store knows the IRI.
    pub fn property(&self) -> Option<PropertyId> {
        self.property
    }

    /// Append the **full** normalised value to `out` and return the byte
    /// length (relative to where writing started) of its truncated
    /// prefix — i.e. [`key`](Self::key) is the first `returned` bytes of
    /// what was written and [`sort_value`](Self::sort_value) is all of
    /// it. This is the build primitive of the store-level
    /// [`KeyIndex`](crate::token_index::KeyIndex), which extracts every
    /// record's key exactly once.
    pub(crate) fn write_normalised(&self, value: &str, out: &mut String) -> usize {
        let take = if self.prefix_length > 0 {
            self.prefix_length
        } else {
            usize::MAX
        };
        // Lowercase char by char before filtering: lowercasing can emit
        // combining marks (e.g. 'İ' → "i\u{307}") that the alphanumeric
        // filter must then strip, and the prefix counts *output*
        // characters. Char-wise mapping (instead of `str::to_lowercase`)
        // keeps key extraction allocation-free — the serving layer
        // re-keys its one-record probe store on every call — forgoing
        // only the final-sigma special case of the `str` version. An ASCII
        // char is lowercased and classified as the byte it is (what
        // `to_lowercase` and `is_alphanumeric` answer for it); only the
        // others take the `to_lowercase` expansion.
        let start = out.len();
        let mut kept = 0;
        let mut key_end = None;
        let mut keep = |c: char, out: &mut String| {
            out.push(c);
            kept += 1;
            if kept == take {
                key_end = Some(out.len() - start);
            }
        };
        for c in value.chars() {
            if c.is_ascii() {
                let c = c.to_ascii_lowercase();
                if c.is_ascii_alphanumeric() {
                    keep(c, out);
                }
            } else {
                for c in c.to_lowercase() {
                    if c.is_alphanumeric() {
                        keep(c, out);
                    }
                }
            }
        }
        key_end.unwrap_or(out.len() - start)
    }

    /// The (truncated, normalised) blocking key of `record`; empty when
    /// the property is missing.
    pub fn key(&self, store: &RecordStore, record: usize) -> String {
        match self.property.and_then(|p| store.first(record, p)) {
            Some(value) => {
                let mut out = String::with_capacity(value.len());
                let end = self.write_normalised(value, &mut out);
                out.truncate(end);
                out
            }
            None => String::new(),
        }
    }

    /// The full (untruncated) normalised value, used as a sorting key by
    /// the sorted-neighbourhood method.
    pub fn sort_value(&self, store: &RecordStore, record: usize) -> String {
        match self.property.and_then(|p| store.first(record, p)) {
            Some(value) => {
                let mut out = String::with_capacity(value.len());
                self.write_normalised(value, &mut out);
                out
            }
            None => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::test_support::{ext_record, loc_record, EXT_PN, LOC_PN};
    use crate::store::RecordStore;

    fn ext_store(pn: &str) -> RecordStore {
        RecordStore::from_records(&[ext_record(0, pn)])
    }

    #[test]
    fn shared_key_truncates_and_normalises() {
        let store = ext_store("CRCW-0805 10K");
        let key = BlockingKey::shared(EXT_PN, 5).external_side(&store);
        assert_eq!(key.key(&store, 0), "crcw0");
        let full = BlockingKey::shared(EXT_PN, 0).external_side(&store);
        assert_eq!(full.key(&store, 0), "crcw080510k");
    }

    #[test]
    fn per_side_keys_use_their_property() {
        let recipe = BlockingKey::per_side(EXT_PN, LOC_PN, 4);
        let external = ext_store("T83-A225");
        let local = RecordStore::from_records(&[loc_record(0, "T83-A225")]);
        assert_eq!(recipe.external_side(&external).key(&external, 0), "t83a");
        assert_eq!(recipe.local_side(&local).key(&local, 0), "t83a");
        // The local property does not exist on the external store: the
        // side resolves to no property and every key is empty.
        let missing = recipe.local_side(&external);
        assert_eq!(missing.property(), None);
        assert_eq!(missing.key(&external, 0), "");
    }

    #[test]
    fn sort_value_keeps_full_length() {
        let recipe = BlockingKey::per_side(EXT_PN, LOC_PN, 3);
        let external = ext_store("CRCW0805-10K");
        assert_eq!(
            recipe.external_side(&external).sort_value(&external, 0),
            "crcw080510k"
        );
        assert_eq!(recipe.local_side(&external).sort_value(&external, 0), "");
    }

    #[test]
    fn prefix_counts_characters_not_bytes() {
        let store = ext_store("ÉÀÇ-1234");
        let recipe = BlockingKey::shared(EXT_PN, 4);
        assert_eq!(recipe.external_side(&store).key(&store, 0), "éàç1");
    }

    #[test]
    fn write_normalised_agrees_with_key_and_sort_value() {
        // One write yields both views: the first `end` bytes are the
        // truncated key, the whole write is the sort value.
        let store = ext_store("CRCW-0805 10K");
        for prefix in [0, 3, 5, 40] {
            let side = BlockingKey::shared(EXT_PN, prefix).external_side(&store);
            let mut out = String::new();
            let end = side.write_normalised("CRCW-0805 10K", &mut out);
            assert_eq!(out[..end], side.key(&store, 0), "prefix {prefix}");
            assert_eq!(out, side.sort_value(&store, 0), "prefix {prefix}");
        }
    }

    /// `write_normalised` written the char-wise way, for every char: each
    /// through `char::to_lowercase`, each lowercased char through
    /// `is_alphanumeric`. Returns the written value and its key's end.
    fn char_wise_normalised(side: &KeySide, value: &str) -> (String, usize) {
        let take = if side.prefix_length > 0 {
            side.prefix_length
        } else {
            usize::MAX
        };
        let mut out = String::new();
        let (mut kept, mut key_end) = (0, None);
        for c in value.chars().flat_map(char::to_lowercase) {
            if !c.is_alphanumeric() {
                continue;
            }
            out.push(c);
            kept += 1;
            if kept == take {
                key_end = Some(out.len());
            }
        }
        let end = key_end.unwrap_or(out.len());
        (out, end)
    }

    /// The byte path for ASCII chars writes what the char-wise loop
    /// writes, and ends the key at the same byte, at every prefix length —
    /// appended after earlier output.
    fn assert_normalised_char_wise(value: &str) {
        for prefix_length in [0, 1, 4, 8, 40] {
            let side = KeySide {
                property: None,
                prefix_length,
            };
            let mut out = String::from("earlier");
            let end = side.write_normalised(value, &mut out);
            let (expected, expected_end) = char_wise_normalised(&side, value);
            assert_eq!(
                (&out["earlier".len()..], end),
                (expected.as_str(), expected_end),
                "{value:?}, prefix {prefix_length}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_ascii_keys_normalise_char_wise(value in "[ -~]{0,30}") {
            assert_normalised_char_wise(&value);
        }

        #[test]
        fn prop_printable_keys_normalise_char_wise(value in "\\PC{0,20}") {
            assert_normalised_char_wise(&value);
        }
    }

    #[test]
    fn lowercasing_combining_marks_are_filtered() {
        // 'İ' lowercases to "i\u{307}"; the combining mark is not
        // alphanumeric and must not leak into the blocking key, so both
        // spellings land in the same block.
        let dotted = ext_store("İSTANBUL-42");
        let plain = ext_store("istanbul-42");
        let recipe = BlockingKey::shared(EXT_PN, 0);
        let a = recipe.external_side(&dotted).key(&dotted, 0);
        let b = recipe.external_side(&plain).key(&plain, 0);
        assert_eq!(a, b);
        assert_eq!(a, "istanbul42");
        let prefix = BlockingKey::shared(EXT_PN, 3);
        assert_eq!(prefix.external_side(&dotted).key(&dotted, 0), "ist");
    }
}
