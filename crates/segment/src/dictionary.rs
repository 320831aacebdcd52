//! Segment interning.
//!
//! The learning algorithm counts, for every property, the examples each
//! segment occurs in ("for each property p and for each segment a, we
//! compute the frequency of p(X,Y) ∧ subsegment(Y,a)"). The
//! [`SegmentDictionary`] interns segment strings into dense [`SegmentId`]s so
//! those counts are keyed by integers; its size is the paper's "7 842
//! distinct segments".

use std::collections::HashMap;

/// A compact identifier for an interned segment string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional map between segment strings and [`SegmentId`]s.
#[derive(Debug, Clone, Default)]
pub struct SegmentDictionary {
    by_text: HashMap<String, SegmentId>,
    texts: Vec<String>,
}

impl SegmentDictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `segment`, returning its id. Repeated calls with an equal
    /// segment return the same id.
    pub fn intern(&mut self, segment: &str) -> SegmentId {
        if let Some(id) = self.by_text.get(segment) {
            return *id;
        }
        let id = SegmentId(self.texts.len() as u32);
        self.by_text.insert(segment.to_string(), id);
        self.texts.push(segment.to_string());
        id
    }

    /// The text of an interned segment.
    pub fn text(&self, id: SegmentId) -> Option<&str> {
        self.texts.get(id.index()).map(String::as_str)
    }

    /// Number of distinct segments.
    pub fn distinct_count(&self) -> usize {
        self.texts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_dense_and_resolvable() {
        let mut d = SegmentDictionary::new();
        let a = d.intern("a");
        let b = d.intern("b");
        assert_eq!(d.intern("a"), a);
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(d.distinct_count(), 2);
        assert_eq!(d.text(b), Some("b"));
        assert_eq!(d.text(SegmentId(5)), None);
    }
}
