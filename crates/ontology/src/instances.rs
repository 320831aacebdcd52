//! Class-membership assertions for data items.
//!
//! The paper needs, for the local source `SL`, the set of instances of each
//! class appearing in the training set (to compute class frequencies and the
//! linking subspaces). [`InstanceStore`] records `rdf:type` assertions and
//! answers extent queries both directly and under subsumption. Extents under
//! subsumption all go through one borrowed enumerator,
//! [`InstanceStore::extent_refs`]; the owned form is a one-line view of it.

use crate::model::ClassId;
use crate::ontology::Ontology;
use classilink_rdf::Term;
use std::collections::{BTreeMap, BTreeSet};

/// A store of `item rdf:type class` assertions.
#[derive(Debug, Clone, Default)]
pub struct InstanceStore {
    /// item → asserted (direct) classes.
    types_of: BTreeMap<Term, BTreeSet<ClassId>>,
    /// class → directly asserted instances.
    extent: BTreeMap<ClassId, BTreeSet<Term>>,
}

impl InstanceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assert that `item` is an instance of `class`. Returns `true` if new.
    pub fn assert_type(&mut self, item: &Term, class: ClassId) -> bool {
        let inserted = self.types_of.entry(item.clone()).or_default().insert(class);
        if inserted {
            self.extent.entry(class).or_default().insert(item.clone());
        }
        inserted
    }

    /// The classes directly asserted for `item`.
    pub fn types_of(&self, item: &Term) -> Vec<ClassId> {
        self.types_of
            .get(item)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Instances of `class` including those of its subclasses, **borrowed**:
    /// sorted in `Term` order, each item once however many of the classes it
    /// is asserted in. The one body that unions a class's extent with its
    /// descendants'; nothing is cloned, so callers that only count the
    /// members or resolve them to record ids (the rule-based blocker) pay one
    /// pointer per member.
    pub fn extent_refs(&self, class: ClassId, ontology: &Ontology) -> Vec<&Term> {
        let mut out: Vec<&Term> = Vec::new();
        let mut sources = 0usize;
        for c in std::iter::once(class).chain(ontology.descendants(class)) {
            if let Some(items) = self.extent.get(&c) {
                out.extend(items);
                sources += 1;
            }
        }
        // One direct extent is already a sorted set; several may interleave
        // and share multi-asserted items.
        if sources > 1 {
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    /// Instances of `class` including those of its subclasses, as owned
    /// terms (see [`extent_refs`](Self::extent_refs) for the borrowed form).
    pub fn extent(&self, class: ClassId, ontology: &Ontology) -> Vec<Term> {
        self.extent_refs(class, ontology)
            .into_iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OntologyBuilder;

    fn setup() -> (Ontology, [ClassId; 4]) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let component = b.class("Component", None);
        let resistor = b.class("Resistor", Some(component));
        let fixed = b.class("FixedFilmResistor", Some(resistor));
        let capacitor = b.class("Capacitor", Some(component));
        (b.build(), [component, resistor, fixed, capacitor])
    }

    fn item(n: u32) -> Term {
        Term::iri(format!("http://e.org/prod/{n}"))
    }

    #[test]
    fn assert_and_query_types() {
        let (_, [component, _, fixed, _]) = setup();
        let mut store = InstanceStore::new();
        assert!(store.assert_type(&item(1), fixed));
        assert!(!store.assert_type(&item(1), fixed));
        store.assert_type(&item(1), component);
        assert_eq!(store.types_of(&item(1)).len(), 2);
        assert_eq!(store.types_of(&item(9)).len(), 0);
    }

    #[test]
    fn extents_respect_subsumption() {
        let (onto, [component, resistor, fixed, capacitor]) = setup();
        let mut store = InstanceStore::new();
        store.assert_type(&item(1), fixed);
        store.assert_type(&item(2), resistor);
        store.assert_type(&item(3), capacitor);
        assert_eq!(store.extent(resistor, &onto), vec![item(1), item(2)]);
        assert_eq!(store.extent(component, &onto).len(), 3);
        assert_eq!(store.extent(fixed, &onto), vec![item(1)]);
        assert_eq!(store.extent(capacitor, &onto), vec![item(3)]);
    }

    #[test]
    fn extent_deduplicates_multi_asserted_items() {
        let (onto, [component, resistor, fixed, _]) = setup();
        let mut store = InstanceStore::new();
        store.assert_type(&item(1), fixed);
        store.assert_type(&item(1), resistor);
        assert_eq!(store.extent(component, &onto), vec![item(1)]);
    }

    /// The extent written the obvious way: every item of `items` (in
    /// `Term` order), one of whose asserted classes is the class or a
    /// subclass of it.
    fn obvious_extent(
        store: &InstanceStore,
        items: &[Term],
        class: ClassId,
        onto: &Ontology,
    ) -> Vec<Term> {
        let is_member = |item: &&Term| {
            let asserted = store.types_of(item);
            asserted.iter().any(|c| onto.is_subclass_of(*c, class))
        };
        items.iter().filter(is_member).cloned().collect()
    }

    #[test]
    fn borrowed_extent_is_sorted_deduplicated_and_equals_the_owned_one() {
        let (onto, classes @ [component, resistor, fixed, capacitor]) = setup();
        let mut store = InstanceStore::new();
        // Asserted out of `Term` order, interleaved across sibling classes,
        // with items 3 and 7 asserted in a class and in its ancestor.
        for (n, class) in [
            (9, fixed),
            (3, resistor),
            (7, capacitor),
            (1, fixed),
            (3, fixed),
            (8, resistor),
            (7, component),
            (2, capacitor),
        ] {
            store.assert_type(&item(n), class);
        }
        for class in classes {
            let refs = store.extent_refs(class, &onto);
            assert!(
                refs.windows(2).all(|w| w[0] < w[1]),
                "strictly ascending `Term` order"
            );
            let owned: Vec<Term> = refs.into_iter().cloned().collect();
            let items: Vec<Term> = (1..=9).map(item).collect();
            assert_eq!(owned, obvious_extent(&store, &items, class, &onto));
            assert_eq!(owned, store.extent(class, &onto));
        }
        // Multi-asserted items appear once.
        assert_eq!(
            store.extent_refs(component, &onto),
            [1, 2, 3, 7, 8, 9].map(item).iter().collect::<Vec<_>>()
        );
        assert_eq!(store.extent_refs(resistor, &onto).len(), 4);
    }

    #[test]
    fn borrowed_extent_of_an_empty_class_is_empty() {
        let (onto, [component, resistor, fixed, capacitor]) = setup();
        let mut store = InstanceStore::new();
        assert!(store.extent_refs(component, &onto).is_empty());
        store.assert_type(&item(1), capacitor);
        // Neither `resistor` nor its subclass has a member.
        assert!(store.extent_refs(resistor, &onto).is_empty());
        assert!(store.extent_refs(fixed, &onto).is_empty());
        assert_eq!(store.extent_refs(component, &onto), vec![&item(1)]);
    }

    #[test]
    fn empty_store_queries() {
        let (onto, [component, ..]) = setup();
        let store = InstanceStore::new();
        assert!(store.extent(component, &onto).is_empty());
    }
}
