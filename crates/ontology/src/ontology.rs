//! The ontology: classes and their subsumption hierarchy.

use crate::error::{OntologyError, Result};
use crate::model::{ClassId, OntClass};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// An OWL-lite ontology: a class hierarchy (`rdfs:subClassOf`). The paper's
/// rules conclude on its classes; their premises read properties of the
/// external source, whose schema the ontology does not describe.
///
/// The hierarchy is a DAG (multiple inheritance is allowed, cycles are
/// rejected). All hierarchy queries (`ancestors`, `descendants`,
/// `is_subclass_of`, …) treat subsumption as reflexive and transitive, which
/// matches the RDFS semantics the paper relies on.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    classes: Vec<OntClass>,
    class_by_iri: HashMap<String, ClassId>,
    children: Vec<Vec<ClassId>>,
}

impl Ontology {
    /// An empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Classes
    // ------------------------------------------------------------------

    /// Declare a class. Returns the existing id if the IRI is already known.
    pub fn add_class(&mut self, iri: impl Into<String>, label: impl Into<String>) -> ClassId {
        let iri = iri.into();
        if let Some(id) = self.class_by_iri.get(&iri) {
            return *id;
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(OntClass {
            id,
            iri: iri.clone(),
            label: label.into(),
            parents: Vec::new(),
        });
        self.children.push(Vec::new());
        self.class_by_iri.insert(iri, id);
        id
    }

    /// Declare `sub rdfs:subClassOf sup`. Fails if the edge would create a
    /// cycle. Declaring the same edge twice is a no-op.
    pub fn add_subclass_axiom(&mut self, sub: ClassId, sup: ClassId) -> Result<()> {
        self.check_id(sub)?;
        self.check_id(sup)?;
        if sub == sup {
            return Err(OntologyError::SubsumptionCycle {
                sub: self.iri(sub).to_string(),
                sup: self.iri(sup).to_string(),
            });
        }
        // A cycle appears iff sup is already (transitively) a subclass of sub.
        if self.is_subclass_of(sup, sub) {
            return Err(OntologyError::SubsumptionCycle {
                sub: self.iri(sub).to_string(),
                sup: self.iri(sup).to_string(),
            });
        }
        if !self.classes[sub.index()].parents.contains(&sup) {
            self.classes[sub.index()].parents.push(sup);
            self.children[sup.index()].push(sub);
        }
        Ok(())
    }

    /// Number of declared classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// `true` when no class is declared.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Look up a class by IRI.
    pub fn class(&self, iri: &str) -> Option<ClassId> {
        self.class_by_iri.get(iri).copied()
    }

    /// Metadata of a class.
    pub fn class_info(&self, id: ClassId) -> Option<&OntClass> {
        self.classes.get(id.index())
    }

    /// The IRI of a class (panics on an id from another ontology).
    pub fn iri(&self, id: ClassId) -> &str {
        &self.classes[id.index()].iri
    }

    /// The label of a class (panics on an id from another ontology).
    pub fn label(&self, id: ClassId) -> &str {
        &self.classes[id.index()].label
    }

    /// Iterate over all classes in id order.
    pub fn classes(&self) -> impl Iterator<Item = &OntClass> {
        self.classes.iter()
    }

    /// All class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId)
    }

    fn check_id(&self, id: ClassId) -> Result<()> {
        if id.index() < self.classes.len() {
            Ok(())
        } else {
            Err(OntologyError::UnknownClassId(id.0))
        }
    }

    // ------------------------------------------------------------------
    // Hierarchy queries
    // ------------------------------------------------------------------

    /// Direct superclasses of `id`.
    pub fn parents(&self, id: ClassId) -> &[ClassId] {
        &self.classes[id.index()].parents
    }

    /// Direct subclasses of `id`.
    pub fn children(&self, id: ClassId) -> &[ClassId] {
        &self.children[id.index()]
    }

    /// All (transitive) superclasses of `id`, excluding `id` itself, in
    /// breadth-first order (deduplicated).
    pub fn ancestors(&self, id: ClassId) -> Vec<ClassId> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<ClassId> = self.parents(id).iter().copied().collect();
        let mut out = Vec::new();
        while let Some(c) = queue.pop_front() {
            if seen.insert(c) {
                out.push(c);
                queue.extend(self.parents(c).iter().copied());
            }
        }
        out
    }

    /// All (transitive) subclasses of `id`, excluding `id` itself.
    pub fn descendants(&self, id: ClassId) -> Vec<ClassId> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<ClassId> = self.children(id).iter().copied().collect();
        let mut out = Vec::new();
        while let Some(c) = queue.pop_front() {
            if seen.insert(c) {
                out.push(c);
                queue.extend(self.children(c).iter().copied());
            }
        }
        out
    }

    /// Reflexive-transitive subsumption check: `true` when `sub` ⊑ `sup`.
    pub fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        if sub == sup {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue: VecDeque<ClassId> = self.parents(sub).iter().copied().collect();
        while let Some(c) = queue.pop_front() {
            if c == sup {
                return true;
            }
            if seen.insert(c) {
                queue.extend(self.parents(c).iter().copied());
            }
        }
        false
    }

    /// Classes without declared superclasses.
    pub fn roots(&self) -> Vec<ClassId> {
        self.classes
            .iter()
            .filter(|c| c.is_root())
            .map(|c| c.id)
            .collect()
    }

    /// Classes without subclasses — "the leaves of the ontology" on which the
    /// paper computes class frequencies (226 in its evaluation).
    pub fn leaves(&self) -> Vec<ClassId> {
        self.class_ids()
            .filter(|c| self.children(*c).is_empty())
            .collect()
    }

    /// `true` when `id` is a leaf class.
    pub fn is_leaf(&self, id: ClassId) -> bool {
        self.children(id).is_empty()
    }

    /// The depth of a class: 0 for roots, otherwise 1 + the minimum depth of
    /// its parents.
    pub fn depth(&self, id: ClassId) -> usize {
        let mut depth = 0;
        let mut frontier = vec![id];
        let mut seen = HashSet::new();
        loop {
            if frontier.iter().any(|c| self.parents(*c).is_empty()) {
                return depth;
            }
            let mut next = Vec::new();
            for c in frontier {
                for p in self.parents(c) {
                    if seen.insert(*p) {
                        next.push(*p);
                    }
                }
            }
            if next.is_empty() {
                return depth;
            }
            frontier = next;
            depth += 1;
        }
    }

    /// Keep only the most specific classes of `set`: drop any class that has
    /// a proper subclass also present in `set`.
    ///
    /// The paper computes class frequencies "only for the most specific
    /// classes of the ontology OL"; this is the corresponding operation on an
    /// item's asserted types.
    pub fn most_specific(&self, set: &[ClassId]) -> Vec<ClassId> {
        let unique: BTreeSet<ClassId> = set.iter().copied().collect();
        unique
            .iter()
            .copied()
            .filter(|c| {
                !unique
                    .iter()
                    .any(|other| *other != *c && self.is_subclass_of(*other, *c))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Component ─┬─ Resistor ─┬─ FixedFilmResistor
    ///             │            └─ WirewoundResistor
    ///             └─ Capacitor ── TantalumCapacitor
    fn sample() -> (Ontology, [ClassId; 6]) {
        let mut o = Ontology::new();
        let component = o.add_class("http://e.org/c#Component", "Component");
        let resistor = o.add_class("http://e.org/c#Resistor", "Resistor");
        let fixed = o.add_class("http://e.org/c#FixedFilmResistor", "Fixed film resistor");
        let wire = o.add_class("http://e.org/c#WirewoundResistor", "Wirewound resistor");
        let capacitor = o.add_class("http://e.org/c#Capacitor", "Capacitor");
        let tantalum = o.add_class("http://e.org/c#TantalumCapacitor", "Tantalum capacitor");
        o.add_subclass_axiom(resistor, component).unwrap();
        o.add_subclass_axiom(fixed, resistor).unwrap();
        o.add_subclass_axiom(wire, resistor).unwrap();
        o.add_subclass_axiom(capacitor, component).unwrap();
        o.add_subclass_axiom(tantalum, capacitor).unwrap();
        (o, [component, resistor, fixed, wire, capacitor, tantalum])
    }

    #[test]
    fn add_class_is_idempotent() {
        let mut o = Ontology::new();
        let a = o.add_class("http://e.org/c#A", "A");
        let b = o.add_class("http://e.org/c#A", "A again");
        assert_eq!(a, b);
        assert_eq!(o.class_count(), 1);
        assert_eq!(o.label(a), "A");
    }

    #[test]
    fn lookup_by_iri() {
        let (o, [component, ..]) = sample();
        assert_eq!(o.class("http://e.org/c#Component"), Some(component));
        assert_eq!(o.class("http://e.org/c#Nope"), None);
        assert_eq!(o.class_info(component).unwrap().label, "Component");
        assert!(o.class_info(ClassId(99)).is_none());
    }

    #[test]
    fn subsumption_is_reflexive_and_transitive() {
        let (o, [component, resistor, fixed, _, capacitor, tantalum]) = sample();
        assert!(o.is_subclass_of(fixed, fixed));
        assert!(o.is_subclass_of(fixed, resistor));
        assert!(o.is_subclass_of(fixed, component));
        assert!(o.is_subclass_of(tantalum, component));
        assert!(!o.is_subclass_of(component, fixed));
        assert!(!o.is_subclass_of(fixed, capacitor));
    }

    #[test]
    fn ancestors_and_descendants() {
        let (o, [component, resistor, fixed, wire, capacitor, tantalum]) = sample();
        assert_eq!(o.ancestors(fixed), vec![resistor, component]);
        assert!(o.ancestors(component).is_empty());
        let mut desc = o.descendants(component);
        desc.sort();
        assert_eq!(desc, vec![resistor, fixed, wire, capacitor, tantalum]);
        assert!(o.descendants(fixed).is_empty());
    }

    #[test]
    fn roots_and_leaves() {
        let (o, [component, _, fixed, wire, _, tantalum]) = sample();
        assert_eq!(o.roots(), vec![component]);
        let leaves = o.leaves();
        assert_eq!(leaves, vec![fixed, wire, tantalum]);
        assert!(o.is_leaf(fixed));
        assert!(!o.is_leaf(component));
    }

    #[test]
    fn depth_computation() {
        let (o, [component, resistor, fixed, ..]) = sample();
        assert_eq!(o.depth(component), 0);
        assert_eq!(o.depth(resistor), 1);
        assert_eq!(o.depth(fixed), 2);
    }

    #[test]
    fn cycle_rejection() {
        let (mut o, [component, resistor, fixed, ..]) = sample();
        assert!(matches!(
            o.add_subclass_axiom(component, fixed),
            Err(OntologyError::SubsumptionCycle { .. })
        ));
        assert!(o.add_subclass_axiom(resistor, resistor).is_err());
        // Re-adding an existing edge is fine.
        assert!(o.add_subclass_axiom(fixed, resistor).is_ok());
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (mut o, [component, ..]) = sample();
        assert!(o.add_subclass_axiom(ClassId(99), component).is_err());
        assert!(o.add_subclass_axiom(component, ClassId(99)).is_err());
    }

    #[test]
    fn most_specific_filters_ancestors() {
        let (o, [component, resistor, fixed, wire, ..]) = sample();
        let ms = o.most_specific(&[component, resistor, fixed]);
        assert_eq!(ms, vec![fixed]);
        let ms2 = o.most_specific(&[fixed, wire]);
        assert_eq!(ms2, vec![fixed, wire]);
        let ms3 = o.most_specific(&[component, component]);
        assert_eq!(ms3, vec![component]);
        assert!(o.most_specific(&[]).is_empty());
    }

    #[test]
    fn multiple_inheritance_is_supported() {
        let mut o = Ontology::new();
        let a = o.add_class("http://e.org/c#A", "A");
        let b = o.add_class("http://e.org/c#B", "B");
        let c = o.add_class("http://e.org/c#C", "C");
        o.add_subclass_axiom(c, a).unwrap();
        o.add_subclass_axiom(c, b).unwrap();
        assert!(o.is_subclass_of(c, a));
        assert!(o.is_subclass_of(c, b));
        assert_eq!(o.parents(c).len(), 2);
        assert_eq!(o.depth(c), 1);
    }

    proptest! {
        /// Random forests: every declared edge must be reflected by
        /// `is_subclass_of`, descendants/ancestors must be consistent, and
        /// leaves+internal nodes must partition the class set.
        #[test]
        fn prop_random_tree_consistency(parents in proptest::collection::vec(0usize..20, 1..40)) {
            let mut o = Ontology::new();
            let ids: Vec<ClassId> = (0..parents.len() + 1)
                .map(|i| o.add_class(format!("http://e.org/c#C{i}"), format!("C{i}")))
                .collect();
            // Node i+1 gets parent parents[i] % (i+1) — always an earlier node, so acyclic.
            for (i, p) in parents.iter().enumerate() {
                let child = ids[i + 1];
                let parent = ids[p % (i + 1)];
                o.add_subclass_axiom(child, parent).unwrap();
            }
            for (i, p) in parents.iter().enumerate() {
                let child = ids[i + 1];
                let parent = ids[p % (i + 1)];
                prop_assert!(o.is_subclass_of(child, parent));
                prop_assert!(o.descendants(parent).contains(&child));
                prop_assert!(o.ancestors(child).contains(&parent));
            }
            let leaves = o.leaves();
            let internal: Vec<ClassId> = o.class_ids().filter(|c| !o.is_leaf(*c)).collect();
            prop_assert_eq!(leaves.len() + internal.len(), o.class_count());
            // Root (node 0) subsumes every node in this construction.
            for id in o.class_ids() {
                prop_assert!(o.is_subclass_of(id, ids[0]));
            }
        }

        /// most_specific never returns a class subsumed by another member of
        /// the result, and always returns a subset of the input.
        #[test]
        fn prop_most_specific_is_antichain(raw in proptest::collection::vec(0u32..12, 1..10)) {
            let mut o = Ontology::new();
            let ids: Vec<ClassId> = (0..12)
                .map(|i| o.add_class(format!("http://e.org/c#C{i}"), format!("C{i}")))
                .collect();
            // Chain: C1 ⊑ C0, C2 ⊑ C1, ...
            for w in ids.windows(2) {
                o.add_subclass_axiom(w[1], w[0]).unwrap();
            }
            let input: Vec<ClassId> = raw.iter().map(|i| ids[*i as usize]).collect();
            let ms = o.most_specific(&input);
            for c in &ms {
                prop_assert!(input.contains(c));
                for other in &ms {
                    if c != other {
                        prop_assert!(!o.is_subclass_of(*other, *c));
                    }
                }
            }
            // In a chain the most specific set is exactly the deepest input class.
            let deepest = input.iter().max_by_key(|c| o.depth(**c)).copied().unwrap();
            prop_assert_eq!(ms, vec![deepest]);
        }
    }
}
