//! Training sets of linked data.
//!
//! The input of the learning algorithm is `TS`, "the set of same-as links
//! between external and local data items that are validated by a domain
//! expert", stored with provenance. For learning, each link contributes:
//!
//! * the data-property facts of the **external** item (the paper's `TSE`,
//!   "set of property facts of SE that belong to TS") — these provide the
//!   `p(X, Y)` premises, and
//! * the classes of the **local** item in the ontology `OL` — these provide
//!   the `c(X)` conclusions.

use crate::error::{CoreError, Result};
use classilink_ontology::{ClassId, InstanceStore, Ontology};
use classilink_rdf::{Dataset, Graph, Source, Term};
use serde::{Deserialize, Serialize};

/// One validated `same-as` link, with the features the learner needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingExample {
    /// The external data item (subject of the `owl:sameAs` link).
    pub external_item: Term,
    /// The local data item it was reconciled with.
    pub local_item: Term,
    /// Data-property facts of the external item: `(property IRI, value)`.
    pub facts: Vec<(String, String)>,
    /// Classes of the local item (most specific ones when extracted with the
    /// default configuration).
    pub classes: Vec<ClassId>,
}

impl TrainingExample {
    /// Create an example directly (used by generators and tests).
    pub fn new(
        external_item: Term,
        local_item: Term,
        facts: Vec<(String, String)>,
        classes: Vec<ClassId>,
    ) -> Self {
        TrainingExample {
            external_item,
            local_item,
            facts,
            classes,
        }
    }
}

/// The training set `TS`: a list of validated linked pairs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingSet {
    examples: Vec<TrainingExample>,
}

impl TrainingSet {
    /// An empty training set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a training set from a list of examples.
    pub fn from_examples(examples: Vec<TrainingExample>) -> Self {
        TrainingSet { examples }
    }

    /// Add one example.
    pub fn push(&mut self, example: TrainingExample) {
        self.examples.push(example);
    }

    /// `|TS|`: the number of linked pairs.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// `true` when the training set holds no links.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// The examples in insertion order.
    pub fn examples(&self) -> &[TrainingExample] {
        &self.examples
    }

    /// Extract a training set from a provenance-aware [`Dataset`]:
    ///
    /// * every `owl:sameAs` link `(external, local)` becomes one example,
    /// * the example's facts are the literal-valued triples of the external
    ///   item in the external graph,
    /// * the example's classes are the local item's `rdf:type` assertions in
    ///   the local graph, reduced to the most specific ones when
    ///   `most_specific` is set.
    ///
    /// Links whose local item has no known class are kept (they still count
    /// in `|TS|`, exactly as in the paper where every reconciliation
    /// contributes to the denominator of support).
    pub fn from_dataset(
        dataset: &Dataset,
        ontology: &Ontology,
        most_specific: bool,
    ) -> Result<Self> {
        if dataset.link_count() == 0 {
            return Err(CoreError::EmptyTrainingSet);
        }
        let (instances, _unknown) = InstanceStore::from_graph(dataset.local(), ontology);
        let mut examples = Vec::with_capacity(dataset.link_count());
        for (external_item, local_item) in dataset.link_pairs() {
            let facts = literal_facts(dataset.graph(Source::External), &external_item);
            let classes = if most_specific {
                instances.most_specific_types(&local_item, ontology)
            } else {
                instances.types_of(&local_item)
            };
            examples.push(TrainingExample::new(
                external_item,
                local_item,
                facts,
                classes,
            ));
        }
        Ok(TrainingSet::from_examples(examples))
    }
}

/// The literal-valued facts of one item in a graph, as `(property IRI, value)`.
pub fn literal_facts(graph: &Graph, item: &Term) -> Vec<(String, String)> {
    graph
        .triples_matching(Some(item), None, None)
        .filter_map(|t| {
            let (property, value) = t.literal_fact()?;
            Some((property.to_string(), value.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use classilink_ontology::OntologyBuilder;
    use classilink_rdf::namespace::vocab;
    use classilink_rdf::Triple;

    fn ontology() -> (Ontology, ClassId, ClassId, ClassId) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let component = b.class("Component", None);
        let resistor = b.class("Resistor", Some(component));
        let capacitor = b.class("Capacitor", Some(component));
        (b.build(), component, resistor, capacitor)
    }

    /// How many examples have `class` among their classes.
    fn examples_of(ts: &TrainingSet, class: ClassId) -> usize {
        ts.examples()
            .iter()
            .filter(|e| e.classes.contains(&class))
            .count()
    }

    fn dataset(ontology: &Ontology) -> Dataset {
        let _ = ontology;
        let mut ds = Dataset::new();
        // Local catalog items with types and part numbers.
        for (n, class) in [(1, "Resistor"), (2, "Resistor"), (3, "Capacitor")] {
            let item = format!("http://local.e.org/prod/{n}");
            ds.insert(
                Source::Local,
                Triple::iris(&item, vocab::RDF_TYPE, format!("http://e.org/c#{class}")),
            );
            ds.insert(
                Source::Local,
                Triple::iris(&item, vocab::RDF_TYPE, "http://e.org/c#Component"),
            );
            ds.insert(
                Source::Local,
                Triple::literal(&item, "http://local.e.org/v#pn", format!("LOCAL-{n}")),
            );
        }
        // External provider items with their own vocabulary.
        for (n, pn) in [
            (1, "CRCW0805-10K-ohm"),
            (2, "CRCW0805-22K-ohm"),
            (3, "T83-A225"),
        ] {
            let item = format!("http://provider.e.org/item/{n}");
            ds.insert(
                Source::External,
                Triple::literal(&item, "http://provider.e.org/v#ref", pn),
            );
            ds.insert(
                Source::External,
                Triple::literal(&item, "http://provider.e.org/v#maker", "ACME"),
            );
            // An IRI-valued triple that must be ignored by literal_facts.
            ds.insert(
                Source::External,
                Triple::iris(&item, "http://provider.e.org/v#seeAlso", "http://x.org/a"),
            );
        }
        for n in 1..=3 {
            ds.link(
                &Term::iri(format!("http://provider.e.org/item/{n}")),
                &Term::iri(format!("http://local.e.org/prod/{n}")),
            );
        }
        ds
    }

    #[test]
    fn from_dataset_extracts_facts_and_classes() {
        let (onto, component, resistor, capacitor) = ontology();
        let ds = dataset(&onto);
        let ts = TrainingSet::from_dataset(&ds, &onto, true).unwrap();
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        // Two literal facts each; the IRI-valued `seeAlso` is not a fact.
        assert!(ts.examples().iter().all(|e| e.facts.len() == 2));
        // Most specific classes only (Component is dropped).
        assert_eq!(examples_of(&ts, resistor), 2);
        assert_eq!(examples_of(&ts, capacitor), 1);
        assert_eq!(examples_of(&ts, component), 0);
    }

    #[test]
    fn from_dataset_without_most_specific_keeps_all_types() {
        let (onto, component, ..) = ontology();
        let ds = dataset(&onto);
        let ts = TrainingSet::from_dataset(&ds, &onto, false).unwrap();
        assert_eq!(examples_of(&ts, component), 3);
    }

    #[test]
    fn from_dataset_with_no_links_is_an_error() {
        let (onto, ..) = ontology();
        let ds = Dataset::new();
        assert!(matches!(
            TrainingSet::from_dataset(&ds, &onto, true),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn examples_carry_the_linked_pair_its_facts_and_classes() {
        let (onto, _, resistor, _) = ontology();
        let ds = dataset(&onto);
        let ts = TrainingSet::from_dataset(&ds, &onto, true).unwrap();
        let ex = ts
            .examples()
            .iter()
            .find(|e| e.external_item == Term::iri("http://provider.e.org/item/1"))
            .unwrap();
        assert_eq!(ex.local_item, Term::iri("http://local.e.org/prod/1"));
        let mut facts = ex.facts.clone();
        facts.sort();
        let fact = |p: &str, v: &str| (format!("http://provider.e.org/v#{p}"), v.to_string());
        assert_eq!(
            facts,
            vec![fact("maker", "ACME"), fact("ref", "CRCW0805-10K-ohm")]
        );
        assert_eq!(ex.classes, vec![resistor]);
    }

    #[test]
    fn links_to_untyped_local_items_are_kept() {
        let (onto, ..) = ontology();
        let mut ds = dataset(&onto);
        ds.insert(
            Source::External,
            Triple::literal(
                "http://provider.e.org/item/9",
                "http://provider.e.org/v#ref",
                "X",
            ),
        );
        ds.link(
            &Term::iri("http://provider.e.org/item/9"),
            &Term::iri("http://local.e.org/prod/9"),
        );
        let ts = TrainingSet::from_dataset(&ds, &onto, true).unwrap();
        assert_eq!(ts.len(), 4);
        let ex = ts
            .examples()
            .iter()
            .find(|e| e.external_item == Term::iri("http://provider.e.org/item/9"))
            .unwrap();
        assert!(ex.classes.is_empty());
    }

    #[test]
    fn manual_construction() {
        let mut ts = TrainingSet::new();
        assert!(ts.is_empty());
        ts.push(TrainingExample::new(
            Term::iri("http://p.e.org/1"),
            Term::iri("http://l.e.org/1"),
            vec![("http://p.e.org/v#pn".to_string(), "ohm-10".to_string())],
            vec![ClassId(0)],
        ));
        assert_eq!(ts.len(), 1);
        assert_eq!(examples_of(&ts, ClassId(0)), 1);
    }
}
