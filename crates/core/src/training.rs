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

use classilink_ontology::ClassId;
use classilink_rdf::Term;

/// One validated `same-as` link, with the features the learner needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingExample {
    /// The external data item (subject of the `owl:sameAs` link).
    pub external_item: Term,
    /// The local data item it was reconciled with.
    pub local_item: Term,
    /// Data-property facts of the external item: `(property IRI, value)`.
    pub facts: Vec<(String, String)>,
    /// Classes of the local item: its most specific ones, the only classes
    /// the paper counts frequencies for.
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
#[derive(Debug, Clone, Default, PartialEq)]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many examples have `class` among their classes.
    fn examples_of(ts: &TrainingSet, class: ClassId) -> usize {
        ts.examples()
            .iter()
            .filter(|e| e.classes.contains(&class))
            .count()
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
