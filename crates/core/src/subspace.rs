//! Linking subspaces and linking-space reduction.
//!
//! "The application of a classification rule determines a data linking
//! subspace for each instance of SE. For a given new data item i, and a rule
//! Rk : p(i,v) ∧ subsegment(v,'seg') ⇒ c(i), the application of Rk leads to a
//! data linking subspace d_ik composed of the set of pairs (i, j) such that
//! i ∈ SE, j ∈ SL and c(j). The whole data linking space for the data item i
//! is then composed of the union of all the data linking subspaces obtained
//! thanks to the application of all the classification rules involving i."
//!
//! This module materialises those subspaces from the classifier's
//! predictions and the local instance store, and measures how much smaller
//! they are than the naive `|SE| × |SL|` space.

use crate::classifier::{Prediction, RuleClassifier};
use classilink_ontology::{ClassId, InstanceStore, Ontology};
use classilink_rdf::Term;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The linking subspace of one external item: the local candidates it has to
/// be compared with.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkingSubspace {
    /// The external item.
    pub external_item: Term,
    /// The classes predicted for the item, in ranking order.
    pub classes: Vec<ClassId>,
    /// The local items belonging to (the union of) the predicted classes.
    pub candidates: Vec<Term>,
}

impl LinkingSubspace {
    /// Number of candidate pairs for this item.
    pub fn size(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when no rule fired and the item would fall back to the full
    /// catalog.
    pub fn is_unclassified(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Aggregate statistics over the subspaces of a batch of external items.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ReductionStats {
    /// Number of external items considered.
    pub external_items: usize,
    /// Number of items for which at least one rule fired.
    pub classified_items: usize,
    /// Size of the local catalog `|SL|`.
    pub local_items: usize,
    /// Naive linking space: `|SE| × |SL|`.
    pub naive_pairs: u64,
    /// Pairs that remain after classification. Unclassified items contribute
    /// `|SL|` pairs each (they must still be compared to everything).
    pub reduced_pairs: u64,
    /// Pairs that remain counting only the classified items.
    pub reduced_pairs_classified_only: u64,
    /// `1 − reduced/naive`: fraction of comparisons avoided.
    pub reduction_ratio: f64,
    /// Mean factor by which a classified item's candidate list is smaller
    /// than the catalog (the paper argues this is at least the average lift
    /// divided by the confidence).
    pub mean_reduction_factor: f64,
}

/// Builds linking subspaces by combining a classifier with the local
/// instance store.
pub struct SubspaceBuilder<'a> {
    classifier: &'a RuleClassifier,
    instances: &'a InstanceStore,
    ontology: &'a Ontology,
}

impl<'a> SubspaceBuilder<'a> {
    /// Create a builder over the given classifier and local instances.
    pub fn new(
        classifier: &'a RuleClassifier,
        instances: &'a InstanceStore,
        ontology: &'a Ontology,
    ) -> Self {
        SubspaceBuilder {
            classifier,
            instances,
            ontology,
        }
    }

    /// The union of the predicted classes' extents, **borrowed**, in `Term`
    /// order: one prediction is its extent as enumerated, several go through
    /// a set because their extents may overlap.
    fn candidate_refs(&self, predictions: &[Prediction]) -> Vec<&'a Term> {
        match predictions {
            [only] => self.instances.extent_refs(only.class, self.ontology),
            many => many
                .iter()
                .flat_map(|p| self.instances.extent_refs(p.class, self.ontology))
                .collect::<BTreeSet<&Term>>()
                .into_iter()
                .collect(),
        }
    }

    /// The subspace determined by a set of predictions for `item`.
    pub fn subspace_for_predictions(
        &self,
        item: &Term,
        predictions: &[Prediction],
    ) -> LinkingSubspace {
        LinkingSubspace {
            external_item: item.clone(),
            classes: predictions.iter().map(|p| p.class).collect(),
            candidates: self
                .candidate_refs(predictions)
                .into_iter()
                .cloned()
                .collect(),
        }
    }

    /// Classify `facts` and build the corresponding subspace for `item`.
    pub fn subspace(&self, item: &Term, facts: &[(String, String)]) -> LinkingSubspace {
        let predictions = self.classifier.classify_facts(facts);
        self.subspace_for_predictions(item, &predictions)
    }

    /// Compute reduction statistics over a batch of external items given as
    /// `(item, facts)` pairs. `local_size` is `|SL|` (the number of items in
    /// the local catalog).
    pub fn reduction_stats(
        &self,
        batch: &[(Term, Vec<(String, String)>)],
        local_size: usize,
    ) -> ReductionStats {
        let mut classified = 0usize;
        let mut reduced_pairs = 0u64;
        let mut reduced_classified = 0u64;
        let mut factor_sum = 0.0f64;
        for (_, facts) in batch {
            let predictions = self.classifier.classify_facts(facts);
            if predictions.is_empty() {
                reduced_pairs += local_size as u64;
            } else {
                // Only the subspace's size is needed: count the borrowed
                // members, clone none.
                let size = self.candidate_refs(&predictions).len();
                classified += 1;
                reduced_pairs += size as u64;
                reduced_classified += size as u64;
                if size > 0 {
                    factor_sum += local_size as f64 / size as f64;
                } else {
                    // An empty extent removes every comparison for this item.
                    factor_sum += local_size as f64;
                }
            }
        }
        let naive_pairs = batch.len() as u64 * local_size as u64;
        let reduction_ratio = if naive_pairs == 0 {
            0.0
        } else {
            1.0 - reduced_pairs as f64 / naive_pairs as f64
        };
        let mean_reduction_factor = if classified == 0 {
            1.0
        } else {
            factor_sum / classified as f64
        };
        ReductionStats {
            external_items: batch.len(),
            classified_items: classified,
            local_items: local_size,
            naive_pairs,
            reduced_pairs,
            reduced_pairs_classified_only: reduced_classified,
            reduction_ratio,
            mean_reduction_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::Contingency;
    use crate::rule::ClassificationRule;
    use classilink_ontology::OntologyBuilder;
    use classilink_segment::SegmenterKind;

    const PN: &str = "http://provider.e.org/v#partNumber";

    fn setup() -> (Ontology, InstanceStore, ClassId, ClassId) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let resistor = b.class("FixedFilmResistor", Some(root));
        let capacitor = b.class("TantalumCapacitor", Some(root));
        let onto = b.build();
        let mut store = InstanceStore::new();
        // Catalog: 8 resistors, 2 capacitors → |SL| = 10.
        for i in 0..8 {
            store.assert_type(&Term::iri(format!("http://l.e.org/r{i}")), resistor);
        }
        for i in 0..2 {
            store.assert_type(&Term::iri(format!("http://l.e.org/c{i}")), capacitor);
        }
        (onto, store, resistor, capacitor)
    }

    fn rule(segment: &str, class: ClassId, class_name: &str, conf_pct: u64) -> ClassificationRule {
        ClassificationRule {
            property: PN.to_string(),
            segment: segment.to_string(),
            class,
            class_iri: format!("http://e.org/c#{class_name}"),
            class_label: class_name.to_string(),
            quality: Contingency::new(1000, 100, 200, conf_pct).quality(),
        }
    }

    fn facts(pn: &str) -> Vec<(String, String)> {
        vec![(PN.to_string(), pn.to_string())]
    }

    #[test]
    fn subspace_contains_extent_of_predicted_class() {
        let (onto, store, resistor, capacitor) = setup();
        let classifier = RuleClassifier::new(
            vec![
                rule("ohm", resistor, "FixedFilmResistor", 100),
                rule("t83", capacitor, "TantalumCapacitor", 100),
            ],
            SegmenterKind::Separator,
            true,
        );
        let builder = SubspaceBuilder::new(&classifier, &store, &onto);
        let item = Term::iri("http://p.e.org/1");
        let sub = builder.subspace(&item, &facts("10K-ohm"));
        assert_eq!(sub.classes, vec![resistor]);
        assert_eq!(sub.size(), 8);
        assert!(!sub.is_unclassified());

        let sub2 = builder.subspace(&item, &facts("T83-A225"));
        assert_eq!(sub2.size(), 2);

        let none = builder.subspace(&item, &facts("UNKNOWN-99"));
        assert!(none.is_unclassified());
        assert_eq!(none.size(), 0);
    }

    #[test]
    fn subspace_unions_multiple_predictions() {
        let (onto, store, resistor, capacitor) = setup();
        let classifier = RuleClassifier::new(
            vec![
                rule("ohm", resistor, "FixedFilmResistor", 80),
                rule("63v", capacitor, "TantalumCapacitor", 60),
            ],
            SegmenterKind::Separator,
            true,
        );
        let builder = SubspaceBuilder::new(&classifier, &store, &onto);
        let sub = builder.subspace(&Term::iri("http://p.e.org/1"), &facts("ohm-63V"));
        assert_eq!(sub.classes.len(), 2);
        assert_eq!(sub.size(), 10); // union of both extents
    }

    #[test]
    fn ancestor_class_prediction_covers_descendant_instances() {
        let (onto, store, _, _) = setup();
        let root = onto.class("http://e.org/c#Component").unwrap();
        let classifier = RuleClassifier::new(
            vec![rule("part", root, "Component", 90)],
            SegmenterKind::Separator,
            true,
        );
        let builder = SubspaceBuilder::new(&classifier, &store, &onto);
        let sub = builder.subspace(&Term::iri("http://p.e.org/1"), &facts("part-1"));
        assert_eq!(sub.size(), 10);
    }

    #[test]
    fn reduction_stats_account_for_unclassified_items() {
        let (onto, store, resistor, capacitor) = setup();
        let classifier = RuleClassifier::new(
            vec![
                rule("ohm", resistor, "FixedFilmResistor", 100),
                rule("t83", capacitor, "TantalumCapacitor", 100),
            ],
            SegmenterKind::Separator,
            true,
        );
        let builder = SubspaceBuilder::new(&classifier, &store, &onto);
        let batch = vec![
            (Term::iri("http://p.e.org/1"), facts("10K-ohm")), // 8 candidates
            (Term::iri("http://p.e.org/2"), facts("T83-A225")), // 2 candidates
            (Term::iri("http://p.e.org/3"), facts("MYSTERY")), // unclassified → 10
        ];
        let stats = builder.reduction_stats(&batch, 10);
        assert_eq!(stats.external_items, 3);
        assert_eq!(stats.classified_items, 2);
        assert_eq!(stats.naive_pairs, 30);
        assert_eq!(stats.reduced_pairs, 20);
        assert_eq!(stats.reduced_pairs_classified_only, 10);
        assert!((stats.reduction_ratio - (1.0 - 20.0 / 30.0)).abs() < 1e-12);
        // factors: 10/8 and 10/2 → mean 3.125
        assert!((stats.mean_reduction_factor - 3.125).abs() < 1e-12);
    }

    #[test]
    fn reduction_stats_count_overlapping_extents_once() {
        // A class and its superclass predicted together: the 8 resistors
        // are in both extents and must be counted once, exactly as the
        // materialised subspace holds them once.
        let (onto, store, resistor, _) = setup();
        let root = onto.class("http://e.org/c#Component").unwrap();
        let classifier = RuleClassifier::new(
            vec![
                rule("ohm", resistor, "FixedFilmResistor", 100),
                rule("part", root, "Component", 60),
            ],
            SegmenterKind::Separator,
            true,
        );
        let builder = SubspaceBuilder::new(&classifier, &store, &onto);
        let item = Term::iri("http://p.e.org/1");
        let sub = builder.subspace(&item, &facts("part-10K-ohm"));
        assert_eq!(sub.classes.len(), 2);
        assert_eq!(sub.size(), 10);
        assert!(sub.candidates.windows(2).all(|w| w[0] < w[1]));
        let stats = builder.reduction_stats(&[(item, facts("part-10K-ohm"))], 10);
        assert_eq!(stats.reduced_pairs, 10);
        assert_eq!(stats.reduced_pairs_classified_only, 10);
    }

    #[test]
    fn reduction_stats_on_empty_batch() {
        let (onto, store, resistor, _) = setup();
        let classifier = RuleClassifier::new(
            vec![rule("ohm", resistor, "FixedFilmResistor", 100)],
            SegmenterKind::Separator,
            true,
        );
        let builder = SubspaceBuilder::new(&classifier, &store, &onto);
        let stats = builder.reduction_stats(&[], 10);
        assert_eq!(stats.naive_pairs, 0);
        assert_eq!(stats.reduction_ratio, 0.0);
        assert_eq!(stats.mean_reduction_factor, 1.0);
    }
}
