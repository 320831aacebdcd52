//! Rule pruning.
//!
//! The learning algorithm can produce many rules per class and redundant
//! rules across the class hierarchy. Pruning keeps the rule set "concise and
//! easy to understand by an expert" (the property the paper highlights in
//! its conclusion) without changing which items can be classified.

use crate::rule::ClassificationRule;
use classilink_ontology::Ontology;
use std::collections::HashMap;

/// When two rules share the same premise `(property, segment)` and conclude
/// on classes related by subsumption, which one should survive?
///
/// One policy is left: the more specific class. The enum and the parameter
/// of [`prune_hierarchy_redundant`] that takes it stay only because the
/// benchmark's call names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HierarchyPreference {
    /// Keep the rule concluding the more specific class (smaller linking
    /// subspace — the choice that maximises linking-space reduction).
    #[default]
    MoreSpecific,
}

/// Remove hierarchy-redundant rules: when two rules share the same
/// `(property, segment)` premise and their concluded classes are related by
/// subsumption, keep only the one concluding the more specific class.
pub fn prune_hierarchy_redundant(
    rules: &[ClassificationRule],
    ontology: &Ontology,
    _preference: HierarchyPreference,
) -> Vec<ClassificationRule> {
    // Group rule indexes by premise.
    let mut by_premise: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    for (i, r) in rules.iter().enumerate() {
        by_premise
            .entry((r.property.as_str(), r.segment.as_str()))
            .or_default()
            .push(i);
    }
    let mut keep = vec![true; rules.len()];
    for indexes in by_premise.values() {
        for (pos, &i) in indexes.iter().enumerate() {
            for &j in &indexes[pos + 1..] {
                if !keep[i] || !keep[j] {
                    continue;
                }
                let (ci, cj) = (rules[i].class, rules[j].class);
                if ci == cj {
                    // Identical conclusions: keep the better ranked.
                    if rules[i].ranking_cmp(&rules[j]).is_le() {
                        keep[j] = false;
                    } else {
                        keep[i] = false;
                    }
                    continue;
                }
                if ontology.is_subclass_of(ci, cj) {
                    keep[j] = false;
                } else if ontology.is_subclass_of(cj, ci) {
                    keep[i] = false;
                }
            }
        }
    }
    let mut out: Vec<ClassificationRule> = rules
        .iter()
        .zip(keep)
        .filter(|&(_r, k)| k)
        .map(|(r, _k)| r.clone())
        .collect();
    out.sort_by(|a, b| a.ranking_cmp(b));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::Contingency;
    use classilink_ontology::{ClassId, OntologyBuilder};

    fn ontology() -> (Ontology, ClassId, ClassId, ClassId) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let component = b.class("Component", None);
        let resistor = b.class("Resistor", Some(component));
        let fixed = b.class("FixedFilmResistor", Some(resistor));
        (b.build(), component, resistor, fixed)
    }

    fn rule(segment: &str, class: ClassId, premise: u64, both: u64) -> ClassificationRule {
        ClassificationRule {
            property: "http://e.org/v#pn".to_string(),
            segment: segment.to_string(),
            class,
            class_iri: format!("http://e.org/c#{}", class.0),
            class_label: format!("{}", class.0),
            quality: Contingency::new(1000, premise, 200, both).quality(),
        }
    }

    #[test]
    fn hierarchy_pruning_prefers_specific_by_default() {
        let (onto, _, resistor, fixed) = ontology();
        let rules = vec![
            rule("crcw", resistor, 100, 90), // more general, higher confidence
            rule("crcw", fixed, 100, 80),    // more specific
        ];
        let specific = prune_hierarchy_redundant(&rules, &onto, HierarchyPreference::MoreSpecific);
        assert_eq!(specific.len(), 1);
        assert_eq!(specific[0].class, fixed);
    }

    #[test]
    fn unrelated_classes_are_not_pruned() {
        let (onto, _, resistor, fixed) = ontology();
        let rules = vec![
            rule("seg", resistor, 100, 90),
            rule("other", fixed, 100, 80), // different premise → untouched
        ];
        let pruned = prune_hierarchy_redundant(&rules, &onto, HierarchyPreference::MoreSpecific);
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn duplicate_conclusions_keep_best_ranked() {
        let (onto, _, resistor, _) = ontology();
        let rules = vec![
            rule("seg", resistor, 100, 70),
            rule("seg", resistor, 50, 50),
        ];
        let pruned = prune_hierarchy_redundant(&rules, &onto, HierarchyPreference::MoreSpecific);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].confidence(), 1.0);
    }

    #[test]
    fn empty_input_is_fine() {
        let (onto, ..) = ontology();
        assert!(prune_hierarchy_redundant(&[], &onto, HierarchyPreference::default()).is_empty());
    }
}
