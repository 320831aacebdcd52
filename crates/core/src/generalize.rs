//! Subsumption-based rule generalisation — the paper's future-work extension.
//!
//! > "As future work, we plan to study how the learnt classification rules
//! > can be used to infer more general rules by exploiting the semantics of
//! > the subsumption between classes of the ontology."
//!
//! The idea implemented here: a segment may not be discriminative for any
//! single leaf class (e.g. `"uF"` appears in tantalum, ceramic *and*
//! electrolytic capacitors) yet be perfectly discriminative for their common
//! superclass (`Capacitor`). We therefore re-learn rules on a training set
//! whose class assertions are closed under subsumption and keep the rules
//! that conclude on a **more general** class with **strictly better
//! confidence** than every base rule sharing the same premise. Such rules
//! trade a larger linking subspace for higher confidence/recall, which is the
//! trade-off the extension is meant to offer.

use crate::config::LearnerConfig;
use crate::error::Result;
use crate::learner::{LearnOutcome, RuleLearner};
use crate::rule::ClassificationRule;
use crate::training::{TrainingExample, TrainingSet};
use classilink_ontology::Ontology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Configuration of the generalisation step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneralizeConfig {
    /// Minimum confidence a generalised rule must reach to be kept.
    pub min_confidence: f64,
    /// Required confidence improvement over the best base rule with the same
    /// premise (0.0 keeps any generalised rule at least as good).
    pub min_improvement: f64,
    /// Do not generalise above this depth (0 = the ontology roots are
    /// allowed; a root-level rule rarely reduces the linking space at all).
    pub min_class_depth: usize,
}

impl Default for GeneralizeConfig {
    fn default() -> Self {
        GeneralizeConfig {
            min_confidence: 0.8,
            min_improvement: 0.0,
            min_class_depth: 1,
        }
    }
}

/// The result of a generalisation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GeneralizeOutcome {
    /// The generalised rules (concluding on non-leaf classes), ranked.
    pub generalized_rules: Vec<ClassificationRule>,
    /// Number of premises `(property, segment)` that gained a better rule.
    pub improved_premises: usize,
}

/// Close every example's class set under subsumption (add all ancestors).
pub fn generalize_training_set(training: &TrainingSet, ontology: &Ontology) -> TrainingSet {
    let examples = training
        .examples()
        .iter()
        .map(|e| {
            let mut classes: BTreeSet<_> = e.classes.iter().copied().collect();
            for c in &e.classes {
                classes.extend(ontology.ancestors(*c));
            }
            TrainingExample::new(
                e.external_item.clone(),
                e.local_item.clone(),
                e.facts.clone(),
                classes.into_iter().collect(),
            )
        })
        .collect();
    TrainingSet::from_examples(examples)
}

/// Learn generalised rules from `training` and keep those that improve on the
/// base outcome.
pub fn generalize(
    training: &TrainingSet,
    ontology: &Ontology,
    learner_config: &LearnerConfig,
    base: &LearnOutcome,
    config: &GeneralizeConfig,
) -> Result<GeneralizeOutcome> {
    let closed = generalize_training_set(training, ontology);
    // The learner takes each example's class set as given, so the closure
    // under subsumption survives into the counts.
    let lifted = RuleLearner::new(learner_config.clone()).learn(&closed, ontology)?;

    // Best base confidence per premise.
    let mut best_base: HashMap<(&str, &str), f64> = HashMap::new();
    for r in &base.rules {
        let key = (r.property.as_str(), r.segment.as_str());
        let entry = best_base.entry(key).or_insert(0.0);
        if r.confidence() > *entry {
            *entry = r.confidence();
        }
    }

    let base_conclusions: BTreeSet<(&str, &str, classilink_ontology::ClassId)> = base
        .rules
        .iter()
        .map(|r| (r.property.as_str(), r.segment.as_str(), r.class))
        .collect();

    let mut improved: BTreeSet<(String, String)> = BTreeSet::new();
    let mut generalized: Vec<ClassificationRule> = Vec::new();
    for r in &lifted.rules {
        // Only non-leaf classes are "generalisations".
        if ontology.is_leaf(r.class) {
            continue;
        }
        if ontology.depth(r.class) < config.min_class_depth {
            continue;
        }
        // Skip conclusions the base rules already make.
        if base_conclusions.contains(&(r.property.as_str(), r.segment.as_str(), r.class)) {
            continue;
        }
        if r.confidence() < config.min_confidence {
            continue;
        }
        let base_conf = best_base
            .get(&(r.property.as_str(), r.segment.as_str()))
            .copied()
            .unwrap_or(0.0);
        // The generalised rule must reach at least the best base confidence
        // for the same premise, plus the required improvement margin.
        if r.confidence() + 1e-12 < base_conf + config.min_improvement {
            continue;
        }
        improved.insert((r.property.clone(), r.segment.clone()));
        generalized.push(r.clone());
    }
    generalized.sort_by(|a, b| a.ranking_cmp(b));
    Ok(GeneralizeOutcome {
        generalized_rules: generalized,
        improved_premises: improved.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PropertySelection;
    use classilink_ontology::{ClassId, OntologyBuilder};
    use classilink_rdf::Term;

    const PN: &str = "http://provider.e.org/v#partNumber";

    /// Component ── Capacitor ─┬─ TantalumCapacitor
    ///                          └─ CeramicCapacitor
    ///            └─ Resistor  ── FixedFilmResistor
    fn ontology() -> (Ontology, [ClassId; 6]) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let component = b.class("Component", None);
        let capacitor = b.class("Capacitor", Some(component));
        let tantalum = b.class("TantalumCapacitor", Some(capacitor));
        let ceramic = b.class("CeramicCapacitor", Some(capacitor));
        let resistor = b.class("Resistor", Some(component));
        let fixed = b.class("FixedFilmResistor", Some(resistor));
        (
            b.build(),
            [component, capacitor, tantalum, ceramic, resistor, fixed],
        )
    }

    fn example(n: usize, pn: &str, class: ClassId) -> TrainingExample {
        TrainingExample::new(
            Term::iri(format!("http://p.e.org/{n}")),
            Term::iri(format!("http://l.e.org/{n}")),
            vec![(PN.to_string(), pn.to_string())],
            vec![class],
        )
    }

    /// "uF" appears in both capacitor subclasses (50/50), "ohm" only in
    /// resistors, "t83" only in tantalums.
    fn training(tantalum: ClassId, ceramic: ClassId, fixed: ClassId) -> TrainingSet {
        let mut ts = TrainingSet::new();
        for i in 0..10 {
            ts.push(example(i, &format!("T83-A{i}-22-uF"), tantalum));
        }
        for i in 10..20 {
            ts.push(example(i, &format!("C0G-B{i}-10-uF"), ceramic));
        }
        for i in 20..30 {
            ts.push(example(i, &format!("CRCW-R{i}-10K-ohm"), fixed));
        }
        ts
    }

    fn learner_config() -> LearnerConfig {
        LearnerConfig::default()
            .with_support_threshold(0.05)
            .with_properties(PropertySelection::single(PN))
    }

    #[test]
    fn closure_adds_ancestors() {
        let (onto, [component, capacitor, tantalum, ..]) = ontology();
        let ts = TrainingSet::from_examples(vec![example(0, "T83", tantalum)]);
        let closed = generalize_training_set(&ts, &onto);
        let classes = &closed.examples()[0].classes;
        assert!(classes.contains(&tantalum));
        assert!(classes.contains(&capacitor));
        assert!(classes.contains(&component));
        assert_eq!(closed.len(), 1);
    }

    #[test]
    fn uf_segment_generalizes_to_capacitor() {
        let (onto, [_, capacitor, tantalum, ceramic, _, fixed]) = ontology();
        let ts = training(tantalum, ceramic, fixed);
        let cfg = learner_config();
        let base = RuleLearner::new(cfg.clone()).learn(&ts, &onto).unwrap();

        // In the base outcome, "uf" rules have confidence 0.5 at best.
        let best_uf = base
            .rules
            .iter()
            .filter(|r| r.segment == "uf")
            .map(|r| r.confidence())
            .fold(0.0, f64::max);
        assert!((best_uf - 0.5).abs() < 1e-12);

        let out = generalize(&ts, &onto, &cfg, &base, &GeneralizeConfig::default()).unwrap();
        let uf_general = out
            .generalized_rules
            .iter()
            .find(|r| r.segment == "uf" && r.class == capacitor)
            .expect("a generalized Capacitor rule for 'uf'");
        assert_eq!(uf_general.confidence(), 1.0);
        assert!(out.improved_premises >= 1);
    }

    #[test]
    fn already_perfect_rules_do_not_generalize_to_roots() {
        let (onto, [_, _, tantalum, ceramic, _, fixed]) = ontology();
        let ts = training(tantalum, ceramic, fixed);
        let cfg = learner_config();
        let base = RuleLearner::new(cfg.clone()).learn(&ts, &onto).unwrap();
        let out = generalize(&ts, &onto, &cfg, &base, &GeneralizeConfig::default()).unwrap();
        // No generalized rule may conclude on the root Component class
        // (depth 0 < min_class_depth 1).
        assert!(out
            .generalized_rules
            .iter()
            .all(|r| onto.depth(r.class) >= 1));
        // And none of them concludes on a leaf.
        assert!(out.generalized_rules.iter().all(|r| !onto.is_leaf(r.class)));
    }

    #[test]
    fn min_confidence_filters_generalized_rules() {
        let (onto, [_, _, tantalum, ceramic, _, fixed]) = ontology();
        let ts = training(tantalum, ceramic, fixed);
        let cfg = learner_config();
        let base = RuleLearner::new(cfg.clone()).learn(&ts, &onto).unwrap();
        let strict = GeneralizeConfig {
            min_confidence: 1.01, // impossible
            ..GeneralizeConfig::default()
        };
        let out = generalize(&ts, &onto, &cfg, &base, &strict).unwrap();
        assert!(out.generalized_rules.is_empty());
        assert_eq!(out.improved_premises, 0);
    }

    #[test]
    fn generalized_rules_never_lose_confidence_vs_base() {
        let (onto, [_, _, tantalum, ceramic, _, fixed]) = ontology();
        let ts = training(tantalum, ceramic, fixed);
        let cfg = learner_config();
        let base = RuleLearner::new(cfg.clone()).learn(&ts, &onto).unwrap();
        let out = generalize(&ts, &onto, &cfg, &base, &GeneralizeConfig::default()).unwrap();
        let mut best_base: HashMap<(&str, &str), f64> = HashMap::new();
        for r in &base.rules {
            let e = best_base
                .entry((r.property.as_str(), r.segment.as_str()))
                .or_insert(0.0);
            *e = e.max(r.confidence());
        }
        for r in &out.generalized_rules {
            let base_conf = best_base
                .get(&(r.property.as_str(), r.segment.as_str()))
                .copied()
                .unwrap_or(0.0);
            assert!(r.confidence() + 1e-12 >= base_conf);
        }
    }
}
