//! Subsumption-based rule generalisation — the paper's future-work extension.
//!
//! > "As future work, we plan to study how the learnt classification rules
//! > can be used to infer more general rules by exploiting the semantics of
//! > the subsumption between classes of the ontology."
//!
//! The idea implemented here: a segment may not be discriminative for any
//! single leaf class (e.g. `"uF"` appears in tantalum, ceramic *and*
//! electrolytic capacitors) yet be perfectly discriminative for their common
//! superclass (`Capacitor`). The learner's counting table is closed under
//! subsumption — each observed class's row is OR-ed into every ancestor's
//! row — and steps 2–5 of Algorithm 1 read it again. We keep the rules that
//! conclude on a **more general** class with **at least the confidence** of
//! every base rule sharing the same premise. Such rules trade a larger
//! linking subspace for higher confidence/recall, which is the trade-off the
//! extension is meant to offer.

use crate::config::LearnerConfig;
use crate::error::Result;
use crate::learner::{CountTable, LearnOutcome};
use crate::rule::ClassificationRule;
use crate::training::TrainingSet;
use classilink_ontology::{ClassId, Ontology};
use std::collections::{BTreeSet, HashMap};

/// Minimum confidence a generalised rule must reach to be kept.
const MIN_CONFIDENCE: f64 = 0.8;
/// Required confidence improvement over the best base rule with the same
/// premise (0.0 keeps any generalised rule at least as good).
const MIN_IMPROVEMENT: f64 = 0.0;
/// Do not generalise above this depth (0 would allow the ontology roots; a
/// root-level rule rarely reduces the linking space at all).
const MIN_CLASS_DEPTH: usize = 1;

/// Configuration of the generalisation step. It has no settings: the
/// thresholds are fixed (0.8 minimum confidence, no required improvement,
/// no class above depth 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneralizeConfig;

/// The result of a generalisation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GeneralizeOutcome {
    /// The generalised rules (concluding on non-leaf classes), ranked.
    pub generalized_rules: Vec<ClassificationRule>,
    /// Number of premises `(property, segment)` that gained a better rule.
    pub improved_premises: usize,
}

/// Learn rules on the class rows of `training` closed under subsumption and
/// keep those that improve on the base outcome.
pub fn generalize(
    training: &TrainingSet,
    ontology: &Ontology,
    learner_config: &LearnerConfig,
    base: &LearnOutcome,
    _config: &GeneralizeConfig,
) -> Result<GeneralizeOutcome> {
    let mut table = CountTable::build(training, learner_config)?;
    table.close_under_subsumption(ontology);
    let lifted = table.learn(learner_config.support_threshold, ontology);

    // The best confidence and the classes of each premise's base rules.
    let mut base_premises: HashMap<(&str, &str), (f64, Vec<ClassId>)> = HashMap::new();
    for r in &base.rules {
        let (best, classes) = base_premises
            .entry((r.property.as_str(), r.segment.as_str()))
            .or_insert((0.0, Vec::new()));
        *best = best.max(r.confidence());
        classes.push(r.class);
    }
    // The lifted rules come ranked, so the kept ones stay ranked.
    let generalized_rules: Vec<ClassificationRule> = lifted
        .rules
        .into_iter()
        .filter(|r| {
            let (best, classes) = base_premises
                .get(&(r.property.as_str(), r.segment.as_str()))
                .map_or((0.0, &[][..]), |(best, classes)| (*best, &classes[..]));
            // A non-leaf class below the roots that no base rule of the
            // premise concludes on, reaching the minimum confidence and the
            // best base confidence of the premise plus the required margin.
            !ontology.is_leaf(r.class)
                && ontology.depth(r.class) >= MIN_CLASS_DEPTH
                && !classes.contains(&r.class)
                && r.confidence() >= MIN_CONFIDENCE
                && r.confidence() + 1e-12 >= best + MIN_IMPROVEMENT
        })
        .collect();
    let improved: BTreeSet<(&str, &str)> = generalized_rules
        .iter()
        .map(|r| (r.property.as_str(), r.segment.as_str()))
        .collect();
    Ok(GeneralizeOutcome {
        improved_premises: improved.len(),
        generalized_rules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PropertySelection;
    use crate::learner::RuleLearner;
    use crate::training::TrainingExample;
    use classilink_ontology::OntologyBuilder;
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

        let out = generalize(&ts, &onto, &cfg, &base, &GeneralizeConfig).unwrap();
        let uf_general = out
            .generalized_rules
            .iter()
            .find(|r| r.segment == "uf" && r.class == capacitor)
            .expect("a generalized Capacitor rule for 'uf'");
        assert_eq!(uf_general.confidence(), 1.0);
        assert!(out.improved_premises >= 1);
    }

    #[test]
    fn generalized_rules_pass_the_fixed_filters() {
        let (onto, [_, _, tantalum, ceramic, _, fixed]) = ontology();
        let ts = training(tantalum, ceramic, fixed);
        let cfg = learner_config();
        let base = RuleLearner::new(cfg.clone()).learn(&ts, &onto).unwrap();
        let out = generalize(&ts, &onto, &cfg, &base, &GeneralizeConfig).unwrap();
        assert!(!out.generalized_rules.is_empty());
        for r in &out.generalized_rules {
            // Not the root Component class (depth 0 < MIN_CLASS_DEPTH 1),
            // not a leaf, and at least MIN_CONFIDENCE 0.8.
            assert!(onto.depth(r.class) >= 1);
            assert!(!onto.is_leaf(r.class));
            assert!(r.confidence() >= 0.8);
        }
    }

    #[test]
    fn generalized_rules_never_lose_confidence_vs_base() {
        let (onto, [_, _, tantalum, ceramic, _, fixed]) = ontology();
        let ts = training(tantalum, ceramic, fixed);
        let cfg = learner_config();
        let base = RuleLearner::new(cfg.clone()).learn(&ts, &onto).unwrap();
        let out = generalize(&ts, &onto, &cfg, &base, &GeneralizeConfig).unwrap();
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
