//! Algorithm 1 against a naive oracle: the literal reading of the paper.
//!
//! The oracle first creates the `subsegment(v, a)` facts of every considered
//! value (step 1), then counts each frequency it needs by scanning every
//! example: the premise `p(X, Y) ∧ subsegment(Y, a)`, the class `c(X)` and
//! their conjunction. No count is kept in a map, and no step reads another
//! step's counts. For the generalisation extension an example satisfies
//! `c(X)` when one of its classes is subsumed by `c`, and the rules are then
//! filtered as the extension specifies.
//!
//! Each case draws (the offline `proptest` stand-in has no combinators, so
//! the strategy is hand-written, as in `crates/linking/tests/common/`):
//! * 1–60 examples, or in one case of eight 63–65 or 128–129 (the ends of
//!   a 64-bit word), with 0–4 facts over three properties, so a property is
//!   multi-valued, missing or repeated;
//! * values of 0–4 segments from a small vocabulary, in mixed case, so a
//!   segment repeats within a value and across two values of one property;
//!   some values are empty or separators only;
//! * property selections that include and exclude properties, and four
//!   segmenters;
//! * 0–3 classes per example from a six-class hierarchy with one class of
//!   two parents: a class listed twice and a class together with its
//!   ancestor both occur;
//! * support thresholds on `k / n` boundaries (computed two ways, which
//!   round differently) and on hundredths.

use classilink_core::{
    generalize, ClassificationRule, Contingency, GeneralizeConfig, GeneralizeOutcome, LearnOutcome,
    LearnStats, LearnerConfig, PropertySelection, RuleLearner, TrainingExample, TrainingSet,
};
use classilink_ontology::{ClassId, Ontology, OntologyBuilder};
use classilink_rdf::Term;
use classilink_segment::{Normalizer, SegmenterKind};
use proptest::prelude::*;

const PN: &str = "http://p.e.org/v#partNumber";
const MFR: &str = "http://p.e.org/v#manufacturer";
const DESC: &str = "http://p.e.org/v#description";

/// Segment vocabulary, mixed case so normalisation merges some of them.
const WORDS: [&str; 8] = ["cr", "CR", "t8", "ohm", "uF", "10k", "a", "x"];

/// One generated case.
struct Case {
    training: TrainingSet,
    ontology: Ontology,
    config: LearnerConfig,
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let mut draw = Draw(rng);
        // Component ⊃ {Passive ⊃ {Resistor, Capacitor}, Active}, and
        // Thermistor ⊑ Resistor, Active.
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let passive = b.class("Passive", Some(root));
        let resistor = b.class("Resistor", Some(passive));
        let capacitor = b.class("Capacitor", Some(passive));
        let active = b.class("Active", Some(root));
        let thermistor = b.class("Thermistor", Some(resistor));
        let mut ontology = b.build();
        ontology.add_subclass_axiom(thermistor, active).unwrap();
        let classes = [root, passive, resistor, capacitor, active, thermistor];

        let n = match draw.below(8) {
            0 => [63, 64, 65, 128, 129][draw.below(5)],
            _ => 1 + draw.below(60),
        };
        let examples = (0..n)
            .map(|i| {
                let facts = (0..draw.below(5))
                    .map(|_| ([PN, PN, MFR, DESC][draw.below(4)].to_string(), draw.value()))
                    .collect();
                let classes = (0..draw.below(4)).map(|_| classes[draw.below(6)]).collect();
                TrainingExample::new(
                    Term::iri(format!("http://p.e.org/{i}")),
                    Term::iri(format!("http://l.e.org/{i}")),
                    facts,
                    classes,
                )
            })
            .collect();

        // A count of k must not pass, one of k + 1 must.
        let k = 1 + draw.below(n.min(3));
        let threshold = match draw.below(3) {
            0 => k as f64 / n as f64,
            1 => k as f64 * (1.0 / n as f64),
            _ => (1 + draw.below(10)) as f64 / 100.0,
        };
        let properties = match draw.below(4) {
            0 => PropertySelection::All,
            1 => PropertySelection::single(PN),
            2 => PropertySelection::Except(vec![MFR.to_string()]),
            _ => PropertySelection::Only(vec![PN.to_string(), DESC.to_string()]),
        };
        let segmenter = match draw.below(5) {
            0 | 1 => SegmenterKind::Separator,
            2 => SegmenterKind::Whitespace,
            3 => SegmenterKind::AlphaNumTransition,
            _ => SegmenterKind::CharNGram(2),
        };
        Case {
            training: TrainingSet::from_examples(examples),
            ontology,
            config: LearnerConfig::default()
                .with_support_threshold(threshold)
                .with_properties(properties)
                .with_segmenter(segmenter),
        }
    }
}

struct Draw<'r>(&'r mut TestRng);

impl Draw<'_> {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// A property value: empty, separators only, or 0–4 words.
    fn value(&mut self) -> String {
        match self.below(8) {
            0 => String::new(),
            1 => "--".to_string(),
            _ => {
                let separator = ["-", " ", "/"][self.below(3)];
                let words: Vec<&str> = (0..self.below(5))
                    .map(|_| WORDS[self.below(WORDS.len())])
                    .collect();
                words.join(separator)
            }
        }
    }
}

/// Step 1: the `subsegment(v, a)` facts. Per example, the considered
/// property instances `p(i, v)` and the segments of `v`.
fn subsegment_facts(case: &Case) -> Vec<Vec<(String, Vec<String>)>> {
    let segmenter = case.config.segmenter.build();
    case.training
        .examples()
        .iter()
        .map(|e| {
            e.facts
                .iter()
                .filter(|(p, _)| case.config.properties.includes(p))
                .map(|(p, v)| (p.clone(), segmenter.split(&Normalizer.apply(v))))
                .collect()
        })
        .collect()
}

/// `p(X, Y) ∧ subsegment(Y, a)` holds for the example with these facts.
fn premise_holds(facts: &[(String, Vec<String>)], p: &str, a: &str) -> bool {
    facts
        .iter()
        .any(|(q, segments)| q == p && segments.iter().any(|s| s == a))
}

/// `c(X)` holds for the example: one of its classes is `c` or, when the
/// classes are closed under subsumption, is subsumed by `c`.
fn class_holds(case: &Case, example: &TrainingExample, c: ClassId, closed: bool) -> bool {
    example
        .classes
        .iter()
        .any(|d| *d == c || (closed && case.ontology.is_subclass_of(*d, c)))
}

/// Algorithm 1, read literally.
fn oracle_learn(case: &Case, closed: bool) -> LearnOutcome {
    let examples = case.training.examples();
    let n = examples.len() as u64;
    let th = case.config.support_threshold;
    let frequent = |count: u64| count as f64 / n as f64 > th;
    let facts = subsegment_facts(case);

    // Every premise that occurs, once.
    let mut premises: Vec<(String, String)> = Vec::new();
    for (p, segments) in facts.iter().flatten() {
        for a in segments {
            if !premises.iter().any(|(q, b)| q == p && b == a) {
                premises.push((p.clone(), a.clone()));
            }
        }
    }
    let mut properties: Vec<&str> = Vec::new();
    for (p, _) in facts.iter().flatten() {
        if !properties.contains(&p.as_str()) {
            properties.push(p);
        }
    }
    let mut segments: Vec<&str> = premises.iter().map(|(_, a)| a.as_str()).collect();
    segments.sort_unstable();
    segments.dedup();

    // Step 2: frequency of p(X, Y) ∧ subsegment(Y, a).
    let premise_count =
        |p: &str, a: &str| facts.iter().filter(|f| premise_holds(f, p, a)).count() as u64;
    let segment_occurrences = premises.iter().map(|(p, a)| premise_count(p, a)).sum();
    let frequent_premises: Vec<&(String, String)> = premises
        .iter()
        .filter(|(p, a)| frequent(premise_count(p, a)))
        .collect();
    let selected_segment_occurrences = frequent_premises
        .iter()
        .map(|(p, a)| premise_count(p, a))
        .sum();

    // Step 3: frequency of c(X).
    let class_count = |c: ClassId| {
        examples
            .iter()
            .filter(|e| class_holds(case, e, c, closed))
            .count() as u64
    };
    let observed: Vec<ClassId> = case
        .ontology
        .class_ids()
        .filter(|c| class_count(*c) > 0)
        .collect();
    let frequent_classes: Vec<ClassId> = observed
        .iter()
        .copied()
        .filter(|c| frequent(class_count(*c)))
        .collect();

    // Steps 4 and 5: frequency of the conjunction, and the rules.
    let mut rules = Vec::new();
    for (p, a) in &frequent_premises {
        for c in &frequent_classes {
            let both = examples
                .iter()
                .zip(&facts)
                .filter(|(e, f)| premise_holds(f, p, a) && class_holds(case, e, *c, closed))
                .count() as u64;
            if !frequent(both) {
                continue;
            }
            let counts = Contingency::new(n, premise_count(p, a), class_count(*c), both);
            rules.push(ClassificationRule {
                property: p.clone(),
                segment: a.clone(),
                class: *c,
                class_iri: case.ontology.iri(*c).to_string(),
                class_label: case.ontology.label(*c).to_string(),
                quality: counts.quality(),
            });
        }
    }
    rules.sort_by(|a, b| a.ranking_cmp(b));
    let classes_with_rules = frequent_classes
        .iter()
        .filter(|c| rules.iter().any(|r| r.class == **c))
        .count();
    LearnOutcome {
        stats: LearnStats {
            examples: examples.len(),
            properties: properties.len(),
            distinct_segments: segments.len(),
            segment_occurrences,
            selected_segment_occurrences,
            frequent_pairs: frequent_premises.len(),
            frequent_classes: frequent_classes.len(),
            observed_classes: observed.len(),
            rules: rules.len(),
            classes_with_rules,
        },
        rules,
    }
}

/// The generalisation extension, read literally: Algorithm 1 over classes
/// closed under subsumption, keeping a rule when it concludes on a non-leaf
/// class below the roots, is new, reaches confidence 0.8 and is at least as
/// confident as every base rule of its premise.
fn oracle_generalize(case: &Case, base: &LearnOutcome) -> GeneralizeOutcome {
    let onto = &case.ontology;
    let mut generalized_rules: Vec<ClassificationRule> = oracle_learn(case, true)
        .rules
        .into_iter()
        .filter(|r| {
            let same_premise = || {
                base.rules
                    .iter()
                    .filter(|b| b.property == r.property && b.segment == r.segment)
            };
            let best_base = same_premise().map(|b| b.confidence()).fold(0.0, f64::max);
            !onto.is_leaf(r.class)
                && onto.depth(r.class) >= 1
                && !same_premise().any(|b| b.class == r.class)
                && r.confidence() >= 0.8
                && r.confidence() + 1e-12 >= best_base
        })
        .collect();
    generalized_rules.sort_by(|a, b| a.ranking_cmp(b));
    let mut improved: Vec<(&str, &str)> = generalized_rules
        .iter()
        .map(|r| (r.property.as_str(), r.segment.as_str()))
        .collect();
    improved.sort_unstable();
    improved.dedup();
    GeneralizeOutcome {
        improved_premises: improved.len(),
        generalized_rules,
    }
}

proptest! {
    #[test]
    fn learn_and_generalize_equal_the_literal_reading(case in Cases) {
        let learnt = RuleLearner::new(case.config.clone())
            .learn(&case.training, &case.ontology)
            .unwrap();
        prop_assert_eq!(&learnt, &oracle_learn(&case, false));
        let generalized = generalize(
            &case.training,
            &case.ontology,
            &case.config,
            &learnt,
            &GeneralizeConfig,
        )
        .unwrap();
        prop_assert_eq!(generalized, oracle_generalize(&case, &learnt));
    }
}
