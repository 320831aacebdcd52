//! The paper's future-work extension: generalise rules through the class
//! hierarchy ("infer more general rules by exploiting the semantics of the
//! subsumption between classes of the ontology").
//!
//! A segment such as `uF` is not discriminative for any single capacitor
//! subclass, but it is perfectly discriminative for the `Capacitor`
//! superclass. Generalised rules trade a somewhat larger linking subspace for
//! higher confidence and recall.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example rule_generalization
//! ```

use classilink::core::{
    generalize, GeneralizeConfig, LearnerConfig, PropertySelection, RuleLearner,
};
use classilink::datagen::scenario::{generate, ScenarioConfig};
use classilink::datagen::vocab;
use classilink::eval::sweeps::generalization_ablation;
use classilink::eval::table1::EvaluationItem;

fn main() {
    let scenario = generate(&ScenarioConfig::small());
    let config = LearnerConfig::default()
        .with_support_threshold(0.002)
        .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER));

    // Base rules (leaf-level conclusions, as in the paper's evaluation).
    let base = RuleLearner::new(config.clone())
        .learn(&scenario.training, &scenario.ontology)
        .expect("learning succeeds");
    println!(
        "Base outcome: {} rules over {} leaf classes",
        base.rules.len(),
        base.stats.classes_with_rules
    );

    // Generalised rules: conclusions lifted to superclasses when that
    // improves confidence.
    let gen = generalize(
        &scenario.training,
        &scenario.ontology,
        &config,
        &base,
        &GeneralizeConfig,
    )
    .expect("generalisation succeeds");
    println!(
        "Generalisation added {} rules on non-leaf classes ({} premises improved).\n",
        gen.generalized_rules.len(),
        gen.improved_premises
    );
    println!("Examples of generalised rules:");
    for rule in gen.generalized_rules.iter().take(8) {
        println!("  {rule}");
    }

    // Quantify the effect on coverage (ablation A3 of the experiment index
    // in the `classilink-eval` crate docs).
    let items: Vec<EvaluationItem> = scenario
        .training
        .examples()
        .iter()
        .map(|e| (e.classes.first().copied(), e.facts.clone()))
        .collect();
    let point = generalization_ablation(&scenario.training, &scenario.ontology, &items, &config)
        .expect("ablation runs");

    let (base_dec, base_prec, base_rec) = point.base;
    let (gen_dec, gen_prec, gen_rec) = point.generalized;
    println!("\nEffect on the training items ({} items):", items.len());
    println!(
        "  leaf rules only:        {base_dec} decisions, precision {:.1}%, recall {:.1}%",
        base_prec * 100.0,
        base_rec * 100.0
    );
    println!(
        "  with generalised rules: {gen_dec} decisions, precision {:.1}%, recall {:.1}% (ancestor predictions count as correct)",
        gen_prec * 100.0,
        gen_rec * 100.0
    );
}
