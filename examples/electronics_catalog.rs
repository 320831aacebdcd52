//! The paper's evaluation, end to end: generate a Thales-scale synthetic
//! electronic-products catalog, learn classification rules with `th = 0.002`,
//! and regenerate Table 1 plus the dataset statistics the paper reports, the
//! linking-space reduction sweep (E3/E4) and the segmenter / support
//! ablations (A1 / A2).
//!
//! Run with (the paper-scale run takes a little while in debug mode):
//!
//! ```bash
//! cargo run --release --example electronics_catalog            # paper scale
//! cargo run --release --example electronics_catalog -- small   # quicker run
//! ```

use classilink::core::{LearnerConfig, PropertySelection, RuleClassifier};
use classilink::datagen::scenario::{generate, ScenarioConfig};
use classilink::datagen::vocab;
use classilink::eval::sweeps::{reduction_table, segmenter_table, support_table};
use classilink::eval::table1::{EvaluationItem, Table1Experiment};
use classilink::eval::{reduction_sweep, segmenter_ablation, support_sweep};
use classilink::ontology::OntologyStats;
use classilink::segment::SegmenterKind;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "paper".to_string());
    let config = match scale.as_str() {
        "small" => ScenarioConfig::small(),
        "tiny" => ScenarioConfig::tiny(),
        _ => ScenarioConfig::paper(),
    };

    println!("Generating the synthetic catalog ({scale} scale)…");
    let scenario = generate(&config);
    let onto_stats = OntologyStats::compute(&scenario.ontology);
    println!(
        "  ontology: {} classes, {} leaves (paper: 566 classes, 226 leaves)",
        onto_stats.class_count, onto_stats.leaf_count
    );
    println!(
        "  catalog |SL| = {} products, training set |TS| = {} expert links",
        scenario.catalog_size(),
        scenario.training.len()
    );
    println!(
        "  naive linking space |SE|×|SL| = {} pairs\n",
        scenario.gold_classes.len() * scenario.catalog_size()
    );

    // The expert's choices, as in the paper: the part-number property only,
    // separator segmentation, th = 0.002.
    let learner = LearnerConfig::paper()
        .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER));

    println!(
        "Learning classification rules (th = {})…",
        learner.support_threshold
    );
    let experiment = Table1Experiment::with_learner(learner.clone());
    let (outcome, report) = experiment
        .run_on_training(&scenario.training, &scenario.ontology)
        .expect("learning succeeds");

    println!(
        "  distinct segments:            {} (paper: 7842)",
        report.distinct_segments
    );
    println!(
        "  segment occurrences:          {} (paper: 26077)",
        report.segment_occurrences
    );
    println!(
        "  selected segment occurrences: {} (paper: 7058)",
        report.selected_segment_occurrences
    );
    println!(
        "  frequent classes:             {} (paper: 68)",
        report.frequent_classes
    );
    println!(
        "  classification rules:         {} (paper: 144)",
        report.total_rules
    );
    println!(
        "  classes with rules:           {} (paper: 16 leaf classes)\n",
        report.classes_with_rules
    );

    println!("{}", report.to_table().to_ascii());

    // A few of the most confident rules, to show they are "concise and easy
    // to understand by an expert".
    println!("Examples of learnt rules (highest confidence first):");
    for rule in outcome.rules.iter().take(8) {
        println!("  {rule}");
    }

    // E3/E4: how many catalog products an external item is still compared
    // with once it has been classified, per rule-confidence threshold.
    let (external, local) = scenario.sharded_stores(1);
    let training_items = scenario.training_records();
    let reduction = reduction_sweep(
        &RuleClassifier::from_outcome(&outcome, &learner),
        &scenario.instances,
        &scenario.ontology,
        &external,
        &local,
        &training_items,
        &[1.0, 0.8, 0.6, 0.4, 0.2],
    );
    println!(
        "\n{}(paper: mean factor ≥ 5 even for a class holding 20% of the catalog, lift > 20 at every tier)",
        reduction_table(&reduction).to_ascii()
    );

    // A1 / A2: the expert's other two choices, the `split` function and `th`.
    let items: Vec<EvaluationItem> = scenario
        .training
        .examples()
        .iter()
        .map(|e| (e.classes.first().copied(), e.facts.clone()))
        .collect();
    let segmenters = [
        SegmenterKind::Separator,
        SegmenterKind::AlphaNumTransition,
        SegmenterKind::CharNGram(3),
        SegmenterKind::PaddedBigram,
    ];
    let a1 = segmenter_ablation(
        &scenario.training,
        &scenario.ontology,
        &items,
        &learner,
        &segmenters,
    )
    .expect("learning succeeds");
    println!("\n{}", segmenter_table(&a1).to_ascii());
    let a2 = support_sweep(
        &scenario.training,
        &scenario.ontology,
        &items,
        &learner,
        &[0.0005, 0.001, 0.002, 0.005, 0.01, 0.02],
    )
    .expect("learning succeeds");
    print!("{}", support_table(&a2).to_ascii());
}
