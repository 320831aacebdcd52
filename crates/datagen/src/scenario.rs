//! End-to-end scenario generation: catalog, provider documents, expert links.
//!
//! A [`GeneratedScenario`] bundles everything one of the paper's experiments
//! needs: the local catalog `SL` (record store + ontology + instance store),
//! the external provider items `SE` (different vocabulary, perturbed part
//! numbers), the validated `same-as` links `TS`, and the gold classes of the
//! external items for evaluation. [`generate`] writes each item once,
//! straight into those: its facts into a [`RecordStore`] builder, a catalog
//! item's class into the instance store, a linked provider item's facts and
//! class into its training example.
//!
//! The `paper()` preset reproduces the scale of the paper's evaluation:
//! an ontology of 566 classes (226 leaves), 10 265 expert reconciliations and
//! a catalog an order of magnitude larger, with part numbers whose segments
//! span the whole confidence spectrum of Table 1.

use crate::partnumber::{PartNumberConfig, PartNumberGenerator};
use crate::perturb::PerturbationConfig;
use crate::taxonomy::{generate_taxonomy, LeafProfile, TaxonomyConfig};
use crate::vocab;
use classilink_core::{TrainingExample, TrainingSet};
use classilink_linking::{RecordStore, SchemaInterner, ShardedStore};
use classilink_ontology::{ClassId, InstanceStore, Ontology};
use classilink_rdf::Term;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Manufacturers shared across all classes (the paper notes the manufacturer
/// is *not* discriminative: "almost all manufacturers provide products that
/// belong to distinct classes").
pub const MANUFACTURERS: &[&str] = &[
    "Vishay",
    "Murata",
    "Kemet",
    "TDK",
    "Yageo",
    "Panasonic",
    "AVX",
    "Bourns",
    "Omron",
    "NXP",
    "onsemi",
    "STMicro",
];

/// Configuration of a full scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Shape of the catalog ontology.
    pub taxonomy: TaxonomyConfig,
    /// Number of products in the local catalog (`|SL|`).
    pub catalog_size: usize,
    /// Number of expert-validated links (`|TS|`).
    pub training_links: usize,
    /// Additional external items that are *not* part of the training set
    /// (used as held-out items to classify).
    pub extra_external: usize,
    /// Zipf exponent of the class-popularity distribution (larger = more
    /// skewed; the paper's data is clearly skewed: 68 of 226 leaf classes
    /// hold more than 20 of the 10 265 linked products).
    pub zipf_exponent: f64,
    /// Part-number segment probabilities.
    pub part_numbers: PartNumberConfig,
    /// Provider-side perturbation of part numbers.
    pub perturbation: PerturbationConfig,
    /// RNG seed (every run with the same config is identical).
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper-scale scenario: 566/226 ontology, 10 265 links.
    pub fn paper() -> Self {
        ScenarioConfig {
            taxonomy: TaxonomyConfig::default(),
            catalog_size: 30_000,
            training_links: 10_265,
            extra_external: 0,
            zipf_exponent: 1.0,
            part_numbers: PartNumberConfig::default(),
            perturbation: PerturbationConfig::default(),
            seed: 20_120_326, // the workshop date
        }
    }

    /// A medium scenario for integration tests and quick experiments.
    pub fn small() -> Self {
        ScenarioConfig {
            taxonomy: TaxonomyConfig {
                total_classes: 120,
                leaf_classes: 60,
            },
            catalog_size: 2_000,
            training_links: 800,
            extra_external: 200,
            zipf_exponent: 1.0,
            part_numbers: PartNumberConfig::default(),
            perturbation: PerturbationConfig::default(),
            seed: 7,
        }
    }

    /// A tiny scenario for unit tests.
    pub fn tiny() -> Self {
        ScenarioConfig {
            taxonomy: TaxonomyConfig {
                total_classes: 40,
                leaf_classes: 20,
            },
            catalog_size: 200,
            training_links: 120,
            extra_external: 30,
            zipf_exponent: 1.0,
            part_numbers: PartNumberConfig::default(),
            perturbation: PerturbationConfig::default(),
            seed: 3,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The generated sources: the local catalog `SL` and the provider items
/// `SE`, each a [`RecordStore`] with one record per item in generation
/// order, and the expert links `TS` between them.
#[derive(Debug, Clone)]
pub struct LinkedSources {
    local: RecordStore,
    external: RecordStore,
    links: Vec<(Term, Term)>,
}

impl LinkedSources {
    /// The `(external, local)` item pairs of the expert links, in link
    /// order.
    pub fn link_pairs(&self) -> impl Iterator<Item = (Term, Term)> + '_ {
        self.links.iter().cloned()
    }
}

/// Everything an experiment needs about one generated world.
pub struct GeneratedScenario {
    /// The configuration the scenario was generated from.
    pub config: ScenarioConfig,
    /// The catalog ontology `OL`.
    pub ontology: Ontology,
    /// Per-leaf part-number profiles.
    pub profiles: Vec<LeafProfile>,
    /// The two sources and the `same-as` links between them.
    pub dataset: LinkedSources,
    /// Class assertions of the local catalog.
    pub instances: InstanceStore,
    /// The training set: one example per expert link.
    pub training: TrainingSet,
    /// Gold classes of every external item (training and held-out), for
    /// evaluation.
    pub gold_classes: BTreeMap<Term, ClassId>,
    /// Held-out external items (not in `TS`) as `(item, facts)` pairs.
    pub heldout: Vec<(Term, Vec<(String, String)>)>,
}

impl GeneratedScenario {
    /// Convenience: the number of local catalog items.
    pub fn catalog_size(&self) -> usize {
        self.config.catalog_size
    }

    /// The external provider items `SE` as a [`RecordStore`] (the
    /// representation the blockers and the linkage pipeline run on).
    pub fn external_store(&self) -> RecordStore {
        self.dataset.external.clone()
    }

    /// The local catalog `SL` as a [`RecordStore`].
    pub fn local_store(&self) -> RecordStore {
        self.dataset.local.clone()
    }

    /// Both sides on **one shared schema**: the external
    /// store and every catalog shard agree on `PropertyId`s, so blocking
    /// keys and comparators resolved against the shared schema serve all
    /// of them (and can be reused across scenario batches built on the
    /// same [`SchemaInterner`]).
    pub fn sharded_stores(&self, shard_count: usize) -> (RecordStore, ShardedStore) {
        let schema = SchemaInterner::new();
        let source = &self.dataset.external;
        let mut external = RecordStore::builder_with_schema(schema.clone());
        for record in 0..source.len() {
            external.push_from(source, record);
        }
        let local = ShardedStore::from_store_with_schema(&self.dataset.local, shard_count, schema);
        (external.build(), local)
    }

    /// The record ids of the training items in the external store, in
    /// training-example order.
    pub fn training_records(&self) -> Vec<usize> {
        let external = &self.dataset.external;
        self.training
            .examples()
            .iter()
            .map(|e| {
                external
                    .index_of(&e.external_item)
                    .expect("training item in SE")
            })
            .collect()
    }
}

/// Generate a full scenario from a configuration.
pub fn generate(config: &ScenarioConfig) -> GeneratedScenario {
    let (ontology, profiles) = generate_taxonomy(&config.taxonomy);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let part_gen = PartNumberGenerator::new(config.part_numbers);

    let catalog_size = config
        .catalog_size
        .max(config.training_links + config.extra_external);

    // Precompute the Zipf CDF once (leaf popularity).
    let leaf_count = profiles.len().max(1);
    let weights: Vec<f64> = (0..leaf_count)
        .map(|i| 1.0 / ((i + 1) as f64).powf(config.zipf_exponent))
        .collect();
    let total_weight: f64 = weights.iter().sum();

    let mut local = RecordStore::builder();
    let mut instances = InstanceStore::new();
    let mut gold_classes: BTreeMap<Term, ClassId> = BTreeMap::new();
    let mut catalog_part_numbers: Vec<String> = Vec::with_capacity(catalog_size);
    let mut catalog_classes: Vec<usize> = Vec::with_capacity(catalog_size);

    // ------------------------------------------------------------------
    // Local catalog SL.
    // ------------------------------------------------------------------
    for n in 0..catalog_size {
        let leaf_idx = {
            let mut target = rng.gen_range(0.0..total_weight);
            let mut chosen = leaf_count - 1;
            for (i, w) in weights.iter().enumerate() {
                if target < *w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        let profile = &profiles[leaf_idx];
        let item = Term::iri(vocab::local_item(n));
        let part_number = part_gen.generate(profile, n, &mut rng);
        let manufacturer = MANUFACTURERS[rng.gen_range(0..MANUFACTURERS.len())];
        instances.assert_type(&item, profile.class);
        local.begin_record(item);
        local.push_value(vocab::LOCAL_PART_NUMBER, &part_number);
        local.push_value(vocab::LOCAL_MANUFACTURER, manufacturer);
        local.push_value(vocab::LOCAL_LABEL, &format!("{} #{n}", profile.label));
        catalog_part_numbers.push(part_number);
        catalog_classes.push(leaf_idx);
    }

    // ------------------------------------------------------------------
    // External provider items SE: one per training link plus held-out items,
    // each derived from a distinct catalog product.
    // ------------------------------------------------------------------
    let external_total = config.training_links + config.extra_external;
    let mut external = RecordStore::builder();
    let mut links = Vec::with_capacity(config.training_links);
    let mut examples = Vec::with_capacity(config.training_links);
    let mut heldout: Vec<(Term, Vec<(String, String)>)> = Vec::new();
    for e in 0..external_total {
        let catalog_index = e; // distinct by construction (catalog_size ≥ external_total)
        let profile = &profiles[catalog_classes[catalog_index]];
        let ext_item = Term::iri(vocab::provider_item(e));
        let provider_ref = config
            .perturbation
            .apply(&catalog_part_numbers[catalog_index], &mut rng);
        let manufacturer = MANUFACTURERS[rng.gen_range(0..MANUFACTURERS.len())];
        external.begin_record(ext_item.clone());
        external.push_value(vocab::PROVIDER_PART_NUMBER, &provider_ref);
        external.push_value(vocab::PROVIDER_MANUFACTURER, manufacturer);
        gold_classes.insert(ext_item.clone(), profile.class);
        let facts = vec![
            (vocab::PROVIDER_PART_NUMBER.to_string(), provider_ref),
            (
                vocab::PROVIDER_MANUFACTURER.to_string(),
                manufacturer.to_string(),
            ),
        ];
        if e < config.training_links {
            let local_item = Term::iri(vocab::local_item(catalog_index));
            links.push((ext_item.clone(), local_item.clone()));
            examples.push(TrainingExample::new(
                ext_item,
                local_item,
                facts,
                vec![profile.class],
            ));
        } else {
            heldout.push((ext_item, facts));
        }
    }

    GeneratedScenario {
        config: ScenarioConfig {
            catalog_size,
            ..config.clone()
        },
        ontology,
        profiles,
        dataset: LinkedSources {
            local: local.build(),
            external: external.build(),
            links,
        },
        instances,
        training: TrainingSet::from_examples(examples),
        gold_classes,
        heldout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classilink_core::{CoreError, LearnerConfig, RuleLearner};
    use std::hash::Hasher;

    /// A digest of what `generate` writes: both stores' records in order
    /// (facts in interning order, so the property ids are pinned too), the
    /// links, every training example and every catalog item's classes.
    /// Each field is hashed as its own bytes — a term in its N-Triples
    /// form, a class as its index — so the digest moves only when the
    /// generator's output does, never with a `Debug` rendering.
    fn fingerprint(scenario: &GeneratedScenario) -> u64 {
        let mut hasher = twox_hash::XxHash64::with_seed(0);
        let mut line = |fields: &[String]| hash_line(&mut hasher, fields);
        let classes = |classes: &[ClassId]| -> Vec<String> {
            classes.iter().map(|c| c.index().to_string()).collect()
        };
        for store in [scenario.local_store(), scenario.external_store()] {
            for record in 0..store.len() {
                let mut fields = vec![store.id(record).to_string()];
                for (property, value) in store.facts(record) {
                    fields.extend([property.to_string(), value.to_string()]);
                }
                line(&fields);
            }
        }
        for (external, local) in scenario.dataset.link_pairs() {
            line(&[external.to_string(), local.to_string()]);
        }
        for e in scenario.training.examples() {
            let mut fields = vec![e.external_item.to_string(), e.local_item.to_string()];
            for (property, value) in &e.facts {
                fields.extend([property.clone(), value.clone()]);
            }
            fields.extend(classes(&e.classes));
            line(&fields);
        }
        for n in 0..scenario.catalog_size() {
            let item = Term::iri(vocab::local_item(n));
            let mut fields = vec![item.to_string()];
            fields.extend(classes(&scenario.instances.types_of(&item)));
            line(&fields);
        }
        hasher.finish()
    }

    /// Hash one line of fields into `hasher`, each field as its own bytes.
    /// 0xFF and 0xFE never occur in UTF-8: they end a field and a line.
    fn hash_line(hasher: &mut twox_hash::XxHash64, fields: &[String]) {
        for field in fields {
            hasher.write(field.as_bytes());
            hasher.write(&[0xFF]);
        }
        hasher.write(&[0xFE]);
    }

    /// The presets are what every recorded figure of the workspace was
    /// measured on: a change to the generator must leave them unmoved.
    #[test]
    fn the_presets_generate_what_they_always_have() {
        let tiny = fingerprint(&generate(&ScenarioConfig::tiny()));
        assert_eq!(tiny, 0x8f1a_571b_f086_8a14, "{tiny:#018x}");
        let small = fingerprint(&generate(&ScenarioConfig::small()));
        assert_eq!(small, 0xc1c7_ab05_bcdf_87f5, "{small:#018x}");
    }

    /// A digest of what the learner makes of a scenario under `config` and
    /// of what the classifier built from it predicts: every rule's
    /// property, segment, class and four counts, every `LearnStats` field,
    /// then every external item's predicted classes with their confidence
    /// bits, in record order. Hashed field by field, like [`fingerprint`].
    fn learned(scenario: &GeneratedScenario, config: &LearnerConfig) -> u64 {
        use classilink_core::RuleClassifier;
        let outcome = RuleLearner::new(config.clone())
            .learn(&scenario.training, &scenario.ontology)
            .unwrap();
        let mut hasher = twox_hash::XxHash64::with_seed(0);
        let mut line = |fields: &[String]| hash_line(&mut hasher, fields);
        for rule in &outcome.rules {
            let c = rule.quality.counts;
            line(&[rule.property.clone(), rule.segment.clone()]);
            line(
                &[
                    rule.class.index() as u64,
                    c.n,
                    c.premise,
                    c.conclusion,
                    c.both,
                ]
                .map(|x| x.to_string()),
            );
        }
        let s = &outcome.stats;
        line(
            &[
                s.examples,
                s.properties,
                s.distinct_segments,
                s.segment_occurrences as usize,
                s.selected_segment_occurrences as usize,
                s.frequent_pairs,
                s.frequent_classes,
                s.observed_classes,
                s.rules,
                s.classes_with_rules,
            ]
            .map(|x| x.to_string()),
        );
        let classifier = RuleClassifier::from_outcome(&outcome, config);
        let external = scenario.external_store();
        for record in 0..external.len() {
            let predictions = classifier.classify_fact_refs(external.facts(record));
            let fields: Vec<String> = predictions
                .iter()
                .flat_map(|p| [p.class.index() as u64, p.confidence.to_bits()])
                .map(|x| x.to_string())
                .collect();
            line(&fields);
        }
        hasher.finish()
    }

    /// Every recorded learner and classifier figure rests on what the
    /// presets learn: a change to the segmenters, the normalisation, the
    /// learner or the classifier must leave these digests unmoved. Six
    /// segmenters on the part number alone, then the separator on every
    /// property.
    #[test]
    fn the_learner_learns_what_it_always_has() {
        use classilink_core::PropertySelection;
        use classilink_segment::SegmenterKind;
        let part_number = LearnerConfig::paper()
            .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER));
        let configs: Vec<LearnerConfig> = [
            SegmenterKind::Separator,
            SegmenterKind::Whitespace,
            SegmenterKind::AlphaNumTransition,
            SegmenterKind::CharNGram(3),
            SegmenterKind::PaddedBigram,
            SegmenterKind::WordNGram(2),
        ]
        .into_iter()
        .map(|kind| part_number.clone().with_segmenter(kind))
        .chain([LearnerConfig::paper().with_properties(PropertySelection::All)])
        .collect();
        let digests: Vec<Vec<u64>> = [ScenarioConfig::tiny(), ScenarioConfig::small()]
            .iter()
            .map(|preset| {
                let scenario = generate(preset);
                configs.iter().map(|c| learned(&scenario, c)).collect()
            })
            .collect();
        let expected: [[u64; 7]; 2] = [
            [
                0xa42e_1838_0cc7_0d27,
                0x671c_6af6_4ebf_1fac,
                0x0790_6642_7e14_c496,
                0xaf86_ce80_3689_896b,
                0xd9ce_e7c9_33a8_a1cc,
                0x9a37_0e12_c6cd_dd27,
                0x8a9f_31c7_f585_e019,
            ],
            [
                0x44ff_90cb_ff9c_abe2,
                0x17c6_8af3_5b49_42ab,
                0xbc4c_4f98_f751_572e,
                0xe258_db50_0353_7087,
                0x9914_61af_6e2d_b49c,
                0xe9d9_1012_0752_5315,
                0x66ed_a397_86a1_5381,
            ],
        ];
        assert_eq!(digests, expected, "{digests:#018x?}");
    }

    /// The two front doors agree: the catalog, written out one N-Triples
    /// line per fact and fed back in chunks that split lines, is the
    /// catalog `sharded_stores` builds — same ids, same shard sizes, same
    /// records.
    #[test]
    fn feeding_the_catalog_rebuilds_its_shards() {
        use classilink_linking::ingest::FeedIngest;
        use classilink_rdf::Triple;
        use std::fmt::Write;
        for config in [ScenarioConfig::tiny(), ScenarioConfig::small()] {
            let scenario = generate(&config);
            let local = scenario.local_store();
            let mut doc = String::new();
            for record in 0..local.len() {
                for (property, value) in local.facts(record) {
                    let id = local.id(record).clone();
                    let fact = Triple::new(id, Term::iri(property), Term::literal(value));
                    writeln!(doc, "{fact}").unwrap();
                }
            }
            let mut ingest = FeedIngest::ntriples(SchemaInterner::new(), local.len().div_ceil(4));
            for chunk in doc.as_bytes().chunks(4093) {
                ingest.feed(chunk).unwrap();
            }
            let fed = ingest.try_finish().unwrap();
            let (_, generated) = scenario.sharded_stores(4);
            let ids = |store: &ShardedStore| -> Vec<Term> {
                (0..store.len()).map(|i| store.id(i).clone()).collect()
            };
            assert_eq!(ids(&fed), ids(&generated), "{config:?}");
            let sizes = |store: &ShardedStore| -> Vec<usize> {
                store.shards().iter().map(|s| s.len()).collect()
            };
            assert_eq!(sizes(&fed), sizes(&generated));
            for (fed, generated) in fed.shards().iter().zip(generated.shards()) {
                assert_eq!(fed.to_records(), generated.to_records());
            }
        }
    }

    #[test]
    fn a_scenario_without_links_has_an_empty_training_set() {
        let config = ScenarioConfig {
            training_links: 0,
            ..ScenarioConfig::tiny()
        };
        let scenario = generate(&config);
        assert!(scenario.training.is_empty());
        assert_eq!(scenario.dataset.link_pairs().count(), 0);
        assert_eq!(scenario.heldout.len(), config.extra_external);
        assert_eq!(scenario.external_store().len(), config.extra_external);
        let learner = RuleLearner::new(LearnerConfig::default());
        assert!(matches!(
            learner.learn(&scenario.training, &scenario.ontology),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn tiny_scenario_has_consistent_shapes() {
        let scenario = generate(&ScenarioConfig::tiny());
        let cfg = &scenario.config;
        assert_eq!(scenario.training.len(), cfg.training_links);
        assert_eq!(scenario.heldout.len(), cfg.extra_external);
        assert_eq!(scenario.dataset.link_pairs().count(), cfg.training_links);
        assert!((0..cfg.catalog_size).all(|i| {
            let item = Term::iri(vocab::local_item(i));
            !scenario.instances.types_of(&item).is_empty()
        }));
        assert_eq!(
            scenario.gold_classes.len(),
            cfg.training_links + cfg.extra_external
        );
        assert_eq!(scenario.local_store().len(), cfg.catalog_size);
        assert_eq!(
            scenario.external_store().len(),
            cfg.training_links + cfg.extra_external
        );
    }

    #[test]
    fn training_examples_have_provider_facts_and_leaf_classes() {
        let scenario = generate(&ScenarioConfig::tiny());
        for example in scenario.training.examples() {
            assert!(!example.facts.is_empty());
            assert!(example
                .facts
                .iter()
                .any(|(p, _)| p == vocab::PROVIDER_PART_NUMBER));
            assert_eq!(example.classes.len(), 1);
            assert!(scenario.ontology.is_leaf(example.classes[0]));
            // The example's class matches the gold class of the external item.
            assert_eq!(
                scenario.gold_classes.get(&example.external_item),
                Some(&example.classes[0])
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&ScenarioConfig::tiny());
        let b = generate(&ScenarioConfig::tiny());
        assert_eq!(a.training, b.training);
        assert_eq!(a.gold_classes, b.gold_classes);
        assert_eq!(a.local_store(), b.local_store());
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = generate(&ScenarioConfig::tiny());
        let b = generate(&ScenarioConfig::tiny().with_seed(99));
        assert_ne!(a.training, b.training);
    }

    #[test]
    fn class_distribution_is_skewed() {
        let scenario = generate(&ScenarioConfig::small());
        let mut freqs: BTreeMap<ClassId, u64> = BTreeMap::new();
        for class in scenario.training.examples().iter().flat_map(|e| &e.classes) {
            *freqs.entry(*class).or_insert(0) += 1;
        }
        let max = freqs.values().copied().max().unwrap_or(0);
        let min = freqs.values().copied().min().unwrap_or(0);
        assert!(
            max >= 5 * min.max(1),
            "distribution not skewed: max {max}, min {min}"
        );
        // Not every leaf class necessarily appears, but many do.
        assert!(freqs.len() > scenario.profiles.len() / 3);
    }

    #[test]
    fn catalog_size_is_clamped_to_fit_external_items() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.catalog_size = 10; // smaller than links + heldout
        let scenario = generate(&cfg);
        assert!(scenario.config.catalog_size >= cfg.training_links + cfg.extra_external);
    }

    #[test]
    fn stores_cover_every_item_with_their_facts() {
        let scenario = generate(&ScenarioConfig::tiny());
        let external = scenario.external_store();
        let local = scenario.local_store();
        assert_eq!(
            external.len(),
            scenario.config.training_links + scenario.config.extra_external
        );
        assert_eq!(local.len(), scenario.config.catalog_size);
        let pn = local.property(vocab::LOCAL_PART_NUMBER).unwrap();
        assert!((0..local.len()).all(|r| local.first(r, pn).is_some()));
        let provider_ref = external.property(vocab::PROVIDER_PART_NUMBER).unwrap();
        assert!((0..external.len()).all(|r| external.first(r, provider_ref).is_some()));
        // Every expert link joins items present in the two stores.
        for (e, l) in scenario.dataset.link_pairs() {
            assert!(external.index_of(&e).is_some());
            assert!(local.index_of(&l).is_some());
        }
    }

    #[test]
    fn sharded_local_store_matches_single_store() {
        let scenario = generate(&ScenarioConfig::tiny());
        let single = scenario.local_store();
        let sharded = ShardedStore::from_store_with_schema(&single, 4, SchemaInterner::new());
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.len(), single.len());
        for global in 0..single.len() {
            assert_eq!(sharded.id(global), single.id(global));
        }
        let shards = sharded.shards().iter();
        let records: Vec<_> = shards.flat_map(|shard| shard.to_records()).collect();
        assert_eq!(records, single.to_records());
        // Shared-schema construction: the external store and every shard
        // resolve the part-number IRIs to ids from one symbol table.
        let (external, local) = scenario.sharded_stores(3);
        assert_eq!(external.len(), scenario.external_store().len());
        assert_eq!(local.len(), single.len());
        let provider_pn = external.property(vocab::PROVIDER_PART_NUMBER);
        assert!(provider_pn.is_some());
        assert_eq!(local.property(vocab::PROVIDER_PART_NUMBER), provider_pn);
        assert!(local.property(vocab::LOCAL_PART_NUMBER).is_some());
    }

    #[test]
    fn local_items_carry_part_number_manufacturer_and_label() {
        let scenario = generate(&ScenarioConfig::tiny());
        let store = scenario.local_store();
        let item = store.index_of(&Term::iri(vocab::local_item(0))).unwrap();
        for property in [
            vocab::LOCAL_PART_NUMBER,
            vocab::LOCAL_MANUFACTURER,
            vocab::LOCAL_LABEL,
        ] {
            assert!(store
                .first(item, store.property(property).unwrap())
                .is_some());
        }
    }
}
