//! The generated inputs of one run and the fixed engine configuration.
//!
//! Everything here is a function of `(scale, seed)`: the scenario, the
//! catalog and provider records, the wire documents the feed stages parse
//! and the expert links the quality metrics are scored against. The engine
//! only ever sees these inputs.

use classilink_datagen::scenario::{generate, GeneratedScenario, ScenarioConfig};
use classilink_datagen::vocab;
use classilink_eval::blocking_eval::default_key;
use classilink_linking::blocking::{SortedNeighborhoodBlocker, StandardBlocker};
use classilink_linking::comparator::AttributeRule;
use classilink_linking::{BigramBlocker, Link, Record, RecordComparator, SimilarityMeasure};
use classilink_rdf::term::escape_literal;
use classilink_rdf::Term;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Default seed: `ScenarioConfig::paper()`'s own (the workshop date).
pub const DEFAULT_SEED: u64 = 20_120_326;
/// Catalog shards of every batch store.
pub const SHARDS: usize = 4;
/// Bytes per `feed` call.
pub const CHUNK: usize = 64 * 1024;
/// Epoch publishes of one serve pass; each appends 1 % of the catalog.
pub const APPENDS: usize = 20;
/// Least confidence of the rules the rule blocker uses. Not 1: among
/// 10 265 links a single counterexample takes the largest class's rule from
/// 1 to 0.999, and with it half the candidates (3.1 M instead of 6.5 M on
/// one seed in seven). At 0.9 every seed keeps it: 6.35 to 6.98 M.
pub const RULE_CONFIDENCE: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `ScenarioConfig::paper()`: 30 000 × 10 265, the 566/226 ontology.
    Paper,
    /// `ScenarioConfig::tiny()`: the smoke-test size.
    Tiny,
}

impl Scale {
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "paper" => Some(Scale::Paper),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Tiny => "tiny",
        }
    }
}

pub struct Inputs {
    pub scenario: GeneratedScenario,
    /// The catalog in store order (global id = index).
    pub catalog: Vec<Record>,
    /// The provider items in store order.
    pub providers: Vec<Record>,
    /// Expert links, provider item → catalog item.
    pub truth: HashMap<Term, Term>,
    /// The fed catalog: every record but the held-back 1 %, as N-Triples.
    pub base_nt: String,
    /// The held-back 1 % (every hundredth record), as N-Triples.
    pub delta_nt: String,
    /// The provider items as Turtle.
    pub providers_ttl: String,
}

impl Inputs {
    pub fn generate(scale: Scale, seed: u64) -> Inputs {
        let config = match scale {
            Scale::Paper => ScenarioConfig::paper(),
            Scale::Tiny => ScenarioConfig::tiny(),
        };
        let scenario = generate(&config.with_seed(seed));
        let catalog = scenario.local_store().to_records();
        let providers = scenario.external_store().to_records();
        let truth = scenario.dataset.link_pairs().collect();
        let (mut base_nt, mut delta_nt) = (String::new(), String::new());
        for (i, record) in catalog.iter().enumerate() {
            write_ntriples(
                if held_back(i) {
                    &mut delta_nt
                } else {
                    &mut base_nt
                },
                record,
            );
        }
        let providers_ttl = turtle_document(&providers);
        Inputs {
            scenario,
            catalog,
            providers,
            truth,
            base_nt,
            delta_nt,
            providers_ttl,
        }
    }

    /// The catalog records the feed stage ingests first / holds back.
    pub fn split_catalog(&self) -> (Vec<Record>, Vec<Record>) {
        let (mut base, mut delta) = (Vec::new(), Vec::new());
        for (i, record) in self.catalog.iter().enumerate() {
            if held_back(i) { &mut delta } else { &mut base }.push(record.clone());
        }
        (base, delta)
    }

    /// Catalog records in the feed stage's first document (all but the
    /// held-back hundredth).
    pub fn fed_first(&self) -> usize {
        self.catalog.len() - self.catalog.len() / 100
    }

    /// Records of one serve-pass append (1 % of the catalog, at least one).
    pub fn append_batch(&self) -> usize {
        (self.catalog.len() / 100).max(1)
    }

    /// Records the serve pass starts from: the catalog minus its appends.
    pub fn serve_base(&self) -> usize {
        self.catalog.len() - APPENDS * self.append_batch()
    }

    /// Matches that are expert links, and their precision and recall.
    pub fn quality(&self, matches: &[Link]) -> (f64, f64) {
        let hits = matches
            .iter()
            .filter(|l| self.truth.get(&l.external) == Some(&l.local))
            .count() as f64;
        (
            if matches.is_empty() {
                0.0
            } else {
                hits / matches.len() as f64
            },
            hits / self.truth.len().max(1) as f64,
        )
    }
}

/// The delta of the feed stage: every hundredth catalog record arrives late.
fn held_back(index: usize) -> bool {
    index % 100 == 99
}

fn write_ntriples(out: &mut String, record: &Record) {
    let id = record.id.as_iri().expect("catalog ids are IRIs");
    for (property, values) in &record.attributes {
        for value in values {
            out.push_str(&format!(
                "<{id}> <{property}> \"{}\" .\n",
                escape_literal(value)
            ));
        }
    }
}

fn turtle_document(records: &[Record]) -> String {
    let mut out = format!("@prefix v: <{}> .\n", vocab::PROVIDER_VOCAB_NS);
    for record in records {
        let id = record.id.as_iri().expect("provider ids are IRIs");
        let facts: Vec<String> = record
            .attributes
            .iter()
            .flat_map(|(property, values)| {
                let predicate = match property.strip_prefix(vocab::PROVIDER_VOCAB_NS) {
                    Some(name) => format!("v:{name}"),
                    None => format!("<{property}>"),
                };
                values
                    .iter()
                    .map(move |value| format!("{predicate} \"{}\"", escape_literal(value)))
            })
            .collect();
        out.push_str(&format!("<{id}> {} .\n", facts.join(" ; ")));
    }
    out
}

/// Comparison threads of every timed end-to-end operation: one. The
/// benchmark runs on a few cores of a shared host, and a two-thread run's
/// time is that of whichever thread the host preempted longest.
pub fn threads() -> usize {
    1
}

/// Comparison threads of the traced pass's parallel run (the parallel
/// oracle and `pipeline.parallel_speedup`).
pub fn parallel_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `jw95`: Jaro-Winkler on reference / part number, match ≥ 0.95,
/// possible ≥ 0.90.
pub fn jw95() -> RecordComparator {
    RecordComparator::single(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        SimilarityMeasure::JaroWinkler,
    )
    .with_thresholds(0.95, 0.90)
}

/// `jw_jaccard`: `jw95`'s rule at weight 0.8 plus token Jaccard on
/// maker / manufacturer at weight 0.2, same thresholds.
pub fn jw_jaccard() -> RecordComparator {
    RecordComparator::new(vec![
        AttributeRule {
            left_property: vocab::PROVIDER_PART_NUMBER.to_string(),
            right_property: vocab::LOCAL_PART_NUMBER.to_string(),
            measure: SimilarityMeasure::JaroWinkler,
            weight: 0.8,
        },
        AttributeRule {
            left_property: vocab::PROVIDER_MANUFACTURER.to_string(),
            right_property: vocab::LOCAL_MANUFACTURER.to_string(),
            measure: SimilarityMeasure::JaccardTokens,
            weight: 0.2,
        },
    ])
    .with_thresholds(0.95, 0.90)
}

/// The legacy `paper_scale/pipeline/*` operating point, which labels most
/// comparisons "possible" (the dense-output reference run only).
pub fn dense() -> RecordComparator {
    RecordComparator::single(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        SimilarityMeasure::JaroWinkler,
    )
    .with_thresholds(0.9, 0.75)
}

pub fn standard_blocker() -> StandardBlocker {
    StandardBlocker::new(default_key(4))
}

pub fn bigram_blocker() -> BigramBlocker {
    BigramBlocker::new(default_key(0), 0.7)
}

pub fn sorted_blocker() -> SortedNeighborhoodBlocker {
    SortedNeighborhoodBlocker::new(default_key(0), 10)
}

/// An order-independent digest of a link set: equal sets of
/// `(external, local, score bits)` give equal digests however they were
/// produced (batch, delta slice, probe by probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub links: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, link: &Link) {
        // `DefaultHasher::new()` is SipHash with fixed keys: stable
        // across runs, unlike `RandomState`.
        let mut hasher = DefaultHasher::new();
        link.external.hash(&mut hasher);
        link.local.hash(&mut hasher);
        link.score.to_bits().hash(&mut hasher);
        self.links += 1;
        self.sum = self.sum.wrapping_add(hasher.finish());
    }

    pub fn of<'l>(links: impl IntoIterator<Item = &'l Link>) -> Digest {
        let mut digest = Digest::default();
        for link in links {
            digest.add(link);
        }
        digest
    }
}
