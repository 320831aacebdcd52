//! The one proptest catalog strategy: a sharded catalog, provider items
//! to link against it, and the class model the rule blocker reads.
//! Each case draws:
//! * record ids of every term kind (IRIs, blank nodes, literals with and
//!   without language or datatype), with arbitrary printable suffixes
//!   (`\PC{0,8}`: quotes, backslashes, spaces, `ß`, `λ`, `日`, …);
//! * part numbers from a few families with a heavy skew (many equal keys
//!   and sort values), upper- and lower-case, some with `é` / `€` / `漢`,
//!   some stretched or cut to 7, 8, 9, 63, 64 or 65 bytes (the ends of a
//!   sort word and of the 64-byte symbol masks; a family's stretched
//!   values tie on their sort word); one in ten is arbitrary printable
//!   text (`\PC{0,16}`), the empty value included;
//! * multi-valued part numbers, a manufacturer on half the records, a
//!   label on one in eight (a mostly-null column) and, on one in three, one
//!   or two [`DESC`] values of arbitrary printable text, empty ones
//!   included (no comparator rule reads them: they reach scores only
//!   through the full-text fallback);
//! * 1–5 shards of 0–5 records, one shard in eight of 63, 64 or 65 (the
//!   bigram counter's word boundary): empty shards and empty catalogs
//!   occur;
//! * catalog records in zero, one or several classes of a five-class
//!   ontology, and rules from family segments to classes (`cr` concludes
//!   a class and, ranked lower, its superclass);
//! * provider items that are perturbed copies of catalog part numbers
//!   (links) or fresh ones, some without a part number.

use super::matrix::{fill, Layout};
use super::oracle::Rules;
use classilink_core::{ClassificationRule, Contingency, RuleClassifier};
use classilink_datagen::vocab;
use classilink_linking::record::Record;
use classilink_linking::ShardedStore;
use classilink_ontology::{ClassId, InstanceStore, Ontology, OntologyBuilder};
use classilink_rdf::{Literal, Term};
use classilink_segment::SegmenterKind;
use proptest::prelude::*;

/// Part-number families, most frequent first.
const FAMILIES: [&str; 6] = ["cr", "t8", "lm", "gr", "bav", "ø"];

/// A free-text column no comparator rule reads.
pub const DESC: &str = "http://classilink.example.org/catalog/vocab#desc";

/// One generated case.
pub struct Catalog {
    pub shards: Vec<Vec<Record>>,
    pub externals: Vec<Record>,
    pub ontology: Ontology,
    pub instances: InstanceStore,
    pub classifier: RuleClassifier,
}

impl Catalog {
    /// The catalog as one store of these shard boundaries.
    pub fn store(&self) -> ShardedStore {
        fill(ShardedStore::builder(), &self.shards).build()
    }

    /// The last two shards (fewer when there are fewer, an empty one when
    /// there is one) arrive as an appended delta.
    pub fn layout(&self) -> Layout {
        let split = self.shards.len().saturating_sub(2).max(1);
        let mut delta = self.shards[split..].to_vec();
        if delta.is_empty() {
            delta.push(Vec::new());
        }
        let base = self.shards[..split].to_vec();
        Layout { base, delta }
    }

    pub fn rules(&self) -> Rules<'_> {
        Rules {
            classifier: &self.classifier,
            instances: &self.instances,
            ontology: &self.ontology,
        }
    }
}

/// See the module documentation. (The offline `proptest` stand-in has no
/// combinators; see shims/README.md.)
pub struct CatalogStrategy;

pub fn strategy() -> CatalogStrategy {
    CatalogStrategy
}

impl Strategy for CatalogStrategy {
    type Value = Catalog;

    fn generate(&self, rng: &mut TestRng) -> Catalog {
        let mut draw = Draw(rng);
        // Component ⊃ {Passive ⊃ {Resistor, Capacitor}, Active}.
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let passive = b.class("Passive", Some(root));
        let resistor = b.class("Resistor", Some(passive));
        let capacitor = b.class("Capacitor", Some(passive));
        let active = b.class("Active", Some(root));
        let ontology = b.build();
        let classes = [root, passive, resistor, capacitor, active];
        let mut instances = InstanceStore::new();
        let (mut part_numbers, mut n) = (Vec::new(), 0);
        let shards = (0..1 + draw.below(5))
            .map(|_| {
                let size = match draw.below(8) {
                    0 => 63 + draw.below(3),
                    _ => draw.below(6),
                };
                (0..size)
                    .map(|_| {
                        let record = draw.local(n, &mut part_numbers);
                        for _ in 0..draw.below(4) {
                            instances.assert_type(&record.id, classes[draw.below(5)]);
                        }
                        n += 1;
                        record
                    })
                    .collect()
            })
            .collect();
        let externals = (0..draw.below(9))
            .map(|i| draw.external(i, &part_numbers))
            .collect();
        let rule = |segment: &str, class: ClassId, [premise, conclusion, both]: [u64; 3]| {
            ClassificationRule {
                property: vocab::PROVIDER_PART_NUMBER.to_string(),
                segment: segment.to_string(),
                class,
                class_iri: ontology.iri(class).to_string(),
                class_label: ontology.label(class).to_string(),
                quality: Contingency::new(100, premise, conclusion, both).quality(),
            }
        };
        let rules = vec![
            rule("cr", resistor, [10, 20, 9]),
            rule("cr", passive, [10, 40, 8]),
            rule("t8", active, [10, 30, 10]),
            rule("lm", capacitor, [20, 30, 12]),
            rule("bav", root, [10, 50, 10]),
        ];
        Catalog {
            shards,
            externals,
            classifier: RuleClassifier::new(rules, SegmenterKind::Separator),
            ontology,
            instances,
        }
    }
}

struct Draw<'r>(&'r mut TestRng);

impl Draw<'_> {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// Arbitrary printable text of at most `max` chars, possibly empty.
    fn text(&mut self, max: usize) -> String {
        format!("\\PC{{0,{max}}}").as_str().generate(self.0)
    }

    fn part_number(&mut self) -> String {
        if self.one_in(10) {
            return self.text(16);
        }
        // The family is the least of two draws: skewed to the first. A
        // value stretched past eight bytes is zeros after the family up
        // to byte 9, so all of a family's tie on their sort word.
        let family = FAMILIES[self.below(6).min(self.below(6))];
        let bytes = self.one_in(4).then(|| [7, 8, 9, 63, 64, 65][self.below(6)]);
        let mut value = match bytes {
            Some(bytes) if bytes > 8 => format!("{family}-"),
            _ => format!("{family}-{:03}", self.below(40)),
        };
        if self.one_in(5) {
            value.insert(value.len() - 1, ['é', '€', '漢'][self.below(3)]);
        }
        if self.one_in(4) {
            value = value.to_uppercase();
        }
        // Cut on a char boundary, or stretched with zeros, then digits.
        while bytes.is_some_and(|bytes| value.len() > bytes) {
            value.pop();
        }
        while bytes.is_some_and(|bytes| value.len() < bytes) {
            let digit = if value.len() < 9 { 0 } else { self.below(10) };
            value.push(char::from(b'0' + digit as u8));
        }
        value
    }

    fn manufacturer(&mut self) -> &'static str {
        [
            "Vishay Dale",
            "vishay",
            "Texas Instruments",
            "Würth Elektronik",
        ][self.below(4)]
    }

    fn local(&mut self, n: usize, part_numbers: &mut Vec<String>) -> Record {
        // `n` and a separator keep ids unique whatever the suffix.
        let suffix = self.text(8);
        let id = match self.below(4) {
            0 => Term::blank(format!("b{n}-{suffix}")),
            1 => Term::Literal(Literal {
                value: format!("{n}:{suffix}"),
                language: self.one_in(2).then(|| "en".to_string()),
                datatype: self.one_in(3).then(|| "http://w3.org/xsd#string".into()),
            }),
            _ => Term::iri(format!("http://local.e.org/prod/{n}/{suffix}")),
        };
        let mut record = Record::new(id);
        for _ in 0..[0, 1, 1, 1, 1, 2, 3][self.below(7)] {
            let value = self.part_number();
            record.add(vocab::LOCAL_PART_NUMBER, value.as_str());
            part_numbers.push(value);
        }
        if self.one_in(2) {
            record.add(vocab::LOCAL_MANUFACTURER, self.manufacturer());
        }
        if self.one_in(8) {
            let label = format!("résistance {}", FAMILIES[self.below(6)]);
            record.add(vocab::LOCAL_LABEL, label);
        }
        if self.one_in(3) {
            for _ in 0..1 + self.below(2) {
                let desc = self.text(16);
                record.add(DESC, desc);
            }
        }
        record
    }

    /// Two in three part numbers are a catalog one with one character
    /// dropped, doubled or replaced.
    fn external(&mut self, i: usize, part_numbers: &[String]) -> Record {
        let mut record = Record::new(Term::iri(format!("http://provider.e.org/item/{i}")));
        if !self.one_in(8) {
            let value = if part_numbers.is_empty() || self.one_in(3) {
                self.part_number()
            } else {
                let mut chars: Vec<char> = part_numbers[self.below(part_numbers.len())]
                    .chars()
                    .collect();
                let at = self.below(chars.len().max(1));
                match self.below(4) {
                    _ if chars.is_empty() => {}
                    0 => drop(chars.remove(at)),
                    1 => chars.insert(at, chars[at]),
                    2 => chars[at] = 'x',
                    _ => {}
                }
                chars.into_iter().collect()
            };
            record.add(vocab::PROVIDER_PART_NUMBER, value);
        }
        if self.one_in(2) {
            record.add(vocab::PROVIDER_MANUFACTURER, self.manufacturer());
        }
        record
    }
}
