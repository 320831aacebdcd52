//! Rule-based blocking: the paper's contribution cast as a [`Blocker`].
//!
//! The learnt classification rules predict, for each external record, the
//! classes of the local ontology it should be compared with; the candidate
//! pairs are then the record's pairs with the instances of those classes.
//! This adapter lets the paper's approach be compared head-to-head with the
//! classic blocking baselines on exactly the same interface (experiment E5).
//! Externals predicted into the same classes share one copy of their
//! subspace in the sink, each as one block per shard over it.

use super::{Blocker, CandidateRuns};
use crate::shard::LocalShards;
use crate::store::RecordStore;
use classilink_core::RuleClassifier;
use classilink_ontology::{ClassId, InstanceStore, Ontology};
use std::collections::HashMap;
use std::mem;
use std::ops::Range;

/// Blocking through learnt classification rules.
pub struct RuleBasedBlocker<'a> {
    classifier: &'a RuleClassifier,
    instances: &'a InstanceStore,
    ontology: &'a Ontology,
    /// When `true`, an external record for which no rule fires is paired with
    /// every local record (guaranteeing completeness at the cost of
    /// comparisons); when `false`, such records produce no candidates (what
    /// the paper's reduction argument assumes).
    pub fallback_to_all: bool,
}

impl<'a> RuleBasedBlocker<'a> {
    /// A rule-based blocker over the given classifier and local instances.
    pub fn new(
        classifier: &'a RuleClassifier,
        instances: &'a InstanceStore,
        ontology: &'a Ontology,
    ) -> Self {
        RuleBasedBlocker {
            classifier,
            instances,
            ontology,
            fallback_to_all: false,
        }
    }

    /// Enable pairing unclassified external records with the whole catalog.
    pub fn with_fallback(mut self, fallback_to_all: bool) -> Self {
        self.fallback_to_all = fallback_to_all;
        self
    }

    /// Write the subspace of an external predicted into `classes` (rank
    /// order) into each shard's arena: each class's extent in `Term`
    /// order, looked up in the shard's id index, the first occurrence of
    /// a local winning. Returns one arena range per shard, empty for
    /// shards the sink is not active for (a delta run never hashes the
    /// extent into the untouched base shards).
    fn write_subspace(
        &self,
        classes: &[ClassId],
        local: LocalShards<'_>,
        out: &mut CandidateRuns,
    ) -> Vec<Range<usize>> {
        let extents: Vec<_> = (classes.iter())
            .map(|&class| self.instances.extent_refs(class, self.ontology))
            .collect();
        let epoch = out.scratch.next_epoch(local.len());
        // Out of the sink while the writes below borrow it.
        let mut marks = mem::take(&mut out.scratch.marks);
        let written = (local.iter().enumerate())
            .map(|(s, shard)| {
                let offset = local.offset(s);
                let ids = extents.iter().flatten();
                let ids = ids.filter_map(|item| shard.index_of(item));
                let fresh = |&l: &usize| mem::replace(&mut marks[offset + l], epoch) != epoch;
                out.write_locals(s, ids.filter(fresh))
            })
            .collect();
        out.scratch.marks = marks;
        written
    }
}

impl Blocker for RuleBasedBlocker<'_> {
    fn name(&self) -> &'static str {
        "classification-rules"
    }

    /// Native streaming: each external record is classified **once**, and
    /// each distinct prediction (its classes in rank order) is written
    /// into the sink **once per call** — the first external with it
    /// enumerates the extents borrowed ([`InstanceStore::extent_refs`])
    /// and writes their union's hits in each active shard's id index to
    /// the shard's arena. Every external with that prediction is then
    /// **one block per shard** over the written slice, O(1) however large
    /// the extent. The map of written slices is a local of this call, so
    /// there is nothing to size or invalidate, and a one-record probe
    /// resolves exactly the classes it predicts. Unclassified externals
    /// under the fallback pair with each whole shard as **one span
    /// block** (O(1), not O(shard)).
    fn stream_candidates(
        &self,
        external: &RecordStore,
        local: LocalShards<'_>,
        out: &mut CandidateRuns,
    ) {
        out.reset(external.len(), local);
        fail::fail_point!("blocking::rule_based");
        let mut written: HashMap<Vec<ClassId>, Vec<Range<usize>>> = HashMap::new();
        let mut classes = Vec::new();
        for e in 0..external.len() {
            // The store's facts iterator feeds the classifier borrowed
            // `(&str, &str)` pairs — no per-record fact cloning.
            let predictions = self.classifier.classify_fact_refs(external.facts(e));
            if predictions.is_empty() {
                if self.fallback_to_all {
                    for (s, shard) in local.iter().enumerate() {
                        if !out.shard_active(s) {
                            continue;
                        }
                        out.push_span(s, e, 0, shard.len());
                    }
                }
                continue;
            }
            // The reused key buffer: only a new prediction allocates.
            classes.clear();
            classes.extend(predictions.iter().map(|prediction| prediction.class));
            if !written.contains_key(classes.as_slice()) {
                let slices = self.write_subspace(&classes, local, out);
                written.insert(classes.clone(), slices);
            }
            for (s, slice) in written[classes.as_slice()].iter().enumerate() {
                out.push_written(s, e, slice.clone());
            }
        }
    }

    /// Build each shard's id index (the only local-side artifact extent
    /// resolution reads).
    fn warm(&self, local: LocalShards<'_>) {
        for shard in local.iter() {
            shard.id_index();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::test_support::*;
    use crate::blocking::{collect_pairs, BlockingStats};
    use classilink_core::{ClassificationRule, Contingency};
    use classilink_ontology::OntologyBuilder;
    use classilink_rdf::Term;
    use classilink_segment::SegmenterKind;
    use std::collections::HashSet;

    fn setup() -> (Ontology, InstanceStore, RuleClassifier) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let resistor = b.class("FixedFilmResistor", Some(root));
        let capacitor = b.class("TantalumCapacitor", Some(root));
        let onto = b.build();

        // Locals 0 and 1 are resistors, 2 is a capacitor, 3 and 4 untyped.
        let mut store = InstanceStore::new();
        store.assert_type(&Term::iri("http://local.e.org/prod/0"), resistor);
        store.assert_type(&Term::iri("http://local.e.org/prod/1"), resistor);
        store.assert_type(&Term::iri("http://local.e.org/prod/2"), capacitor);

        let rule = |segment: &str, class: ClassId, name: &str| ClassificationRule {
            property: EXT_PN.to_string(),
            segment: segment.to_string(),
            class,
            class_iri: format!("http://e.org/c#{name}"),
            class_label: name.to_string(),
            quality: Contingency::new(100, 10, 20, 10).quality(),
        };
        let classifier = RuleClassifier::new(
            vec![
                rule("crcw0805", resistor, "FixedFilmResistor"),
                rule("crcw0603", resistor, "FixedFilmResistor"),
                rule("t83", capacitor, "TantalumCapacitor"),
            ],
            SegmenterKind::Separator,
        );
        (onto, store, classifier)
    }

    #[test]
    fn pairs_follow_predicted_class_extents() {
        let (onto, store, classifier) = setup();
        let (external, local) = small_stores();
        let blocker = RuleBasedBlocker::new(&classifier, &store, &onto);
        let pairs = collect_pairs(&blocker, &external, &local);
        let set: HashSet<_> = pairs.iter().copied().collect();
        // External 0 and 1 are classified as resistors → locals 0 and 1.
        assert!(set.contains(&(0, 0)) && set.contains(&(0, 1)));
        assert!(set.contains(&(1, 0)) && set.contains(&(1, 1)));
        // External 2 is a capacitor → local 2 only.
        assert!(set.contains(&(2, 2)));
        assert!(!set.contains(&(2, 0)));
        // External 3 (LM317…) triggers no rule → no pairs without fallback.
        assert!(pairs.iter().all(|(e, _)| *e != 3));
        assert_eq!(blocker.name(), "classification-rules");
    }

    #[test]
    fn true_pairs_covered_for_classified_records() {
        let (onto, store, classifier) = setup();
        let (external, local) = small_stores();
        let pairs = collect_pairs(
            &RuleBasedBlocker::new(&classifier, &store, &onto),
            &external,
            &local,
        );
        // True pairs for the classified externals (0,0), (1,1), (2,2).
        let true_pairs: HashSet<_> = (0..3).map(|i| (i, i)).collect();
        let stats = BlockingStats::evaluate(&pairs, &true_pairs, external.len(), local.len());
        assert_eq!(stats.pairs_completeness, 1.0);
        assert!(stats.reduction_ratio > 0.5);
    }

    #[test]
    fn fallback_pairs_unclassified_records_with_everything() {
        let (onto, store, classifier) = setup();
        let (external, local) = small_stores();
        let pairs = collect_pairs(
            &RuleBasedBlocker::new(&classifier, &store, &onto).with_fallback(true),
            &external,
            &local,
        );
        let set: HashSet<_> = pairs.iter().copied().collect();
        for l in 0..local.len() {
            assert!(set.contains(&(3, l)));
        }
    }

    #[test]
    fn no_duplicate_pairs_even_with_overlapping_predictions() {
        let (onto, store, _) = setup();
        let resistor = onto.class("http://e.org/c#FixedFilmResistor").unwrap();
        let root = onto.class("http://e.org/c#Component").unwrap();
        // Two rules firing on the same record, one concluding the subclass and
        // one the superclass → extents overlap.
        let rule = |segment: &str, class: ClassId, name: &str| ClassificationRule {
            property: EXT_PN.to_string(),
            segment: segment.to_string(),
            class,
            class_iri: format!("http://e.org/c#{name}"),
            class_label: name.to_string(),
            quality: Contingency::new(100, 10, 20, 10).quality(),
        };
        let classifier = RuleClassifier::new(
            vec![
                rule("crcw0805", resistor, "FixedFilmResistor"),
                rule("10k", root, "Component"),
            ],
            SegmenterKind::Separator,
        );
        let (external, local) = small_stores();
        let pairs = collect_pairs(
            &RuleBasedBlocker::new(&classifier, &store, &onto),
            &external,
            &local,
        );
        let set: HashSet<_> = pairs.iter().copied().collect();
        assert_eq!(set.len(), pairs.len());
    }

    #[test]
    fn sharded_candidates_equal_single_store() {
        // Extent lookups go through each shard's id index and are
        // offset back to global ids; the union must equal the
        // single-store set (with and without the fallback).
        let (onto, store, classifier) = setup();
        let (external_records, local_records) = small_dataset();
        let external = crate::store::RecordStore::from_records(&external_records);
        let local = crate::store::RecordStore::from_records(&local_records);
        for fallback in [false, true] {
            let blocker = RuleBasedBlocker::new(&classifier, &store, &onto).with_fallback(fallback);
            let single = collect_pairs(&blocker, &external, &local);
            for shard_count in [2, 4, 8] {
                let sharded_store =
                    crate::shard::ShardedStore::from_records(&local_records, shard_count);
                let sharded = collect_pairs(&blocker, &external, &sharded_store);
                assert_eq!(sharded, single, "{shard_count} shards, fallback {fallback}");
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let (onto, store, classifier) = setup();
        let blocker = RuleBasedBlocker::new(&classifier, &store, &onto);
        let (e, l) = empty_stores();
        assert!(collect_pairs(&blocker, &e, &l).is_empty());
    }
}
