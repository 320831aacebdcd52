//! Class-disjointness filtering.
//!
//! Related work of the paper: "In [Saïs et al. 2009], class disjunctions are
//! used to reduce the reconciliation space but such approaches cannot be used
//! when the data that will be integrated are not described using the ontology
//! vocabulary." The filter below implements that idea for completeness: given
//! class assignments on both sides, candidate pairs whose classes are
//! declared disjoint are removed. In the paper's setting the external classes
//! are unknown, which is exactly the gap the classification rules fill — the
//! benchmarks use this filter only in the oracle ablation.

use super::CandidateRuns;
use crate::shard::LocalShards;
use classilink_ontology::{ClassId, Ontology};

/// Removes candidate pairs whose two sides belong to disjoint classes.
#[derive(Debug, Clone)]
pub struct DisjointnessFilter<'a> {
    ontology: &'a Ontology,
}

impl<'a> DisjointnessFilter<'a> {
    /// A filter over the given ontology.
    pub fn new(ontology: &'a Ontology) -> Self {
        DisjointnessFilter { ontology }
    }

    /// `true` when the pair of class sets is compatible (no declared
    /// disjointness between any external class and any local class). Items
    /// with unknown classes (empty slices) are always compatible — without
    /// schema knowledge nothing can be pruned.
    pub fn compatible(&self, external_classes: &[ClassId], local_classes: &[ClassId]) -> bool {
        for e in external_classes {
            for l in local_classes {
                if self.ontology.are_disjoint(*e, *l) {
                    return false;
                }
            }
        }
        true
    }

    /// Drop the incompatible pairs from a [`CandidateRuns`] sink in
    /// place. `external_classes[e]` gives the classes of external record
    /// `e`; per-shard local ids are offset to the **global** ids that
    /// index `local_classes`. A record outside either table has unknown
    /// classes. Every candidate block is decoded, filtered, and
    /// the survivors re-encoded as explicit runs (a filtered span or
    /// key range is no longer contiguous); the sink's comparison total
    /// is updated, so the filtered runs can feed the pipeline's task
    /// queues directly.
    pub fn retain_runs(
        &self,
        runs: &mut CandidateRuns,
        local: LocalShards<'_>,
        external_classes: &[Vec<ClassId>],
        local_classes: &[Vec<ClassId>],
    ) {
        runs.retain(|shard, e, l| {
            let global = local.offset(shard) + l;
            let ext = external_classes.get(e).map(Vec::as_slice).unwrap_or(&[]);
            let loc = local_classes.get(global).map(Vec::as_slice).unwrap_or(&[]);
            self.compatible(ext, loc)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{collect_pairs, Blocker, CandidatePair, CartesianBlocker};
    use crate::record::Record;
    use crate::shard::ShardedStore;
    use crate::store::RecordStore;
    use classilink_ontology::OntologyBuilder;
    use classilink_rdf::Term;

    fn ontology() -> (Ontology, ClassId, ClassId, ClassId) {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let component = b.class("Component", None);
        let resistor = b.class("Resistor", Some(component));
        let capacitor = b.class("Capacitor", Some(component));
        b.disjoint(resistor, capacitor);
        (b.build(), component, resistor, capacitor)
    }

    /// `candidates` pushed into a one-shard sink (shard-local ids are
    /// global ids), filtered, and decoded again.
    fn retained(
        filter: &DisjointnessFilter<'_>,
        candidates: &[CandidatePair],
        external_classes: &[Vec<ClassId>],
        local_classes: &[Vec<ClassId>],
    ) -> Vec<CandidatePair> {
        let store = RecordStore::from_records(&[]);
        let mut runs = CandidateRuns::new();
        runs.reset(1);
        for &(e, l) in candidates {
            runs.push(0, e, l);
        }
        filter.retain_runs(&mut runs, (&store).into(), external_classes, local_classes);
        assert_eq!(runs.total(), runs.pairs(0).count() as u64);
        runs.pairs(0).collect()
    }

    #[test]
    fn disjoint_pairs_are_removed() {
        let (onto, _, resistor, capacitor) = ontology();
        let filter = DisjointnessFilter::new(&onto);
        let candidates = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let external_classes = vec![vec![resistor], vec![capacitor]];
        let local_classes = vec![vec![resistor], vec![capacitor]];
        let kept = retained(&filter, &candidates, &external_classes, &local_classes);
        assert_eq!(kept, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn unknown_classes_are_never_pruned() {
        let (onto, _, resistor, _) = ontology();
        let filter = DisjointnessFilter::new(&onto);
        let candidates = vec![(0, 0), (0, 1)];
        let external_classes = vec![vec![]];
        let local_classes = vec![vec![resistor], vec![]];
        let kept = retained(&filter, &candidates, &external_classes, &local_classes);
        assert_eq!(kept, candidates);
        assert!(filter.compatible(&[], &[resistor]));
    }

    #[test]
    fn compatible_classes_pass() {
        let (onto, component, resistor, _) = ontology();
        let filter = DisjointnessFilter::new(&onto);
        assert!(filter.compatible(&[resistor], &[component]));
        assert!(filter.compatible(&[resistor], &[resistor]));
    }

    #[test]
    fn retain_runs_indexes_local_classes_by_global_id() {
        let (onto, _, resistor, capacitor) = ontology();
        let filter = DisjointnessFilter::new(&onto);
        let records: Vec<Record> = (0..5)
            .map(|i| Record::new(Term::iri(format!("http://e.org/item/{i}"))))
            .collect();
        let external = RecordStore::from_records(&records[..2]);
        let sharded = ShardedStore::from_records(&records, 2);
        let external_classes = vec![vec![resistor], vec![capacitor]];
        let local_classes: Vec<Vec<ClassId>> = (0..5)
            .map(|l| vec![if l % 2 == 0 { resistor } else { capacitor }])
            .collect();

        let mut runs = CandidateRuns::new();
        CartesianBlocker.stream_candidates(&external, (&sharded).into(), &mut runs);
        filter.retain_runs(
            &mut runs,
            (&sharded).into(),
            &external_classes,
            &local_classes,
        );
        let mut streamed: Vec<CandidatePair> = Vec::new();
        for s in 0..sharded.shard_count() {
            streamed.extend(runs.pairs(s).map(|(e, l)| (e, sharded.global(s, l))));
        }
        streamed.sort_unstable();
        assert_eq!(runs.total(), streamed.len() as u64);

        let expected: Vec<CandidatePair> = collect_pairs(&CartesianBlocker, &external, &sharded)
            .into_iter()
            .filter(|&(e, l)| filter.compatible(&external_classes[e], &local_classes[l]))
            .collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn out_of_range_indexes_default_to_unknown() {
        let (onto, _, resistor, capacitor) = ontology();
        let filter = DisjointnessFilter::new(&onto);
        let candidates = vec![(5, 7)];
        let kept = retained(&filter, &candidates, &[vec![resistor]], &[vec![capacitor]]);
        assert_eq!(kept, candidates);
    }
}
