//! The delta-linking equivalence guard: on a generated scenario, a
//! catalog grown by [`ShardedStore::append_shards`] and linked
//! incrementally with [`LinkagePipeline::run_sharded_delta`] produces
//! **exactly the new-shard slice of a full re-run** — same links, same
//! scores bit for bit (`f64::to_bits`) — for every built-in blocker
//! (cartesian, standard key, sorted neighbourhood, bigram indexing,
//! classification rules), across {1, 3, 8} base shards × {1, 4}
//! threads. Also pins the append algebra itself: an appended catalog
//! equals a from-scratch build with the same shard boundaries, so the
//! full re-run used as the reference is the honest one.

use classilink_datagen::scenario::{generate, GeneratedScenario, ScenarioConfig};
use classilink_linking::blocking::{
    BigramBlocker, Blocker, CartesianBlocker, RuleBasedBlocker, SortedNeighborhoodBlocker,
    StandardBlocker,
};
use classilink_linking::pipeline::Link;
use classilink_linking::record::Record;
use classilink_linking::{LinkagePipeline, ShardedStore};

mod common;
use common::{bits, classifier, comparator, key};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Grow `base` by the delta records as two appended shards and return
/// `(appended catalog, first new shard index)`.
fn append(base: &ShardedStore, delta_records: &[Record]) -> (ShardedStore, usize) {
    let first_new = base.shard_count();
    let mut delta = base.delta_builder();
    let half = delta_records.len().div_ceil(2).max(1);
    for (i, record) in delta_records.iter().enumerate() {
        if i % half == 0 {
            delta.begin_shard();
        }
        delta.push(record);
    }
    (base.append_shards(delta), first_new)
}

/// The guard: for every base shard count and thread count, the delta
/// run over the appended catalog equals the ≥-first-new-shard slice of
/// the full run, links and accounting both.
fn assert_delta_equals_full_slice(scenario: &GeneratedScenario, blocker: &dyn Blocker) {
    let external = scenario.external_store();
    let locals = scenario.local_store().to_records();
    // ~10% of the catalog arrives as the delta batch — sampled across
    // the whole catalog (not the tail) so the delta is guaranteed to
    // contain linked records and the guard can't go vacuous.
    let (base_records, delta_records): (Vec<Record>, Vec<Record>) = {
        let mut base = Vec::new();
        let mut delta = Vec::new();
        for (i, record) in locals.iter().enumerate() {
            if i % 10 == 7 {
                delta.push(record.clone());
            } else {
                base.push(record.clone());
            }
        }
        (base, delta)
    };
    let cmp = comparator();

    for shard_count in SHARD_COUNTS {
        let base = ShardedStore::from_records(&base_records, shard_count);
        let (appended, first_new) = append(&base, &delta_records);

        // The appended catalog IS a from-scratch catalog with the same
        // boundaries — the full re-run below is an honest reference.
        let mut rebuilt = ShardedStore::builder();
        for s in 0..appended.shard_count() {
            rebuilt.begin_shard();
            for record in appended.shard(s).to_records() {
                rebuilt.push(&record);
            }
        }
        assert_eq!(appended, rebuilt.build(), "append != from-scratch build");

        let delta_start = appended.offset(first_new);
        for threads in THREAD_COUNTS {
            let pipeline = LinkagePipeline::new(blocker, &cmp).with_threads(threads);
            let full = pipeline.run_sharded(&external, &appended);
            let delta = pipeline.run_sharded_delta(&external, &appended, first_new);

            // The full run's links with a local side in the new shards.
            let slice = |links: &[Link]| -> Vec<(String, String, u64)> {
                links
                    .iter()
                    .filter(|link| {
                        appended
                            .index_of(&link.local)
                            .expect("full-run link local is in the catalog")
                            >= delta_start
                    })
                    .map(bits)
                    .collect()
            };
            let context = format!(
                "{}: {shard_count} base shards / {threads} threads",
                blocker.name()
            );
            let delta_matches: Vec<_> = delta.matches.iter().map(bits).collect();
            let delta_possible: Vec<_> = delta.possible.iter().map(bits).collect();
            assert_eq!(delta_matches, slice(&full.matches), "{context}: matches");
            assert_eq!(delta_possible, slice(&full.possible), "{context}: possible");
            assert!(
                !delta_matches.is_empty(),
                "{context}: no delta links — the guard would be vacuous"
            );

            // Accounting covers only the delta work.
            assert_eq!(
                delta.naive_pairs,
                external.len() as u64 * (appended.len() - delta_start) as u64,
                "{context}: naive pairs"
            );
            assert!(
                delta.comparisons <= full.comparisons,
                "{context}: delta compared more than the full run"
            );

            // Degenerate bounds: an at-or-past-the-end first shard is an
            // empty delta; first shard 0 is exactly the full run.
            let empty = pipeline.run_sharded_delta(&external, &appended, appended.shard_count());
            assert_eq!(empty.comparisons, 0, "{context}: empty delta compared");
            assert!(empty.matches.is_empty() && empty.possible.is_empty());
            let everything = pipeline.run_sharded_delta(&external, &appended, 0);
            assert_eq!(everything, full, "{context}: first_new_shard = 0");
        }
    }
}

#[test]
fn cartesian_delta_equals_full_slice() {
    let scenario = generate(&ScenarioConfig::tiny());
    assert_delta_equals_full_slice(&scenario, &CartesianBlocker);
}

#[test]
fn standard_delta_equals_full_slice() {
    let scenario = generate(&ScenarioConfig::tiny());
    assert_delta_equals_full_slice(&scenario, &StandardBlocker::new(key(4)));
}

#[test]
fn sorted_neighborhood_delta_equals_full_slice() {
    // The one blocker whose window walk crosses shard boundaries: the
    // delta restriction must not change which new-shard records fall
    // inside each external's window.
    let scenario = generate(&ScenarioConfig::tiny());
    assert_delta_equals_full_slice(&scenario, &SortedNeighborhoodBlocker::new(key(0), 7));
}

#[test]
fn bigram_delta_equals_full_slice() {
    let scenario = generate(&ScenarioConfig::tiny());
    assert_delta_equals_full_slice(&scenario, &BigramBlocker::new(key(0), 0.5));
}

#[test]
fn rule_based_delta_equals_full_slice() {
    let scenario = generate(&ScenarioConfig::tiny());
    let classifier = classifier(&scenario);
    for fallback in [false, true] {
        let blocker = RuleBasedBlocker::new(&classifier, &scenario.instances, &scenario.ontology)
            .with_fallback(fallback);
        assert_delta_equals_full_slice(&scenario, &blocker);
    }
}
