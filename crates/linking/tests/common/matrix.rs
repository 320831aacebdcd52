//! The one check of the identity chain: probe ≡ batch slice ≡ delta
//! slice ≡ restored catalog ≡ serial run ≡ [`oracle`](super::oracle).
//!
//! [`check`] runs every blocker [`Kind`] it is given ([`kinds`]: cartesian,
//! standard key, sorted neighbourhood, bigram, the rule blocker without
//! and with its fallback) under every comparator, over every [`Layout`]
//! (base shards, then delta shards appended). Per blocker and layout the
//! streamed candidates are the oracle's, through the block
//! representation, and the rule blocker's per-shard emission sequences
//! are the oracle's, unrestricted and delta-restricted. Per cell
//! (blocker × comparator × layout):
//! * full runs at 1 and 4 threads over the single store, the sharded
//!   catalog, the same catalog appended to a base whose
//!   sorted-neighbourhood ladder was built first (*seeded*: the grown
//!   catalog merges only its new shards into the base's ladder) and the
//!   snapshot-restored catalog are the oracle's result, scores compared
//!   bit for bit;
//! * each catalog's delta run is the new-shard slice of that result,
//!   accounting included; a first new shard past the end links nothing
//!   and shard 0 is the full run;
//! * every external's [`Linker`] probe over the catalog restored by
//!   `Linker::snapshot` and `Linker::open` is its slice of the result,
//!   the probes' comparison counts sum to the batch count, and a `swap`
//!   bumps the epoch and changes no answer, through the same warm
//!   `ProbeScratch` and through `Linker::probe`.
//!
//! Under [`Demand::Links`] a cell must not be vacuous: the result holds
//! matches and possibles, the delta slice holds matches, and a 4-thread
//! run has at least `STEAL_BLOCK` = 1 024 candidates, so it takes the
//! work-stealing path. (Below that a 4-thread run is the serial run, and
//! the check skips it.)
//!
//! # Mutations it catches
//!
//! The mutations CHANGES.md records as caught by the suites this harness
//! replaced, each re-run against it in a scratch copy. *matrix*:
//! `identity_matrix` (*prop*: its property cases only); *bigram*:
//! `bigram_filter`; *streaming*: `streaming_blocking` (*paper*: its
//! release-only tests); *lib*: the crate's unit tests.
//!
//! | layer | mutation | caught by |
//! |---|---|---|
//! | non-match filter | Jaro bound too low; negative slack; `needed` forgets later rules | matrix, streaming |
//! | non-match filter | edit bound off by one | prop |
//! | bigram counter | end mask one bit wide, or none; `last` word from `end`; start mask one bit narrow; a plane too few (at powers of two, or live); a list of cut-off − 1 or a row of cut-off (+ 1) loses a posting | bigram, matrix |
//! | bigram counter | size loop from 2 | bigram, prop |
//! | bigram counter | planes capped at 8 | bigram (`more_than_255_…`) |
//! | run prefilter | table entry one too high; `>` for `>=`; `least = shared + 2` | matrix, streaming |
//! | sort ladder | little-endian word; `0xFF` padding; ASCII keeps its case | matrix, paper |
//! | sort ladder | the walk orders equal words by id before string | matrix, paper, lib |
//! | sort ladder | a grown catalog served its parent's ladder, the new shards never merged in | matrix, paper, lib |
//! | rule blocker | no union dedup | streaming (`overlapping_…`), prop |
//! | rule blocker | `push` extends a shared block | lib only: no blocker pushes there |
//! | Jaro pass | the bound fed the match count | paper (the funnel) |

use super::fresh_dir;
use super::oracle::{self, Pairs, Rules};
use classilink_linking::blocking::{
    collect_pairs, BigramBlocker, Blocker, CartesianBlocker, RuleBasedBlocker,
    SortedNeighborhoodBlocker, StandardBlocker,
};
use classilink_linking::pipeline::{Link, LinkageResult};
use classilink_linking::record::Record;
use classilink_linking::{
    AttributeRule, CandidateRuns, LinkagePipeline, Linker, ProbeScratch, RecordComparator,
    RecordStore, ShardedStore, ShardedStoreBuilder,
};
use std::collections::HashMap;

const STEAL_BLOCK: usize = 1024;

/// A catalog as it grows: base shards built, then delta shards appended.
/// Both lists hold at least one (possibly empty) shard: a delta builder
/// with no shard still appends one.
pub struct Layout {
    pub base: Vec<Vec<Record>>,
    pub delta: Vec<Vec<Record>>,
}

impl Layout {
    /// `records` with every tenth one (index ≡ 9 mod 10) held back as a
    /// two-shard delta and the rest cut into `shards` base shards. On the
    /// tiny scenario that delta holds matches in every cell, the rule
    /// blocker's under the five-rule comparator too (four matches in
    /// all, two of them reachable without the fallback).
    pub fn split(records: &[Record], shards: usize) -> Layout {
        let (delta, base): (Vec<_>, Vec<_>) =
            (records.iter().cloned().enumerate()).partition(|(i, _)| i % 10 == 9);
        let chunks = |records: Vec<(usize, Record)>, count: usize| -> Vec<Vec<Record>> {
            let records: Vec<Record> = records.into_iter().map(|(_, r)| r).collect();
            let size = records.len().div_ceil(count).max(1);
            records.chunks(size).map(<[Record]>::to_vec).collect()
        };
        Layout {
            base: chunks(base, shards),
            delta: chunks(delta, 2),
        }
    }
}

/// `shards` pushed into `builder`, one `begin_shard` each.
pub fn fill(mut builder: ShardedStoreBuilder, shards: &[Vec<Record>]) -> ShardedStoreBuilder {
    for shard in shards {
        builder.begin_shard();
        for record in shard {
            builder.push(record);
        }
    }
    builder
}

/// The stores one layout is checked over.
struct Stores {
    /// Base and delta records as one store: the oracle's local side.
    single: RecordStore,
    /// The base built and the delta appended; the same with the base's
    /// sorted-neighbourhood ladder built first, so the grown catalog
    /// starts from it and merges in only the delta shards; then, when the
    /// check restores, the first catalog snapshotted and opened again.
    catalogs: Vec<(&'static str, ShardedStore)>,
    /// The first appended shard.
    first_new: usize,
}

impl Stores {
    fn build(layout: &Layout, restore: bool) -> Stores {
        let base = fill(ShardedStore::builder(), &layout.base).build();
        let catalog = base.append_shards(fill(base.delta_builder(), &layout.delta));
        // The appended catalog IS a from-scratch catalog with the same
        // boundaries (the single store is an honest reference), and the
        // restored one is the appended one.
        let all = [&layout.base[..], &layout.delta[..]].concat();
        let rebuilt = fill(ShardedStore::builder(), &all).build();
        assert_same_catalog(&catalog, &rebuilt, "append against a from-scratch build");
        // The ladder does not depend on the window.
        let seeded = fill(ShardedStore::builder(), &layout.base).build();
        SortedNeighborhoodBlocker::new(super::key(0), 2).warm((&seeded).into());
        let seeded = seeded.append_shards(fill(seeded.delta_builder(), &layout.delta));
        assert_same_catalog(
            &seeded,
            &rebuilt,
            "seeded append against a from-scratch build",
        );
        let mut catalogs = vec![("catalog", catalog), ("seeded", seeded)];
        if restore {
            // Through the serving layer's own snapshot and restart.
            let (dir, cmp) = (fresh_dir("matrix"), super::jw95());
            let linker = Linker::new(&CartesianBlocker, &cmp, catalogs[0].1.clone());
            assert_eq!(linker.snapshot(&dir).expect("snapshot").generation, 1);
            let (opened, report) = Linker::open(&dir, &CartesianBlocker, &cmp).expect("open");
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(report.records, rebuilt.len());
            let restored = opened.catalog().load().store().clone();
            assert_same_catalog(&restored, &rebuilt, "restored against appended");
            catalogs.push(("restored", restored));
        }
        Stores {
            single: RecordStore::from_records(&all.concat()),
            catalogs,
            first_new: base.shard_count(),
        }
    }

    fn catalog(&self) -> &ShardedStore {
        &self.catalogs[0].1
    }

    /// Global id of the first appended record.
    fn delta_start(&self) -> usize {
        self.catalog().offset(self.first_new)
    }
}

/// Same shard boundaries, records and schema. (`==` also compares each
/// shard's own schema snapshot: after an append that grew the schema the
/// old shards keep the shorter one, a rebuilt or restored shard the full
/// one.)
fn assert_same_catalog(actual: &ShardedStore, expected: &ShardedStore, context: &str) {
    assert!(actual.schema() == expected.schema(), "{context}: schema");
    assert_eq!(actual.shard_count(), expected.shard_count(), "{context}");
    for s in 0..expected.shard_count() {
        assert_eq!(actual.offset(s), expected.offset(s), "{context}: {s}");
        let same = actual.shard(s).to_records() == expected.shard(s).to_records();
        assert!(same, "{context}: shard {s} records");
    }
}

/// The matrix's blockers, with the standard key prefix, the
/// sorted-neighbourhood window and the bigram threshold they run at (the
/// last two on whole-value keys), and the rule blocker's fallback.
#[derive(Clone, Copy)]
pub enum Kind {
    Cartesian,
    Standard(usize),
    SortedNeighborhood(usize),
    Bigram(f64),
    Rules(bool),
}

/// The five built-in blockers, the rule blocker without and with its
/// fallback.
pub fn kinds(prefix: usize, window: usize, threshold: f64) -> [Kind; 6] {
    use Kind::*;
    let (sn, bigram) = (SortedNeighborhood(window), Bigram(threshold));
    let (standard, rules, fallback) = (Standard(prefix), Rules(false), Rules(true));
    [Cartesian, standard, sn, bigram, rules, fallback]
}

impl Kind {
    fn blocker<'w>(self, rules: Rules<'w>) -> Box<dyn Blocker + Sync + 'w> {
        use super::key;
        match self {
            Kind::Cartesian => Box::new(CartesianBlocker),
            Kind::Standard(prefix) => Box::new(StandardBlocker::new(key(prefix))),
            Kind::SortedNeighborhood(window) => {
                Box::new(SortedNeighborhoodBlocker::new(key(0), window))
            }
            Kind::Bigram(threshold) => Box::new(BigramBlocker::new(key(0), threshold)),
            Kind::Rules(fallback) => Box::new(
                RuleBasedBlocker::new(rules.classifier, rules.instances, rules.ontology)
                    .with_fallback(fallback),
            ),
        }
    }

    fn oracle(self, rules: Rules<'_>, external: &RecordStore, local: &RecordStore) -> Pairs {
        use super::key;
        match self {
            Kind::Cartesian => oracle::cartesian(external, local),
            Kind::Standard(prefix) => oracle::standard(&key(prefix), external, local),
            Kind::SortedNeighborhood(window) => {
                oracle::sorted_neighborhood(&key(0), window, external, local)
            }
            Kind::Bigram(threshold) => {
                oracle::bigram(&key(0), &[threshold], external, local).remove(0)
            }
            Kind::Rules(fallback) => {
                // The one-shard emission sequence, order forgotten.
                let mut sequence = oracle::rule_sequences(rules, fallback, external, local.into());
                oracle::sorted(sequence.swap_remove(0).0)
            }
        }
    }
}

/// How much a case must show (see the module documentation).
#[derive(Clone, Copy, PartialEq)]
pub enum Demand {
    Nothing,
    Links,
}

/// The check. Every layout must hold the same records in the same order
/// (the oracle runs once, over the first layout's single store); with
/// `restore`, every layout's catalog is also snapshotted, opened again
/// and checked like the one in memory.
pub fn check(
    external: &RecordStore,
    rules: Rules<'_>,
    kinds: &[Kind],
    (layouts, restore): (&[Layout], bool),
    comparators: &[(&str, RecordComparator)],
    demand: Demand,
) {
    let stores: Vec<Stores> = layouts.iter().map(|l| Stores::build(l, restore)).collect();
    let single = &stores[0].single;
    let delta_start = stores[0].delta_start();
    for other in &stores[1..] {
        assert!(other.single == *single && other.delta_start() == delta_start);
    }
    // Naive rule similarities, each (rule, pair) computed once: a rule is
    // its measure and properties, whichever comparator holds it.
    let mut rule_ids: HashMap<String, usize> = HashMap::new();
    let rule_ids: Vec<Vec<usize>> = (comparators.iter())
        .map(|(_, cmp)| {
            let id = |r: &AttributeRule| {
                let key = format!("{:?} {} {}", r.measure, r.left_property, r.right_property);
                let next = rule_ids.len();
                *rule_ids.entry(key).or_insert(next)
            };
            cmp.rules.iter().map(id).collect()
        })
        .collect();
    let mut similarities: HashMap<(usize, usize, usize), Option<f64>> = HashMap::new();
    for &kind in kinds {
        let blocker = &*kind.blocker(rules);
        let name = blocker.name();
        let candidates = kind.oracle(rules, external, single);
        for st in &stores {
            check_candidates(kind, blocker, rules, external, st, &candidates, demand);
        }
        let threads: &[usize] = match candidates.len() >= STEAL_BLOCK {
            true => &[1, 4],
            false => &[1],
        };
        // The cells of a blocker are independent: check them side by side.
        std::thread::scope(|scope| {
            for ((label, cmp), ids) in comparators.iter().zip(&rule_ids) {
                let context = format!("{name} / {label}");
                // The full result, and what a delta run from the first
                // appended record must reproduce: the delta's candidates,
                // scored the same way.
                let mut result = |from: usize| {
                    let candidates = candidates.iter().copied().filter(|&(_, l)| l >= from);
                    let naive_pairs = (external.len() * (single.len() - from)) as u64;
                    oracle::result(external, single, candidates, naive_pairs, |e, l| {
                        let mut ids = ids.iter();
                        oracle::score_pair_with(cmp, external, e, single, l, |rule| {
                            let id = *ids.next().expect("one id a rule");
                            let naive = || oracle::rule_similarity(rule, external, e, single, l);
                            *similarities.entry((id, e, l)).or_insert_with(naive)
                        })
                    })
                };
                let (expected, delta) = (result(0), result(delta_start));
                if demand == Demand::Links {
                    let (matches, possible) = (&expected.matches, &expected.possible);
                    assert!(!matches.is_empty(), "{context}: no matches — vacuous");
                    assert!(!possible.is_empty(), "{context}: no possibles — vacuous");
                    let linked = !delta.matches.is_empty();
                    assert!(linked, "{context}: no delta matches — vacuous");
                    let reach = candidates.len() >= STEAL_BLOCK;
                    assert!(reach, "{context}: 4 threads never steal");
                }
                let expected = std::sync::Arc::new((expected, delta));
                for (i, st) in stores.iter().enumerate() {
                    let new = st.catalog().shard_count() - st.first_new;
                    let context = format!("{context} / {} + {new} shards", st.first_new);
                    let expected = expected.clone();
                    scope.spawn(move || {
                        // The single store is every layout's: run it once.
                        for &threads in threads.iter().filter(|_| i == 0) {
                            let pipeline = LinkagePipeline::new(blocker, cmp).with_threads(threads);
                            let result = pipeline.run_sharded(external, single);
                            let context = format!("{context}: single store / {threads} threads");
                            assert_same_result(&result, &expected.0, &context);
                        }
                        check_runs(blocker, cmp, external, st, &expected, threads, &context);
                        // Probes are served from the restored catalog.
                        let (_, served) = st.catalogs.last().expect("the catalog");
                        let linker = Linker::new(blocker, cmp, served.clone());
                        assert_probes_match(&linker, external, &expected.0, &context);
                    });
                }
            }
        });
    }
}

/// Streamed candidates, single store and every catalog, are the oracle's;
/// the rule blocker's emission sequences are the oracle's per shard.
fn check_candidates(
    kind: Kind,
    blocker: &dyn Blocker,
    rules: Rules<'_>,
    external: &RecordStore,
    st: &Stores,
    candidates: &Pairs,
    demand: Demand,
) {
    let name = blocker.name();
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(external, (&st.single).into(), &mut runs);
    assert_block_invariants(&runs, name);
    let mut streamed: Pairs = runs.pairs(0).collect();
    streamed.sort_unstable();
    assert!(streamed == *candidates, "{name}: single-store candidates");
    // Key-driven blockers coalesce one block per (shard, external): while
    // runs hold several records (the tiny scenario's do), blocks never
    // outweigh the flat encoding.
    if demand == Demand::Links && !matches!(kind, Kind::Cartesian | Kind::Rules(_)) {
        let (queue, flat) = (runs.queue_bytes(), runs.pair_bytes());
        assert!(queue <= flat, "{name}: {queue} queue bytes > {flat}");
    }
    for (side, catalog) in &st.catalogs {
        let context = format!("{name}: {side} of {} shards", catalog.shard_count());
        blocker.stream_candidates(external, catalog.into(), &mut runs);
        assert_eq!(runs.total() as usize, candidates.len(), "{context}");
        assert_block_invariants(&runs, &context);
        // `collect_pairs` is sorted and duplicate-free, like the oracle.
        let collected = collect_pairs(blocker, external, catalog);
        assert!(collected == *candidates, "{context}: candidates");
    }
    if let Kind::Rules(fallback) = kind {
        let first_actives = [0, st.first_new, st.catalog().shard_count()];
        assert_rule_sequences_match(rules, fallback, external, st.catalog(), &first_actives);
    }
}

/// Full runs over every catalog and the delta run, against the oracle.
fn check_runs(
    blocker: &(dyn Blocker + Sync),
    cmp: &RecordComparator,
    external: &RecordStore,
    st: &Stores,
    (expected, expected_delta): &(LinkageResult, LinkageResult),
    threads: &[usize],
    context: &str,
) {
    let catalog = st.catalog();
    for &threads in threads {
        let pipeline = LinkagePipeline::new(blocker, cmp).with_threads(threads);
        for (side, store) in &st.catalogs {
            // The catalog's full run at one thread goes through the
            // degenerate delta bound, first new shard 0: the body
            // `run_sharded` delegates to.
            let result = match (*side, threads) {
                ("catalog", 1) => pipeline.run_sharded_delta(external, store, 0),
                _ => pipeline.run_sharded(external, store),
            };
            let context = format!("{context}: {side} / {threads} threads");
            assert_same_result(&result, expected, &context);
        }
        for (side, store) in &st.catalogs {
            let context = format!("{context}: {side} delta / {threads} threads");
            let delta = pipeline.run_sharded_delta(external, store, st.first_new);
            assert_same_result(&delta, expected_delta, &context);
        }
        let context = format!("{context}: delta / {threads} threads");
        // The other degenerate bound: past the end is an empty delta.
        let empty = pipeline.run_sharded_delta(external, catalog, catalog.shard_count());
        let nothing =
            empty.comparisons == 0 && empty.matches.is_empty() && empty.possible.is_empty();
        assert!(nothing, "{context}: the delta past the end did work");
    }
}

/// Every external's probe is its slice of `expected`, and the probes'
/// comparison counts sum to its count; after a swap the convenience path
/// answers the same.
pub fn assert_probes_match(
    linker: &Linker<'_>,
    external: &RecordStore,
    expected: &LinkageResult,
    context: &str,
) {
    let matches = per_external(&expected.matches, external);
    let possible = per_external(&expected.possible, external);
    let mut scratch = ProbeScratch::new();
    let mut comparisons = 0u64;
    for e in 0..external.len() {
        let hits = linker.probe_with(&external.record(e), &mut scratch);
        let context = format!("{context}: probe {e}");
        assert_eq!(hits.epoch, 1, "{context}: initial epoch");
        assert_same_links(&hits.matches, matches[e], &format!("{context}, matches"));
        assert_same_links(&hits.possible, possible[e], &format!("{context}, possible"));
        comparisons += hits.comparisons;
    }
    let batch = expected.comparisons;
    assert_eq!(comparisons, batch, "{context}: probe comparisons");
    // Swapping in the same catalog bumps the epoch without changing any
    // answer. Every sixteenth external asks again with the same warm
    // scratch, then through the convenience path (a full second pass
    // would cost the suite a tenth of its time).
    let catalog = linker.catalog().load().store().clone();
    assert_eq!(linker.swap(catalog), 2, "{context}: swap sequence");
    let served = linker.catalog().load().sequence();
    assert_eq!(served, 2, "{context}: served epoch");
    for e in (0..external.len()).step_by(16) {
        let record = external.record(e);
        let hits = linker.probe_with(&record, &mut scratch);
        let context = format!("{context}: post-swap probe {e}");
        assert_eq!(hits.epoch, 2, "{context}: epoch");
        assert_same_links(&hits.matches, matches[e], &format!("{context}, matches"));
        assert_same_links(&hits.possible, possible[e], &format!("{context}, possible"));
        let convenience = linker.probe(&record);
        assert_same_links(&convenience, matches[e], &format!("{context}, probe"));
    }
}

/// `links` (sorted by external index) cut into one slice per external.
fn per_external<'r>(links: &'r [Link], external: &RecordStore) -> Vec<&'r [Link]> {
    let mut slices = vec![&links[..0]; external.len()];
    for run in links.chunk_by(|a, b| a.external == b.external) {
        let e = external.index_of(&run[0].external);
        slices[e.expect("a linked external")] = run;
    }
    slices
}

/// Same terms, same score bits, same order.
pub fn assert_same_links(actual: &[Link], expected: &[Link], context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}: link count");
    for (a, b) in actual.iter().zip(expected) {
        let same = a.external == b.external && a.local == b.local;
        assert!(
            same && a.score.to_bits() == b.score.to_bits(),
            "{context}: {a:?} against {b:?}"
        );
    }
}

/// [`assert_same_links`] on both link lists, and the same accounting.
pub fn assert_same_result(actual: &LinkageResult, expected: &LinkageResult, context: &str) {
    let links = |a, b, kind| assert_same_links(a, b, &format!("{context}, {kind}"));
    links(&actual.matches, &expected.matches, "matches");
    links(&actual.possible, &expected.possible, "possible");
    let accounting =
        |r: &LinkageResult| (r.comparisons, r.naive_pairs, r.reduction_ratio.to_bits());
    let (actual, expected) = (accounting(actual), accounting(expected));
    assert_eq!(actual, expected, "{context}: accounting");
}

/// Structural invariants of the run-block representation: per shard,
/// the block lengths sum to the shard total (and the totals to the sink
/// total), and every block decodes to exactly `len` pairs — so the pair
/// sets asserted above really did travel through the compressed
/// encoding, not around it.
pub fn assert_block_invariants(runs: &CandidateRuns, context: &str) {
    let mut total = 0u64;
    for shard in 0..runs.shard_count() {
        let mut shard_total = 0u64;
        for (index, block) in runs.blocks(shard).iter().enumerate() {
            let (external, run) = runs.run(shard, index);
            assert!(!block.is_empty(), "{context}: empty block emitted");
            assert_eq!(external, block.external(), "{context}: external");
            assert_eq!(run.len(), block.len(), "{context}: run/block length");
            assert_eq!(run.iter().count(), run.len(), "{context}: iterator length");
            shard_total += block.len() as u64;
        }
        let expected = runs.shard_total(shard);
        assert_eq!(shard_total, expected, "{context}: shard {shard}");
        total += shard_total;
    }
    assert_eq!(total, runs.total(), "{context}: sink total");
}

/// For each `first_active`, stream the rule blocker into a sink
/// restricted to shards `first_active..` and assert every shard's decoded
/// pair **sequence** and block count equal the oracle's (nothing for the
/// inactive shards). Returns the unrestricted total.
pub fn assert_rule_sequences_match(
    rules: Rules<'_>,
    fallback: bool,
    external: &RecordStore,
    local: &ShardedStore,
    first_actives: &[usize],
) -> u64 {
    let blocker = RuleBasedBlocker::new(rules.classifier, rules.instances, rules.ontology)
        .with_fallback(fallback);
    let reference = oracle::rule_sequences(rules, fallback, external, local.into());
    let mut runs = CandidateRuns::new();
    for &first_active in first_actives {
        runs.restrict_to_shards_from(first_active);
        blocker.stream_candidates(external, local.into(), &mut runs);
        let shards = local.shard_count();
        let context = format!("{shards} shards from {first_active}, fallback {fallback}");
        for (s, (pairs, blocks)) in reference.iter().enumerate() {
            let context = format!("{context}: shard {s}");
            if s < first_active {
                assert_eq!(runs.shard_total(s), 0, "{context} is inactive");
                assert!(runs.blocks(s).is_empty(), "{context} is inactive");
            } else {
                assert!(
                    runs.pairs(s).eq(pairs.iter().copied()),
                    "{context}: sequence"
                );
                assert_eq!(runs.blocks(s).len(), *blocks, "{context}: block count");
            }
        }
        let active = reference[first_active.min(reference.len())..].iter();
        let total: usize = active.map(|(pairs, _)| pairs.len()).sum();
        assert_eq!(runs.total(), total as u64, "{context}: total");
    }
    reference.iter().map(|(pairs, _)| pairs.len() as u64).sum()
}
