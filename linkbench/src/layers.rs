//! The per-layer account of a traced run.
//!
//! Two sources. Spans recorded in the traced cycles give the time of every
//! call the bench makes into a layer. For the calls it cannot see inside
//! (`run_sharded`, `FeedIngest::feed`, `Linker::open`, `RuleLearner::learn`)
//! the inner layers are replayed here on their own through their public
//! functions, and the enclosing layer's self time is the black-box span
//! minus the replayed parts. Durations are the raw minimum over
//! repetitions: they are compared with each other inside one run, so,
//! unlike the end-to-end ones, they are not divided by the host's slowdown.

use crate::inputs::{self, Inputs, CHUNK, SHARDS};
use crate::procfs::Usage;
use crate::report::{Kind, Record};
use crate::stats;
use crate::workload::{self, Agg, BlockerKind, Ctx, Meter, Refs};
use classilink_bench::paper_learner;
use classilink_core::{
    generalize, prune_hierarchy_redundant, GeneralizeConfig, HierarchyPreference, RuleLearner,
    TrainingSet,
};
use classilink_eval::table1::{EvaluationItem, Table1Experiment};
use classilink_linking::blocking::Blocker;
use classilink_linking::{
    CandidateRuns, CatalogSnapshot, LeftHoist, LinkagePipeline, Linker, LocalRun, MatchDecision,
    RecordStore, ShardedStore, SimScratch, SimilarityMeasure,
};
use classilink_ontology::ClassId;
use classilink_rdf::{NTriplesStreamer, Term, Triple, TurtleStreamer};
use classilink_segment::Normalizer;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// `(name, unit, better)` of every per-layer metric, grouped by layer.
pub const PER_LAYER: [(&str, &str, &str); 113] = [
    ("rdf.ntriples.parse_s", "s", "lower"),
    ("rdf.ntriples.mb_per_s", "MB/s", "higher"),
    ("rdf.turtle.parse_s", "s", "lower"),
    ("rdf.turtle.mb_per_s", "MB/s", "higher"),
    ("rdf.triples", "count", "higher"),
    ("rdf.peak_buffered_bytes", "bytes", "lower"),
    ("ingest.feed_s", "s", "lower"),
    ("ingest.self_s", "s", "lower"),
    ("ingest.records", "count", "higher"),
    ("ingest.delta_feed_ms", "ms", "lower"),
    ("shard.build_s", "s", "lower"),
    ("shard.records_per_s", "1/s", "higher"),
    ("shard.append_ms", "ms", "lower"),
    ("token_index.key_build_s", "s", "lower"),
    ("token_index.token_build_s", "s", "lower"),
    ("token_index.bigram_warm_s", "s", "lower"),
    ("blocking.stream_s", "s", "lower"),
    ("blocking.cand_per_s", "1/s", "higher"),
    ("blocking.candidates", "count", "lower"),
    ("blocking.blocks", "count", "lower"),
    ("blocking.queue_bytes", "bytes", "lower"),
    ("blocking.pairs_completeness", "ratio", "higher"),
    ("blocking.bigram.postings_skipped_length", "count", "higher"),
    ("blocking.bigram.grams_skipped_prefix", "count", "higher"),
    (
        "blocking.bigram.postings_skipped_position",
        "count",
        "higher",
    ),
    ("blocking.bigram.verify_merges", "count", "lower"),
    ("blocking.bigram.verify_hit_ratio", "ratio", "higher"),
    ("blocking.rules.classify_s", "s", "lower"),
    ("blocking.rules.extent_self_s", "s", "lower"),
    ("blocking.rules.classified_share", "ratio", "higher"),
    ("comparator.replay_s", "s", "lower"),
    ("comparator.hoist_s", "s", "lower"),
    ("comparator.aggregate_self_s", "s", "lower"),
    ("comparator.ns_per_cmp", "ns", "lower"),
    ("comparator.matches", "count", "higher"),
    ("comparator.possible", "count", "lower"),
    ("comparator.useful_share", "ratio", "higher"),
    ("similarity.kernel_s", "s", "lower"),
    ("similarity.bytes_per_cmp", "bytes", "lower"),
    ("similarity.kernel_floor_share", "ratio", "higher"),
    ("similarity.levenshtein.scratch_ns", "ns", "lower"),
    ("similarity.levenshtein.alloc_ns", "ns", "lower"),
    ("similarity.damerau-levenshtein.scratch_ns", "ns", "lower"),
    ("similarity.damerau-levenshtein.alloc_ns", "ns", "lower"),
    ("similarity.jaro.scratch_ns", "ns", "lower"),
    ("similarity.jaro.alloc_ns", "ns", "lower"),
    ("similarity.jaro-winkler.scratch_ns", "ns", "lower"),
    ("similarity.jaro-winkler.alloc_ns", "ns", "lower"),
    ("similarity.jaccard-tokens.scratch_ns", "ns", "lower"),
    ("similarity.jaccard-tokens.alloc_ns", "ns", "lower"),
    ("similarity.jaccard-chars.scratch_ns", "ns", "lower"),
    ("similarity.jaccard-chars.alloc_ns", "ns", "lower"),
    ("similarity.dice-bigrams.scratch_ns", "ns", "lower"),
    ("similarity.dice-bigrams.alloc_ns", "ns", "lower"),
    ("similarity.monge-elkan.scratch_ns", "ns", "lower"),
    ("similarity.monge-elkan.alloc_ns", "ns", "lower"),
    ("pipeline.link_serial_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.parallel_speedup", "ratio", "higher"),
    ("pipeline.comparisons", "count", "lower"),
    ("pipeline.links", "count", "higher"),
    ("pipeline.delta_link_ms", "ms", "lower"),
    ("pipeline.feed.pair_precision", "ratio", "higher"),
    ("pipeline.feed.pair_recall", "ratio", "higher"),
    ("pipeline.feed.reduction_ratio", "ratio", "higher"),
    ("serve.linker_new_s", "s", "lower"),
    ("serve.probe.mean_us", "us", "lower"),
    ("serve.probe.p10_us", "us", "lower"),
    ("serve.probe.cand_p50", "count", "lower"),
    ("serve.probe.cand_p99", "count", "lower"),
    ("serve.probe.ns_per_cand", "ns", "lower"),
    ("serve.probe.links", "count", "higher"),
    ("serve.append.records_per_s", "1/s", "higher"),
    ("serve.swap_s", "s", "lower"),
    ("serve.epochs", "count", "higher"),
    ("serve.open_warm_ms", "ms", "lower"),
    ("persist.write_ms", "ms", "lower"),
    ("persist.write_mb_per_s", "MB/s", "higher"),
    ("persist.open_ms", "ms", "lower"),
    ("persist.open_mb_per_s", "MB/s", "higher"),
    ("persist.snapshot_bytes", "bytes", "lower"),
    ("persist.bytes_per_feed_byte", "ratio", "lower"),
    ("persist.incremental_bytes", "bytes", "lower"),
    ("persist.shards_reused", "count", "higher"),
    ("persist.recovery_fallback_ms", "ms", "lower"),
    ("segment.split_ms", "ms", "lower"),
    ("segment.distinct_segments", "count", "lower"),
    ("segment.occurrences", "count", "lower"),
    ("core.count_self_ms", "ms", "lower"),
    ("core.rules", "count", "higher"),
    ("core.frequent_classes", "count", "higher"),
    ("core.classes_with_rules", "count", "higher"),
    ("core.classify_us_per_item", "us", "lower"),
    ("core.learn_x10_ms", "ms", "lower"),
    ("core.generalize_ms", "ms", "lower"),
    ("core.prune_ms", "ms", "lower"),
    ("ontology.extent_ms", "ms", "lower"),
    ("ontology.extent_items", "count", "lower"),
    ("eval.table1.precision_c1.0", "ratio", "higher"),
    ("eval.table1.recall_c1.0", "ratio", "higher"),
    ("eval.table1.precision_c0.8", "ratio", "higher"),
    ("eval.table1.recall_c0.8", "ratio", "higher"),
    ("eval.table1.precision_c0.6", "ratio", "higher"),
    ("eval.table1.recall_c0.6", "ratio", "higher"),
    ("eval.table1.precision_c0.4", "ratio", "higher"),
    ("eval.table1.recall_c0.4", "ratio", "higher"),
    ("proc.user_cpu_s", "s", "lower"),
    ("proc.sys_cpu_s", "s", "lower"),
    ("proc.minor_faults", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.account_residual_share", "ratio", "lower"),
    ("host.calibration_ms", "ms", "lower"),
];

/// One run at the legacy `paper_scale/pipeline/*` operating point, measured
/// on `batch_standard` only and not declared in `BENCHMARK.json`: it takes
/// 6 to 35 s and 1.2 GB, and gates nothing.
pub const DENSE_REFERENCE: [(&str, &str, &str); 2] = [
    ("pipeline.dense_output_s", "s", "lower"),
    ("pipeline.dense_links", "count", "lower"),
];

/// The layer metrics gathered so far, by name.
#[derive(Default)]
struct Account(BTreeMap<String, Vec<f64>>);

impl Account {
    /// A duration (or anything else whose compared value is its quietest
    /// sample) and its samples.
    fn put_samples(&mut self, name: &str, samples: &[f64]) -> f64 {
        debug_assert!(
            PER_LAYER
                .iter()
                .chain(&DENSE_REFERENCE)
                .any(|d| d.0 == name),
            "{name} is not declared"
        );
        self.0.insert(name.to_string(), samples.to_vec());
        stats::min(samples)
    }

    fn put(&mut self, name: &str, value: f64) {
        self.put_samples(name, &[value]);
    }

    fn records(self, workload: &str) -> Vec<Record> {
        PER_LAYER
            .iter()
            .map(|&declared| {
                (
                    declared,
                    self.0.get(declared.0).map_or(&[][..], Vec::as_slice),
                )
            })
            .chain(
                DENSE_REFERENCE
                    .iter()
                    .filter_map(|&extra| Some((extra, self.0.get(extra.0)?.as_slice()))),
            )
            .map(|(declared, samples)| {
                workload::record(workload, Kind::Layer, declared, samples, Agg::Min)
            })
            .collect()
    }
}

/// Wall seconds of `call`, `reps` times.
fn timed<T>(reps: usize, mut call: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(call());
            started.elapsed().as_secs_f64()
        })
        .collect()
}

fn scaled(samples: &[f64], factor: f64) -> Vec<f64> {
    samples.iter().map(|s| s * factor).collect()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

pub fn profile(ctx: &Ctx<'_>, refs: &Refs, m: &mut Meter, usage: Usage) -> Vec<Record> {
    let mut account = Account::default();
    rdf_and_ingest(ctx, m, &mut account);
    shard_and_indexes(ctx, m, &mut account);
    blocking_comparator_pipeline(ctx, refs, m, &mut account);
    similarity_measures(ctx, &mut account);
    let open_ms = persist(ctx, m, &mut account);
    serve(ctx, m, &mut account, open_ms);
    learner(ctx, m, &mut account);

    account.put("proc.user_cpu_s", usage.user_cpu_s);
    account.put("proc.sys_cpu_s", usage.sys_cpu_s);
    account.put("proc.minor_faults", usage.minor_faults);
    account.put("trace.spans", m.tracer.spans().len() as f64);
    // The whole lifecycle, traced against untraced: cycles of the two
    // kinds alternate, so they saw the same phases of host noise.
    account.put(
        "trace.overhead_share",
        ratio(
            stats::min(m.cycle_seconds(true)),
            stats::min(m.cycle_seconds(false)),
        ) - 1.0,
    );
    account.put("trace.account_residual_share", m.tracer.residual_share());
    // What the end-to-end durations of this run would be divided by.
    account.put("host.calibration_ms", stats::median(&m.calibration_s) * 1e3);
    account.records(ctx.plan.name)
}

/// What one streamer alone measures over a document: seconds, triples, and
/// the most bytes resident at once.
type Streamed = (f64, u64, usize);

/// One streamer alone over `document`'s chunks. The two streamers share no trait, so their
/// four methods come in as functions.
fn stream_alone<S, E: std::fmt::Debug>(
    document: &str,
    mut streamer: S,
    feed: fn(&mut S, &[u8]),
    finish: fn(&mut S),
    next_triple: fn(&mut S) -> Option<Result<Triple, E>>,
    buffered_bytes: fn(&S) -> usize,
) -> Streamed {
    let (mut triples, mut peak) = (0u64, 0usize);
    let started = Instant::now();
    let mut drain = |streamer: &mut S, fed: usize| {
        while let Some(parsed) = next_triple(streamer) {
            black_box(parsed.expect("the generated documents parse"));
            triples += 1;
        }
        // Resident once the chunk's complete statements are drained: the
        // chunk itself plus the partial statement carried over.
        peak = peak.max(fed + buffered_bytes(streamer));
    };
    for chunk in document.as_bytes().chunks(CHUNK) {
        feed(&mut streamer, chunk);
        drain(&mut streamer, chunk.len());
    }
    finish(&mut streamer);
    drain(&mut streamer, 0);
    (started.elapsed().as_secs_f64(), triples, peak)
}

/// `rdf` (streamers alone) and `ingest` (feed spans minus the parse).
fn rdf_and_ingest(ctx: &Ctx<'_>, m: &Meter, account: &mut Account) {
    let inputs = ctx.inputs;
    let mut parse_s = 0.0;
    let mut triples = 0;
    let ntriples = || {
        stream_alone(
            &inputs.base_nt,
            NTriplesStreamer::new(),
            NTriplesStreamer::feed,
            NTriplesStreamer::finish,
            NTriplesStreamer::next_triple,
            NTriplesStreamer::buffered_bytes,
        )
    };
    let turtle = || {
        stream_alone(
            &inputs.providers_ttl,
            TurtleStreamer::new(),
            TurtleStreamer::feed,
            TurtleStreamer::finish,
            TurtleStreamer::next_triple,
            TurtleStreamer::buffered_bytes,
        )
    };
    let formats: [(&str, &str, &dyn Fn() -> Streamed); 2] = [
        ("ntriples", &inputs.base_nt, &ntriples),
        ("turtle", &inputs.providers_ttl, &turtle),
    ];
    for (name, document, alone) in formats {
        let runs: Vec<Streamed> = (0..3).map(|_| alone()).collect();
        let seconds: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let quietest = account.put_samples(&format!("rdf.{name}.parse_s"), &seconds);
        account.put(
            &format!("rdf.{name}.mb_per_s"),
            ratio(document.len() as f64 / 1e6, quietest),
        );
        parse_s += quietest;
        triples += runs[0].1;
        if name == "ntriples" {
            account.put("rdf.peak_buffered_bytes", runs[0].2 as f64);
        }
    }
    account.put("rdf.triples", triples as f64);
    let feed_s = account.put_samples("ingest.feed_s", &m.tracer.seconds_per_op("ingest.feed"));
    account.put("ingest.self_s", feed_s - parse_s);
    account.put(
        "ingest.records",
        (inputs.fed_first() + inputs.providers.len()) as f64,
    );
    account.put_samples(
        "ingest.delta_feed_ms",
        &scaled(&m.tracer.seconds_per_op("ingest.delta_feed"), 1e3),
    );
}

/// `shard`/`store` and `token_index`: the build spans of the feed stage,
/// plus the bigram warm on fresh shards.
fn shard_and_indexes(ctx: &Ctx<'_>, m: &Meter, account: &mut Account) {
    let inputs = ctx.inputs;
    let build_s = account.put_samples("shard.build_s", &m.tracer.seconds_per_op("shard.build"));
    let built = inputs.fed_first() + inputs.providers.len();
    account.put("shard.records_per_s", ratio(built as f64, build_s));
    account.put_samples(
        "shard.append_ms",
        &scaled(&m.tracer.seconds_per_op("shard.append"), 1e3),
    );
    account.put_samples(
        "token_index.key_build_s",
        &m.tracer.seconds_per_op("token_index.key_build"),
    );
    account.put_samples(
        "token_index.token_build_s",
        &m.tracer.seconds_per_op("token_index.token_build"),
    );
    let warm: Vec<f64> = (0..2)
        .map(|_| {
            let fresh = ShardedStore::from_records(&inputs.catalog, SHARDS);
            timed(1, || ctx.bigram.warm((&fresh).into()))[0]
        })
        .collect();
    account.put_samples("token_index.bigram_warm_s", &warm);
}

/// Global catalog id of each provider record's expert link.
fn truth_by_index(
    inputs: &Inputs,
    external: &RecordStore,
    local: &ShardedStore,
) -> Vec<Option<usize>> {
    (0..external.len())
        .map(|e| {
            inputs
                .truth
                .get(external.id(e))
                .and_then(|l| local.index_of(l))
        })
        .collect()
}

/// Expert links among the streamed candidates, as a share of all of them.
fn pairs_completeness(runs: &CandidateRuns, truth: &[Option<usize>], local: &ShardedStore) -> f64 {
    let mut covered = vec![false; truth.len()];
    for shard in 0..runs.shard_count() {
        let (from, to) = (
            local.offset(shard),
            local.offset(shard) + local.shard(shard).len(),
        );
        for block in 0..runs.blocks(shard).len() {
            let (e, run) = runs.run(shard, block);
            if let Some(linked) = truth[e].filter(|l| (from..to).contains(l)) {
                covered[e] |= run.iter().any(|l| l + from == linked);
            }
        }
    }
    ratio(
        covered.iter().filter(|&&c| c).count() as f64,
        truth.iter().flatten().count() as f64,
    )
}

/// What a replay of the scoring loop over streamed runs does per pair.
#[derive(Clone, Copy, PartialEq)]
enum Replay {
    /// `hoist_left` per block, nothing per pair.
    HoistOnly,
    /// `hoist_left` per block, `score_hoisted` per pair: the comparator.
    Score,
    /// The measure alone (`compare_with`) on the same string pairs.
    Kernel,
}

/// Replay the pipeline's scoring loop, serially, over `runs`: one hoist
/// per block, one call per local. Returns seconds, matches, possible and
/// the bytes of the strings compared.
fn replay(ctx: &Ctx<'_>, runs: &CandidateRuns, what: Replay) -> (f64, u64, u64, u64) {
    let (external, local) = (&ctx.world.external, &ctx.world.local);
    let compiled = ctx
        .jw95
        .compile_schemas(external.interner(), local.schema());
    let rule = &ctx.jw95.rules[0];
    let left = external.property(&rule.left_property);
    let right = local.property(&rule.right_property);
    let mut scratch = SimScratch::new();
    let mut hoist = LeftHoist::new();
    let (mut matches, mut possible, mut bytes) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    for shard in 0..runs.shard_count() {
        let store = local.shard(shard);
        for block in 0..runs.blocks(shard).len() {
            let (e, run) = runs.run(shard, block);
            // Once per block, like the pipeline: the hoist, or for the
            // kernel alone the left string.
            let left_value = left.and_then(|p| external.first(e, p));
            if what != Replay::Kernel {
                compiled.hoist_left(external, e, &mut hoist);
            }
            let mut pair = |l: usize| match what {
                Replay::HoistOnly => {}
                Replay::Score => match compiled
                    .score_hoisted(&hoist, external, store, l, &mut scratch)
                    .1
                {
                    MatchDecision::Match => matches += 1,
                    MatchDecision::Possible => possible += 1,
                    MatchDecision::NonMatch => {}
                },
                Replay::Kernel => {
                    if let (Some(a), Some(b)) = (left_value, right.and_then(|p| store.first(l, p)))
                    {
                        bytes += (a.len() + b.len()) as u64;
                        black_box(SimilarityMeasure::JaroWinkler.compare_with(&mut scratch, a, b));
                    }
                }
            };
            // The same three decode loops as the pipeline's `score_range`.
            match run {
                LocalRun::Span { start, len } => (start..start + len).for_each(&mut pair),
                LocalRun::Keyed(ids) | LocalRun::Explicit(ids) => {
                    ids.iter().for_each(|&l| pair(l as usize))
                }
            }
            black_box(&hoist);
        }
    }
    (started.elapsed().as_secs_f64(), matches, possible, bytes)
}

/// `blocking`, `comparator`, `similarity` and `pipeline`: the stream alone,
/// the scoring loop replayed over its runs, and the serial link they are
/// parts of.
fn blocking_comparator_pipeline(ctx: &Ctx<'_>, refs: &Refs, m: &mut Meter, account: &mut Account) {
    let (external, local) = (&ctx.world.external, &ctx.world.local);
    let link = ctx.plan.link;
    let blocker = ctx.blocker(link);
    // Class-extent lookup makes the rule stream seconds long: once is enough.
    let reps = if link == BlockerKind::Rules { 1 } else { 3 };
    let mut runs = CandidateRuns::new();
    let stream = timed(reps, || {
        blocker.stream_candidates(external, local.into(), &mut runs)
    });
    let stream_s = account.put_samples("blocking.stream_s", &stream);
    let candidates = runs.total() as f64;
    account.put("blocking.cand_per_s", ratio(candidates, stream_s));
    account.put("blocking.candidates", candidates);
    account.put(
        "blocking.blocks",
        (0..runs.shard_count())
            .map(|s| runs.blocks(s).len())
            .sum::<usize>() as f64,
    );
    account.put("blocking.queue_bytes", runs.queue_bytes() as f64);
    let truth = truth_by_index(ctx.inputs, external, local);
    account.put(
        "blocking.pairs_completeness",
        pairs_completeness(&runs, &truth, local),
    );

    // The bigram probe's own filter accounting.
    let mut bigram_runs = CandidateRuns::new();
    let bigram = if link == BlockerKind::Bigram {
        &runs
    } else {
        ctx.bigram
            .stream_candidates(external, local.into(), &mut bigram_runs);
        &bigram_runs
    };
    let filters = bigram.bigram_filter_stats();
    account.put(
        "blocking.bigram.postings_skipped_length",
        filters.postings_skipped_length as f64,
    );
    account.put(
        "blocking.bigram.grams_skipped_prefix",
        filters.grams_skipped_prefix as f64,
    );
    account.put(
        "blocking.bigram.postings_skipped_position",
        filters.postings_skipped_position as f64,
    );
    account.put(
        "blocking.bigram.verify_merges",
        filters.verify_merges as f64,
    );
    account.put(
        "blocking.bigram.verify_hit_ratio",
        ratio(bigram.total() as f64, filters.verify_merges as f64),
    );

    // The rule blocker: classification alone, then the stream it is part of.
    let mut classified = 0usize;
    let classify = timed(3, || {
        classified = (0..external.len())
            .filter(|&e| {
                !ctx.world
                    .classifier
                    .classify_fact_refs(external.facts(e))
                    .is_empty()
            })
            .count();
    });
    let classify_s = account.put_samples("blocking.rules.classify_s", &classify);
    let rule_stream_s = if link == BlockerKind::Rules {
        stream_s
    } else {
        let mut rule_runs = CandidateRuns::new();
        timed(1, || {
            ctx.rules
                .stream_candidates(external, local.into(), &mut rule_runs)
        })[0]
    };
    account.put("blocking.rules.extent_self_s", rule_stream_s - classify_s);
    account.put(
        "blocking.rules.classified_share",
        ratio(classified as f64, external.len() as f64),
    );
    account.put(
        "core.classify_us_per_item",
        ratio(classify_s * 1e6, external.len() as f64),
    );

    // The scoring loop, replayed over the link stage's runs.
    let scored: Vec<(f64, u64, u64, u64)> =
        (0..2).map(|_| replay(ctx, &runs, Replay::Score)).collect();
    let replay_s = account.put_samples(
        "comparator.replay_s",
        &scored.iter().map(|r| r.0).collect::<Vec<_>>(),
    );
    let (_, matches, possible, _) = scored[0];
    // The replay must decide every pair as the pipeline did.
    let linked = m.link_reference.unwrap_or_default();
    m.attempt(matches == linked.digest.matches.links && possible == linked.digest.possible.links);
    let hoist_s = account.put_samples(
        "comparator.hoist_s",
        &(0..2)
            .map(|_| replay(ctx, &runs, Replay::HoistOnly).0)
            .collect::<Vec<_>>(),
    );
    let kernel: Vec<(f64, u64, u64, u64)> =
        (0..2).map(|_| replay(ctx, &runs, Replay::Kernel)).collect();
    let kernel_s = account.put_samples(
        "similarity.kernel_s",
        &kernel.iter().map(|r| r.0).collect::<Vec<_>>(),
    );
    account.put("comparator.aggregate_self_s", replay_s - hoist_s - kernel_s);
    account.put("comparator.ns_per_cmp", ratio(replay_s * 1e9, candidates));
    account.put("comparator.matches", matches as f64);
    account.put("comparator.possible", possible as f64);
    account.put(
        "comparator.useful_share",
        ratio((matches + possible) as f64, candidates),
    );
    account.put(
        "similarity.bytes_per_cmp",
        ratio(kernel[0].3 as f64, candidates),
    );

    // The serial link these are the parts of: every timed link run is one.
    let serial_s = account.put_samples("pipeline.link_serial_s", &m.all_samples("link_s"));
    account.put("pipeline.self_s", serial_s - stream_s - replay_s);
    account.put("similarity.kernel_floor_share", ratio(kernel_s, serial_s));
    // The same link on two threads must return the serial link set.
    let parallel = LinkagePipeline::new(blocker, ctx.jw95).with_threads(inputs::parallel_threads());
    let mut agrees = true;
    let parallel_s = stats::min(&timed(reps.min(2), || {
        let result = parallel.run_sharded(external, local);
        agrees &= workload::LinkDigest::of(&result) == linked.digest;
    }));
    m.attempt(agrees);
    account.put("pipeline.parallel_speedup", ratio(serial_s, parallel_s));
    account.put("pipeline.comparisons", linked.comparisons as f64);
    account.put("pipeline.links", linked.links as f64);
    account.put_samples(
        "pipeline.delta_link_ms",
        &scaled(&m.tracer.seconds_per_op("pipeline.run_sharded_delta"), 1e3),
    );
    // Quality of the feed stage's links (sorted neighbourhood, `jw_jaccard`).
    let fed = refs.feed_quality;
    account.put("pipeline.feed.pair_precision", fed.precision);
    account.put("pipeline.feed.pair_recall", fed.recall);
    account.put("pipeline.feed.reduction_ratio", fed.reduction);

    // The legacy operating point: most comparisons become "possible"
    // links, so the run is dominated by materialising them.
    if ctx.plan.dense_reference {
        let dense = inputs::dense();
        let pipeline =
            LinkagePipeline::new(ctx.standard, &dense).with_threads(inputs::parallel_threads());
        let started = Instant::now();
        let result = pipeline.run_sharded(external, local);
        account.put("pipeline.dense_output_s", started.elapsed().as_secs_f64());
        account.put(
            "pipeline.dense_links",
            (result.matches.len() + result.possible.len()) as f64,
        );
    }
}

/// Every measure, scratch kernel against allocating wrapper, on a fixed
/// sample of the standard blocker's candidate pairs.
fn similarity_measures(ctx: &Ctx<'_>, account: &mut Account) {
    const SAMPLE: usize = 100_000;
    let (external, local) = (&ctx.world.external, &ctx.world.local);
    let mut runs = CandidateRuns::new();
    ctx.standard
        .stream_candidates(external, local.into(), &mut runs);
    let rule = &ctx.jw95.rules[0];
    let (Some(left), Some(right)) = (
        external.property(&rule.left_property),
        local.property(&rule.right_property),
    ) else {
        return;
    };
    let every = (runs.total() as usize / SAMPLE).max(1);
    let pairs: Vec<(&str, &str)> = (0..runs.shard_count())
        .flat_map(|s| runs.pairs(s).map(move |(e, l)| (s, e, l)))
        .step_by(every)
        .filter_map(|(s, e, l)| Some((external.first(e, left)?, local.shard(s).first(l, right)?)))
        .collect();
    let mut scratch = SimScratch::new();
    for measure in SimilarityMeasure::all() {
        let with_scratch = timed(2, || {
            pairs
                .iter()
                .map(|(a, b)| measure.compare_with(&mut scratch, a, b))
                .sum::<f64>()
        });
        let allocating = timed(2, || {
            pairs
                .iter()
                .map(|(a, b)| measure.compare(a, b))
                .sum::<f64>()
        });
        let per_pair = 1e9 / pairs.len().max(1) as f64;
        account.put_samples(
            &format!("similarity.{}.scratch_ns", measure.name()),
            &scaled(&with_scratch, per_pair),
        );
        account.put_samples(
            &format!("similarity.{}.alloc_ns", measure.name()),
            &scaled(&allocating, per_pair),
        );
    }
}

/// `persist`: the snapshot spans of the restart stage, the loader alone,
/// an incremental snapshot after one append, and a corrupt-manifest open.
/// Returns the loader's milliseconds.
fn persist(ctx: &Ctx<'_>, m: &mut Meter, account: &mut Account) -> f64 {
    let inputs = ctx.inputs;
    let write_s = account.put_samples(
        "persist.write_ms",
        &scaled(&m.tracer.seconds_per_op("persist.snapshot"), 1e3),
    ) / 1e3;
    let bytes = m.snapshot_bytes as f64;
    account.put("persist.write_mb_per_s", ratio(bytes / 1e6, write_s));
    account.put("persist.snapshot_bytes", bytes);
    account.put(
        "persist.bytes_per_feed_byte",
        ratio(bytes, (inputs.base_nt.len() + inputs.delta_nt.len()) as f64),
    );

    let dir = ctx.workdir.join("profile-full");
    let written = CatalogSnapshot::write(&dir, &ctx.world.local);
    let open = timed(3, || {
        CatalogSnapshot::open(&dir).map(|(store, _)| store.len())
    });
    let open_s = account.put_samples("persist.open_ms", &scaled(&open, 1e3)) / 1e3;
    account.put("persist.open_mb_per_s", ratio(bytes / 1e6, open_s));

    // A second generation whose manifest is then damaged: `open` must
    // notice and fall back to the first.
    let mut recovered = written.is_ok();
    let started = match CatalogSnapshot::write(&dir, &ctx.world.local) {
        Ok(receipt) => {
            let mut manifest = std::fs::read(&receipt.manifest).unwrap_or_default();
            let middle = manifest.len() / 2;
            if let Some(byte) = manifest.get_mut(middle) {
                *byte ^= 0x40;
            }
            recovered &= std::fs::write(&receipt.manifest, manifest).is_ok();
            Instant::now()
        }
        Err(_) => {
            recovered = false;
            Instant::now()
        }
    };
    let reopened = CatalogSnapshot::open(&dir);
    account.put(
        "persist.recovery_fallback_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    recovered &= reopened.is_ok_and(|(store, report)| {
        report.recovered_from_fallback && store.len() == ctx.world.local.len()
    });
    m.attempt(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    // Snapshot, append 1 %, snapshot again into the same directory: the
    // second spill writes the appended shard and reuses the rest.
    let dir = ctx.workdir.join("profile-incremental");
    let linker = Linker::new(
        ctx.blocker(ctx.plan.serve),
        ctx.jw95,
        ctx.world.serve_base.clone(),
    );
    let first = linker.snapshot(&dir);
    let mut delta = linker.delta_builder();
    delta.begin_shard();
    let base = inputs.serve_base();
    for record in &inputs.catalog[base..base + inputs.append_batch()] {
        delta.push(record);
    }
    let appended = linker.try_append(delta);
    let second = linker.snapshot(&dir);
    m.attempt(first.is_ok() && appended.is_ok() && second.is_ok());
    let (incremental_bytes, reused) = second.map_or((0, 0), |r| (r.bytes_written, r.shards_reused));
    account.put("persist.incremental_bytes", incremental_bytes as f64);
    account.put("persist.shards_reused", reused as f64);
    let _ = std::fs::remove_dir_all(&dir);
    open_s * 1e3
}

/// `serve`: the last serve pass's probes and appends, a cold `Linker::new`,
/// one cold republish, and the warm part of `Linker::open`.
fn serve(ctx: &Ctx<'_>, m: &Meter, account: &mut Account, open_ms: f64) {
    let inputs = ctx.inputs;
    let blocker = ctx.blocker(ctx.plan.serve);
    let fresh = ShardedStore::from_records(&inputs.catalog[..inputs.serve_base()], SHARDS);
    let started = Instant::now();
    let linker = Linker::new(blocker, ctx.jw95, fresh);
    account.put("serve.linker_new_s", started.elapsed().as_secs_f64());
    // One cold republish of the whole catalog, columnarisation included:
    // the O(catalog) reference the O(delta) append is measured against.
    let started = Instant::now();
    linker.swap(ShardedStore::from_records(&inputs.catalog, SHARDS));
    account.put("serve.swap_s", started.elapsed().as_secs_f64());

    let pass = &m.last_serve_pass;
    let total_us: f64 = pass.latencies_us.iter().sum();
    account.put(
        "serve.probe.mean_us",
        ratio(total_us, pass.latencies_us.len() as f64),
    );
    let tail = |samples: &[f64], p: f64| {
        stats::percentile_per_cycle(std::slice::from_ref(&samples.to_vec()), p)[0]
    };
    account.put("serve.probe.p10_us", tail(&pass.latencies_us, 0.10));
    account.put("serve.probe.cand_p50", tail(&pass.candidates, 0.50));
    account.put("serve.probe.cand_p99", tail(&pass.candidates, 0.99));
    account.put(
        "serve.probe.ns_per_cand",
        ratio(total_us * 1e3, pass.candidates.iter().sum()),
    );
    account.put("serve.probe.links", pass.links as f64);
    account.put(
        "serve.append.records_per_s",
        ratio(
            inputs.append_batch() as f64,
            stats::median(&pass.appends_ms) / 1e3,
        ),
    );
    account.put("serve.epochs", pass.epochs as f64);
    let open = scaled(&m.tracer.seconds_per_op("serve.open"), 1e3);
    account.put("serve.open_warm_ms", stats::min(&open) - open_ms);
}

/// `segment`, `core`, `ontology` and `eval`: the learner's parts replayed,
/// its statistics, and Table 1 as numbers.
fn learner(ctx: &Ctx<'_>, m: &Meter, account: &mut Account) {
    let scenario = &ctx.inputs.scenario;
    let config = paper_learner();
    let outcome = &ctx.world.outcome;

    let segmenter = config.segmenter.build();
    let normalizer = Normalizer::default();
    let split = timed(3, || {
        let mut segments = 0usize;
        for example in scenario.training.examples() {
            for (property, value) in &example.facts {
                if config.properties.includes(property) {
                    segments += segmenter.split_distinct(&normalizer.apply(value)).len();
                }
            }
        }
        segments
    });
    let split_ms = account.put_samples("segment.split_ms", &scaled(&split, 1e3));
    account.put(
        "segment.distinct_segments",
        outcome.stats.distinct_segments as f64,
    );
    account.put(
        "segment.occurrences",
        outcome.stats.segment_occurrences as f64,
    );
    account.put(
        "core.count_self_ms",
        stats::min(&m.all_samples("learn_ms")) - split_ms,
    );
    account.put("core.rules", outcome.stats.rules as f64);
    account.put(
        "core.frequent_classes",
        outcome.stats.frequent_classes as f64,
    );
    account.put(
        "core.classes_with_rules",
        outcome.stats.classes_with_rules as f64,
    );

    // Ten copies of the training set under distinct item names.
    let tenfold: Vec<_> = (0..10)
        .flat_map(|copy| {
            scenario.training.examples().iter().map(move |example| {
                let mut example = example.clone();
                let name = example
                    .external_item
                    .as_iri()
                    .unwrap_or_default()
                    .to_string();
                example.external_item = Term::iri(format!("{name}#{copy}"));
                example
            })
        })
        .collect();
    let tenfold = TrainingSet::from_examples(tenfold);
    let learn = RuleLearner::new(config.clone());
    account.put_samples(
        "core.learn_x10_ms",
        &scaled(&timed(1, || learn.learn(&tenfold, &scenario.ontology)), 1e3),
    );
    account.put_samples(
        "core.generalize_ms",
        &scaled(
            &timed(2, || {
                generalize(
                    &scenario.training,
                    &scenario.ontology,
                    &config,
                    outcome,
                    &GeneralizeConfig::default(),
                )
            }),
            1e3,
        ),
    );
    account.put_samples(
        "core.prune_ms",
        &scaled(
            &timed(5, || {
                prune_hierarchy_redundant(
                    &outcome.rules,
                    &scenario.ontology,
                    HierarchyPreference::MoreSpecific,
                )
            }),
            1e3,
        ),
    );

    let concluded: BTreeSet<ClassId> = ctx
        .world
        .classifier
        .rules()
        .iter()
        .map(|r| r.class)
        .collect();
    let mut items = 0usize;
    let extent = timed(3, || {
        items = concluded
            .iter()
            .map(|&class| scenario.instances.extent(class, &scenario.ontology).len())
            .sum();
    });
    account.put_samples("ontology.extent_ms", &scaled(&extent, 1e3));
    account.put("ontology.extent_items", items as f64);

    let evaluated: Vec<EvaluationItem> = scenario
        .training
        .examples()
        .iter()
        .map(|e| (e.classes.first().copied(), e.facts.clone()))
        .collect();
    let report = Table1Experiment::with_learner(config).evaluate(outcome, &evaluated);
    for row in &report.rows {
        account.put(
            &format!("eval.table1.precision_c{:.1}", row.confidence),
            row.precision,
        );
        account.put(
            &format!("eval.table1.recall_c{:.1}", row.confidence),
            row.recall,
        );
    }
}
