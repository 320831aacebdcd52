//! The three workloads: one deployment lifecycle — learn rules, link the
//! catalog, feed a catalog from bytes to links, serve probes beside appends,
//! snapshot, restart — cycled for the measuring time under three blockers.
//!
//! A plan fixes which blocker the link stage and which the serve and restart
//! stages use. Every cycle runs every stage, so each end-to-end metric is
//! sampled on every workload and each metric's samples are spread over the
//! whole run: a shared host slows memory-bound code by half for seconds at
//! a time, and a metric sampled in one short window would read a different
//! phase of that noise on every run. Between the operations a fixed kernel
//! is timed, and the reported durations are divided by how much slower than
//! nominal it ran ([`calib`]). Each timed operation is checked against a
//! reference: the feed and restart stages' are computed before the cycles
//! start, the link stage's is its first run.

use crate::calib::{self, Calibrator};
use crate::inputs::{self, Digest, Inputs, Scale, APPENDS, CHUNK, SHARDS};
use crate::layers;
use crate::procfs;
use crate::report::{Kind, Record};
use crate::stats;
use crate::trace::Tracer;
use classilink_bench::paper_learner;
use classilink_core::{LearnOutcome, RuleClassifier, RuleLearner};
use classilink_linking::blocking::{Blocker, SortedNeighborhoodBlocker, StandardBlocker};
use classilink_linking::{
    BigramBlocker, FeedFormat, FeedIngest, LinkResult, LinkagePipeline, LinkageResult, Linker,
    ProbeScratch, RecordComparator, RecordStore, RuleBasedBlocker, SchemaInterner, ShardedStore,
    ShardedStoreBuilder,
};
use classilink_rdf::Term;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["batch_standard", "batch_bigram", "rule_link"];

/// `(name, unit, better)` of the end-to-end metrics, in report order.
/// `failed_share` is printed and written to result files but not declared
/// in `BENCHMARK.json`: it is 0 on a healthy run, and the contract line
/// carries the same fact as `attempted`/`failed`.
pub const END_TO_END: [(&str, &str, &str); 14] = [
    ("setup_s", "s", "lower"),
    ("link_s", "s", "lower"),
    ("learn_ms", "ms", "lower"),
    ("feed_to_links_s", "s", "lower"),
    ("delta_feed_to_links_ms", "ms", "lower"),
    ("probe_p50_us", "us", "lower"),
    ("probe_p99_us", "us", "lower"),
    ("append_publish_ms", "ms", "lower"),
    ("restart_to_first_probe_ms", "ms", "lower"),
    ("pair_precision", "ratio", "higher"),
    ("pair_recall", "ratio", "higher"),
    ("reduction_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_share", "ratio", "lower"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockerKind {
    Standard,
    Bigram,
    Rules,
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    /// Blocker of the batch link stage (always with `jw95`).
    pub link: BlockerKind,
    /// Blocker of the serve pass and the restart stage.
    pub serve: BlockerKind,
    /// Whether the traced pass adds the dense-output reference run.
    pub dense_reference: bool,
}

// A cycle is one link run, a few of the millisecond operations, one feed
// and two serve passes. It is kept short (3 s; 7 s under the rule blocker,
// whose link run takes 5 s), so that a run holds many cycles and every
// metric is sampled all over it. Two serve passes, because the median probe
// is the metric that depends most on where a pass's fresh epoch landed in
// memory: between the passes of one run it differs by a fifth.
const LEARN_REPS: usize = 4;
const DELTA_REPS: usize = 3;
const SERVE_PASSES: usize = 2;
const RESTART_REPS: usize = 3;
/// The serve pass probes every eighth provider record (the paper scale).
const SERVE_STRIDE: usize = 8;

pub fn plan(name: &str) -> Option<Plan> {
    let base = Plan {
        name: "",
        link: BlockerKind::Standard,
        serve: BlockerKind::Standard,
        dense_reference: false,
    };
    Some(match name {
        // 5.03 M comparisons: comparator, similarity and pipeline do the
        // work, blocking almost none.
        "batch_standard" => Plan {
            name: "batch_standard",
            dense_reference: true,
            ..base
        },
        // 84 k candidates: the filtered bigram probe is nearly all of the
        // link time, comparison a few percent; serving and restart pay the
        // bigram threshold layouts.
        "batch_bigram" => Plan {
            name: "batch_bigram",
            link: BlockerKind::Bigram,
            serve: BlockerKind::Bigram,
            ..base
        },
        // The paper's method: one link run is seconds of classification
        // and class-extent lookup.
        "rule_link" => Plan {
            name: "rule_link",
            link: BlockerKind::Rules,
            ..base
        },
        _ => return None,
    })
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where `trace-<workload>.jsonl` goes; no span file without it.
    pub out: Option<PathBuf>,
}

pub struct Outcome {
    pub records: Vec<Record>,
    pub attempted: u64,
    pub failed: u64,
}

/// Warm state every stage starts from: what `setup_s` pays for.
pub struct World {
    pub external: RecordStore,
    /// The whole catalog in [`SHARDS`] shards on the external store's schema.
    pub local: ShardedStore,
    /// The records a serve pass starts from.
    pub serve_base: ShardedStore,
    pub outcome: LearnOutcome,
    /// The rules the rule blocker classifies with.
    pub classifier: RuleClassifier,
}

fn setup(scale: Scale, seed: u64, plan: &Plan) -> (Inputs, World) {
    let inputs = Inputs::generate(scale, seed);
    let (external, local) = inputs.scenario.sharded_stores(SHARDS);
    let serve_base = ShardedStore::from_records(&inputs.catalog[..inputs.serve_base()], SHARDS);
    let learner = paper_learner();
    let outcome = RuleLearner::new(learner.clone())
        .learn(&inputs.scenario.training, &inputs.scenario.ontology)
        .expect("the scenario has expert links to learn from");
    let classifier = RuleClassifier::from_outcome(&outcome, &learner)
        .with_min_confidence(inputs::RULE_CONFIDENCE);
    // Warm-up: the indexes the link, serve and restart stages read. (The
    // rule blocker reads the instance store and has nothing to warm.)
    for (kind, catalogs) in [
        (plan.link, &[&local][..]),
        (plan.serve, &[&local, &serve_base][..]),
    ] {
        for &catalog in catalogs {
            match kind {
                BlockerKind::Standard => inputs::standard_blocker().warm(catalog.into()),
                BlockerKind::Bigram => inputs::bigram_blocker().warm(catalog.into()),
                BlockerKind::Rules => {}
            }
        }
    }
    let world = World {
        external,
        local,
        serve_base,
        outcome,
        classifier,
    };
    (inputs, world)
}

/// Everything the stages read.
pub struct Ctx<'a> {
    pub plan: Plan,
    pub scale: Scale,
    pub threads: usize,
    pub inputs: &'a Inputs,
    pub world: &'a World,
    pub jw95: &'a RecordComparator,
    pub jw_jaccard: &'a RecordComparator,
    pub standard: &'a StandardBlocker,
    pub bigram: &'a BigramBlocker,
    pub sorted: &'a SortedNeighborhoodBlocker,
    pub rules: &'a RuleBasedBlocker<'a>,
    pub workdir: &'a Path,
}

impl<'a> Ctx<'a> {
    pub fn blocker(&self, kind: BlockerKind) -> &'a (dyn Blocker + Sync) {
        match kind {
            BlockerKind::Standard => self.standard,
            BlockerKind::Bigram => self.bigram,
            BlockerKind::Rules => self.rules,
        }
    }

    /// Provider indexes one serve round probes.
    pub fn probed(&self) -> Vec<usize> {
        let stride = match self.scale {
            Scale::Paper => SERVE_STRIDE,
            Scale::Tiny => 1,
        };
        (0..self.inputs.providers.len()).step_by(stride).collect()
    }

    /// Rounds of a serve pass: 4, or as many as give the pass the ~1 100
    /// probes a p99 needs (the tiny scale only).
    pub fn rounds(&self) -> usize {
        1100usize.div_ceil(self.probed().len().max(1)).max(4)
    }

    /// Provider indexes probed after a restart: the first answers
    /// `restart_to_first_probe_ms`, all of them the restart oracle.
    pub fn restart_sample(&self) -> Vec<usize> {
        let n = self.inputs.providers.len();
        (0..n).step_by(if n > 1000 { 20 } else { 1 }).collect()
    }
}

/// Digests of a link run's two result lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkDigest {
    pub matches: Digest,
    pub possible: Digest,
}

impl LinkDigest {
    pub fn of(result: &LinkageResult) -> LinkDigest {
        LinkDigest {
            matches: Digest::of(&result.matches),
            possible: Digest::of(&result.possible),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub reduction: f64,
}

/// What the link stage's first run returned. Every later run must return
/// the same, and the traced pass checks it against a two-thread run and a
/// replay of the scoring loop. (A reference run ahead of the measuring time
/// would cost the rule blocker a sixth of it.)
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkRef {
    pub digest: LinkDigest,
    pub comparisons: u64,
    pub links: u64,
    pub quality: Quality,
}

/// What the feed and restart stages are checked against.
pub struct Refs {
    /// The feed pipeline over stores columnarised straight from the records.
    pub feed_base: LinkDigest,
    /// The appended-shard slice of a full run on the grown catalog.
    pub feed_delta: LinkDigest,
    pub feed_quality: Quality,
    /// Probe matches of the restart sample before any snapshot.
    pub restart_probes: Digest,
}

fn prepare(ctx: &Ctx<'_>) -> Refs {
    let inputs = ctx.inputs;
    // Feed stage: the same records, columnarised without the feed path.
    let (base, delta) = inputs.split_catalog();
    let schema = SchemaInterner::new();
    let catalog = ShardedStore::from_records_with_schema(&base, SHARDS, schema.clone());
    let mut providers = RecordStore::builder_with_schema(schema);
    for record in &inputs.providers {
        providers.push(record);
    }
    let providers = providers.build();
    let feed = LinkagePipeline::new(ctx.sorted, ctx.jw_jaccard);
    let feed_base = feed.run_sharded(&providers, &catalog);
    let mut appended = catalog.delta_builder();
    appended.begin_shard();
    for record in &delta {
        appended.push(record);
    }
    let grown = catalog.append_shards(appended);
    let full = feed.run_sharded(&providers, &grown);
    let delta_run = feed.run_sharded_delta(&providers, &grown, catalog.shard_count());
    let late: HashSet<&Term> = delta.iter().map(|r| &r.id).collect();
    let feed_delta = LinkDigest {
        matches: Digest::of(full.matches.iter().filter(|l| late.contains(&l.local))),
        possible: Digest::of(full.possible.iter().filter(|l| late.contains(&l.local))),
    };
    let fed_matches: Vec<_> = feed_base
        .matches
        .iter()
        .chain(&delta_run.matches)
        .cloned()
        .collect();
    let (fed_precision, fed_recall) = inputs.quality(&fed_matches);
    let fed_naive = (inputs.providers.len() * inputs.catalog.len()) as f64;

    // Restart stage: what the sample's probes answer before any snapshot.
    let linker = Linker::new(
        ctx.blocker(ctx.plan.serve),
        ctx.jw95,
        ctx.world.local.clone(),
    );
    let mut scratch = ProbeScratch::new();
    let mut restart_probes = Digest::default();
    for p in ctx.restart_sample() {
        for link in &linker
            .probe_with(&inputs.providers[p], &mut scratch)
            .matches
        {
            restart_probes.add(link);
        }
    }

    Refs {
        feed_base: LinkDigest::of(&feed_base),
        feed_delta,
        feed_quality: Quality {
            precision: fed_precision,
            recall: fed_recall,
            reduction: 1.0
                - (feed_base.comparisons + delta_run.comparisons) as f64 / fed_naive.max(1.0),
        },
        restart_probes,
    }
}

/// What one serve pass measured beyond its end-to-end samples (the source
/// of the `serve.*` layer metrics).
#[derive(Debug, Clone, Default)]
pub struct ServePass {
    pub latencies_us: Vec<f64>,
    pub candidates: Vec<f64>,
    pub appends_ms: Vec<f64>,
    pub links: u64,
    pub epochs: u64,
}

/// Samples, spans and the failure count of a run. Samples are kept apart
/// by whether the tracer was on when they were taken.
#[derive(Default)]
pub struct Meter {
    pub tracer: Tracer,
    samples: [BTreeMap<&'static str, Vec<f64>>; 2],
    /// Probe latencies of each serve pass.
    probe_passes: [Vec<Vec<f64>>; 2],
    /// Wall seconds of each cycle.
    cycle_s: [Vec<f64>; 2],
    pub last_serve_pass: ServePass,
    pub snapshot_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub link_reference: Option<LinkRef>,
    /// Wall seconds of each run of the calibration kernel between the
    /// cycles' operations.
    pub calibration_s: Vec<f64>,
    calibrator: Option<Calibrator>,
    serve_reference: Option<Digest>,
    snapshot_dirs: usize,
}

impl Meter {
    /// Time the calibration kernel once: called between operations, all
    /// over the run.
    fn calibrate(&mut self) {
        if let Some(calibrator) = &mut self.calibrator {
            self.calibration_s.push(calibrator.sample());
        }
    }

    fn push(&mut self, metric: &'static str, value: f64) {
        self.samples[usize::from(self.tracer.is_on())]
            .entry(metric)
            .or_default()
            .push(value);
    }

    /// Count one checked operation.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn samples(&self, traced: bool, metric: &str) -> &[f64] {
        self.samples[usize::from(traced)]
            .get(metric)
            .map_or(&[], Vec::as_slice)
    }

    /// Samples of both kinds of cycle.
    pub fn all_samples(&self, metric: &str) -> Vec<f64> {
        [self.samples(false, metric), self.samples(true, metric)].concat()
    }

    /// Wall seconds of the cycles run with the tracer on / off.
    pub fn cycle_seconds(&self, traced: bool) -> &[f64] {
        &self.cycle_s[usize::from(traced)]
    }

    /// One sample per pass of the `p`-quantile of probe latency.
    pub fn probe_percentiles(&self, traced: bool, p: f64) -> Vec<f64> {
        stats::percentile_per_cycle(&self.probe_passes[usize::from(traced)], p)
    }
}

fn seconds_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

fn learn_stage(ctx: &Ctx<'_>, m: &mut Meter) {
    let learner = RuleLearner::new(paper_learner());
    let scenario = &ctx.inputs.scenario;
    for _ in 0..LEARN_REPS {
        m.tracer.next_op();
        let started = Instant::now();
        let outcome = m.tracer.time("core.learn", || {
            learner.learn(&scenario.training, &scenario.ontology)
        });
        m.push("learn_ms", seconds_since(started) * 1e3);
        m.attempt(outcome.is_ok_and(|o| o.rules == ctx.world.outcome.rules));
        m.calibrate();
    }
}

fn link_stage(ctx: &Ctx<'_>, m: &mut Meter) {
    let pipeline =
        LinkagePipeline::new(ctx.blocker(ctx.plan.link), ctx.jw95).with_threads(ctx.threads);
    m.tracer.next_op();
    let started = Instant::now();
    let result = m.tracer.time("pipeline.run_sharded", || {
        pipeline.try_run_sharded(&ctx.world.external, &ctx.world.local)
    });
    m.push("link_s", seconds_since(started));
    let Ok(result) = result else {
        m.attempt(false);
        return;
    };
    let digest = LinkDigest::of(&result);
    let reference = m.link_reference.get_or_insert_with(|| {
        let (precision, recall) = ctx.inputs.quality(&result.matches);
        LinkRef {
            digest,
            comparisons: result.comparisons,
            links: (result.matches.len() + result.possible.len()) as u64,
            quality: Quality {
                precision,
                recall,
                reduction: result.reduction_ratio,
            },
        }
    });
    let repeats = digest == reference.digest && result.comparisons == reference.comparisons;
    m.attempt(repeats);
}

/// Feed `document` through a fresh ingest in [`CHUNK`]-byte calls.
fn ingest(
    tracer: &mut Tracer,
    format: FeedFormat,
    schema: SchemaInterner,
    records_per_shard: usize,
    document: &str,
    feed_span: &'static str,
) -> LinkResult<ShardedStoreBuilder> {
    let mut ingest = FeedIngest::new(format, schema, records_per_shard);
    for chunk in document.as_bytes().chunks(CHUNK) {
        tracer.time(feed_span, || ingest.feed(chunk))?;
    }
    tracer.time("ingest.into_builder", || ingest.into_builder())
}

/// Cold path: catalog and provider bytes → stores → indexes → links.
/// Returns the provider store (one shard), the catalog and the links.
fn feed_to_links(
    ctx: &Ctx<'_>,
    tracer: &mut Tracer,
    pipeline: &LinkagePipeline<'_>,
) -> LinkResult<(ShardedStore, ShardedStore, LinkageResult)> {
    let inputs = ctx.inputs;
    let schema = SchemaInterner::new();
    // One more than the even share, so the last shard is the short one
    // and an exact multiple does not open a fifth, empty shard.
    let per_shard = inputs.fed_first() / SHARDS + 1;
    let catalog = ingest(
        tracer,
        FeedFormat::NTriples,
        schema.clone(),
        per_shard,
        &inputs.base_nt,
        "ingest.feed",
    )?;
    // One worker, like every timed operation (`try_build` would take one
    // per core).
    let catalog = tracer.time("shard.build", || catalog.try_build_with_workers(1))?;
    let providers = ingest(
        tracer,
        FeedFormat::Turtle,
        schema,
        usize::MAX,
        &inputs.providers_ttl,
        "ingest.feed",
    )?;
    let providers = tracer.time("shard.build", || providers.try_build_with_workers(1))?;
    tracer.time("token_index.key_build", || {
        ctx.sorted.warm((&catalog).into())
    });
    tracer.time("token_index.token_build", || {
        providers.shard(0).token_index();
        for shard in catalog.shards() {
            shard.token_index();
        }
    });
    let links = tracer.time("pipeline.run_sharded", || {
        pipeline.try_run_sharded(providers.shard(0), &catalog)
    })?;
    Ok((providers, catalog, links))
}

/// The held-back records arrive: delta bytes → appended shard → delta links.
fn delta_feed_to_links(
    ctx: &Ctx<'_>,
    tracer: &mut Tracer,
    pipeline: &LinkagePipeline<'_>,
    providers: &RecordStore,
    catalog: &ShardedStore,
) -> LinkResult<LinkageResult> {
    let schema = SchemaInterner::seeded(catalog.schema());
    let delta = ingest(
        tracer,
        FeedFormat::NTriples,
        schema,
        usize::MAX,
        &ctx.inputs.delta_nt,
        "ingest.delta_feed",
    )?;
    let grown = tracer.time("shard.append", || catalog.try_append_shards(delta))?;
    tracer.time("pipeline.run_sharded_delta", || {
        pipeline.try_run_sharded_delta(providers, &grown, catalog.shard_count())
    })
}

fn feed_stage(ctx: &Ctx<'_>, refs: &Refs, m: &mut Meter) {
    let pipeline = LinkagePipeline::new(ctx.sorted, ctx.jw_jaccard).with_threads(ctx.threads);
    m.tracer.next_op();
    let started = Instant::now();
    let span = m.tracer.open("feed_to_links");
    let fed = feed_to_links(ctx, &mut m.tracer, &pipeline);
    m.tracer.close(span);
    m.push("feed_to_links_s", seconds_since(started));
    let Ok((providers, catalog, links)) = fed else {
        m.attempt(false);
        return;
    };
    m.attempt(LinkDigest::of(&links) == refs.feed_base);

    // The delta arrives at the same fed catalog each time: an append
    // returns a grown catalog and leaves the one it grew from as it was.
    for _ in 0..DELTA_REPS {
        m.tracer.next_op();
        m.calibrate();
        let started = Instant::now();
        let span = m.tracer.open("delta_feed_to_links");
        let delta =
            delta_feed_to_links(ctx, &mut m.tracer, &pipeline, providers.shard(0), &catalog);
        m.tracer.close(span);
        m.push("delta_feed_to_links_ms", seconds_since(started) * 1e3);
        m.attempt(delta.is_ok_and(|d| LinkDigest::of(&d) == refs.feed_delta));
    }
}

/// The batch matches, over `catalog`, of the provider records a pass probes.
fn batch_matches_of(ctx: &Ctx<'_>, catalog: &ShardedStore, probed: &[usize]) -> Digest {
    let probed: HashSet<&Term> = probed
        .iter()
        .map(|&p| &ctx.inputs.providers[p].id)
        .collect();
    let batch = LinkagePipeline::new(ctx.blocker(ctx.plan.serve), ctx.jw95)
        .with_threads(ctx.threads)
        .run_sharded(&ctx.world.external, catalog);
    Digest::of(
        batch
            .matches
            .iter()
            .filter(|l| probed.contains(&l.external)),
    )
}

/// One client probes the sampled provider records round after round;
/// [`APPENDS`] epoch publishes are spread over all rounds but the last, so
/// the last round probes the complete catalog.
fn serve_stage(ctx: &Ctx<'_>, m: &mut Meter) {
    let inputs = ctx.inputs;
    let blocker = ctx.blocker(ctx.plan.serve);
    m.tracer.next_op();
    let linker = m.tracer.time("serve.linker_new", || {
        Linker::new(blocker, ctx.jw95, ctx.world.serve_base.clone())
    });
    let probed = ctx.probed();
    let rounds = ctx.rounds();
    let publish_every = ((rounds - 1) * probed.len() / APPENDS).max(1);
    let batch = inputs.append_batch();
    let mut next_record = inputs.serve_base();
    let mut scratch = ProbeScratch::new();
    let mut pass = ServePass::default();
    let mut last_round = Digest::default();
    let (mut sent, mut published) = (0usize, 0usize);
    for round in 0..rounds {
        for &p in &probed {
            sent += 1;
            if sent % publish_every == 0 && published < APPENDS {
                m.tracer.next_op();
                let started = Instant::now();
                let sequence = m.tracer.time("serve.append", || {
                    let mut delta = linker.delta_builder();
                    delta.begin_shard();
                    for record in &inputs.catalog[next_record..next_record + batch] {
                        delta.push(record);
                    }
                    linker.try_append(delta)
                });
                pass.appends_ms.push(seconds_since(started) * 1e3);
                m.attempt(sequence.is_ok());
                next_record += batch;
                published += 1;
            }
            m.tracer.next_op();
            let started = Instant::now();
            let span = m.tracer.open("serve.probe");
            let hits = linker.try_probe_with(&inputs.providers[p], &mut scratch);
            m.tracer.close(span);
            let micros = seconds_since(started) * 1e6;
            m.attempt(hits.is_ok());
            if let Ok(hits) = hits {
                pass.latencies_us.push(micros);
                pass.candidates.push(hits.comparisons as f64);
                pass.links += hits.matches.len() as u64;
                if round == rounds - 1 {
                    for link in &hits.matches {
                        last_round.add(link);
                    }
                }
            }
        }
    }
    let epoch = linker.catalog().load();
    pass.epochs = epoch.sequence();
    // The last round saw the whole catalog, so its matches are the batch
    // matches of the probed records over that catalog.
    let complete = published == APPENDS && epoch.store().len() == inputs.catalog.len();
    let reference = match m.serve_reference {
        Some(reference) => reference,
        None => *m
            .serve_reference
            .insert(batch_matches_of(ctx, epoch.store(), &probed)),
    };
    m.attempt(complete && last_round == reference);

    m.push("append_publish_ms", stats::median(&pass.appends_ms));
    m.probe_passes[usize::from(m.tracer.is_on())].push(pass.latencies_us.clone());
    m.last_serve_pass = pass;
}

/// `snapshot(fresh dir)` → drop → `Linker::open` → first probe → the rest
/// of the sample, [`RESTART_REPS`] times; each restored linker is the next
/// one snapshotted.
fn restart_stage(ctx: &Ctx<'_>, refs: &Refs, m: &mut Meter) {
    let inputs = ctx.inputs;
    let blocker = ctx.blocker(ctx.plan.serve);
    let sample = ctx.restart_sample();
    let mut linker = Some(Linker::new(blocker, ctx.jw95, ctx.world.local.clone()));
    let mut scratch = ProbeScratch::new();
    for _ in 0..RESTART_REPS {
        m.snapshot_dirs += 1;
        let dir = ctx.workdir.join(format!("snapshot-{}", m.snapshot_dirs));
        let serving = linker.take().expect("a linker serves between restarts");
        m.tracer.next_op();
        let receipt = m.tracer.time("persist.snapshot", || serving.snapshot(&dir));
        m.attempt(receipt.is_ok());
        if let Ok(receipt) = &receipt {
            m.snapshot_bytes = receipt.total_bytes;
        }
        drop(serving);

        m.tracer.next_op();
        let started = Instant::now();
        let span = m.tracer.open("restart_to_first_probe");
        let opened = m
            .tracer
            .time("serve.open", || Linker::open(&dir, blocker, ctx.jw95));
        let mut answered = Digest::default();
        let mut healthy = opened.is_ok();
        if let Ok((restored, _)) = &opened {
            let first = m.tracer.open("serve.probe");
            match restored.try_probe_with(&inputs.providers[sample[0]], &mut scratch) {
                Ok(hits) => hits.matches.iter().for_each(|l| answered.add(l)),
                Err(_) => healthy = false,
            }
            m.tracer.close(first);
        }
        m.tracer.close(span);
        m.push("restart_to_first_probe_ms", seconds_since(started) * 1e3);
        m.calibrate();

        if let Ok((restored, _)) = &opened {
            for &p in &sample[1..] {
                match restored.try_probe_with(&inputs.providers[p], &mut scratch) {
                    Ok(hits) => hits.matches.iter().for_each(|l| answered.add(l)),
                    Err(_) => healthy = false,
                }
            }
        }
        m.attempt(healthy && answered == refs.restart_probes);
        let _ = std::fs::remove_dir_all(&dir);
        linker = Some(match opened {
            Ok((restored, _)) => restored,
            Err(_) => Linker::new(blocker, ctx.jw95, ctx.world.local.clone()),
        });
    }
}

fn cycle(ctx: &Ctx<'_>, refs: &Refs, m: &mut Meter) {
    let started = Instant::now();
    m.calibrate();
    link_stage(ctx, m);
    m.calibrate();
    learn_stage(ctx, m);
    feed_stage(ctx, refs, m);
    m.calibrate();
    for _ in 0..SERVE_PASSES {
        serve_stage(ctx, m);
        m.calibrate();
    }
    restart_stage(ctx, refs, m);
    m.cycle_s[usize::from(m.tracer.is_on())].push(seconds_since(started));
}

/// How a metric's samples become its compared value.
#[derive(Debug, Clone, Copy)]
pub enum Agg {
    /// The quietest sample: the per-layer durations, which are compared
    /// with each other inside one run.
    Min,
    Median,
    /// The quietest sample over the host's slowdown while the samples were
    /// taken (see [`calib`]): the end-to-end durations, which are compared
    /// between runs.
    Calibrated(f64),
    /// The median over that slowdown: `setup_s`, which has three samples.
    CalibratedMedian(f64),
}

pub fn record(
    workload: &str,
    kind: Kind,
    (metric, unit, better): (&str, &str, &str),
    samples: &[f64],
    agg: Agg,
) -> Record {
    let summary = stats::summarize(samples).unwrap_or_default();
    Record {
        workload: workload.to_string(),
        metric: metric.to_string(),
        kind,
        unit: unit.to_string(),
        better: better.to_string(),
        value: match agg {
            Agg::Min => summary.min,
            Agg::Median => summary.median,
            Agg::Calibrated(slowdown) => summary.min / slowdown,
            Agg::CalibratedMedian(slowdown) => summary.median / slowdown,
        },
        summary,
    }
}

fn end_to_end_records(ctx: &Ctx<'_>, m: &Meter, setups: &[f64]) -> Vec<Record> {
    let quality = m.link_reference.unwrap_or_default().quality;
    let slowdown = calib::slowdown(&m.calibration_s);
    let calibrated = Agg::Calibrated(slowdown);
    END_TO_END
        .iter()
        .map(|&declared| {
            let (samples, agg): (Vec<f64>, Agg) = match declared.0 {
                "setup_s" => (setups.to_vec(), Agg::CalibratedMedian(slowdown)),
                "probe_p50_us" => (m.probe_percentiles(false, 0.50), calibrated),
                "probe_p99_us" => (m.probe_percentiles(false, 0.99), calibrated),
                "pair_precision" => (vec![quality.precision], Agg::Median),
                "pair_recall" => (vec![quality.recall], Agg::Median),
                "reduction_ratio" => (vec![quality.reduction], Agg::Median),
                "peak_rss_mb" => (vec![procfs::peak_rss_mb()], Agg::Median),
                "failed_share" => (
                    vec![m.failed as f64 / m.attempted.max(1) as f64],
                    Agg::Median,
                ),
                timed => (m.samples(false, timed).to_vec(), calibrated),
            };
            record(ctx.plan.name, Kind::EndToEnd, declared, &samples, agg)
        })
        .collect()
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Workdir(PathBuf);

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared by concurrent runs; this only succeeds for
        // the last one out.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run one workload: set up, cycle for `seconds`, report.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let plan = plan(&options.workload)
        .ok_or_else(|| format!("unknown workload {:?}", options.workload))?;

    // Snapshots go under the working directory (the checkout), never /tmp.
    let workdir = Workdir(PathBuf::from(".linkbench_work").join(std::process::id().to_string()));
    std::fs::create_dir_all(&workdir.0).map_err(|e| format!("{}: {e}", workdir.0.display()))?;

    // Before anything of the engine's is allocated.
    let calibrator = Calibrator::new();

    // Set-up is repeated so its time can be reported as a median.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..3 {
        drop(built.take());
        let started = Instant::now();
        built = Some(setup(options.scale, options.seed, &plan));
        setups.push(seconds_since(started));
    }
    let (inputs, world) = built.expect("set up three times");

    let (jw95, jw_jaccard) = (inputs::jw95(), inputs::jw_jaccard());
    let (standard, bigram, sorted) = (
        inputs::standard_blocker(),
        inputs::bigram_blocker(),
        inputs::sorted_blocker(),
    );
    let rules = RuleBasedBlocker::new(
        &world.classifier,
        &inputs.scenario.instances,
        &inputs.scenario.ontology,
    );
    let ctx = Ctx {
        plan,
        scale: options.scale,
        threads: inputs::threads(),
        inputs: &inputs,
        world: &world,
        jw95: &jw95,
        jw_jaccard: &jw_jaccard,
        standard: &standard,
        bigram: &bigram,
        sorted: &sorted,
        rules: &rules,
        workdir: &workdir.0,
    };
    let refs = prepare(&ctx);

    // Cycle until the next cycle would end further past the measuring
    // time than stopping now falls short of it. A traced run alternates
    // untraced and traced cycles, so both see the same phases of host
    // noise and their ratio is the tracing overhead.
    let mut m = Meter {
        calibrator: Some(calibrator),
        ..Meter::default()
    };
    let usage_before = procfs::Usage::now();
    let started = Instant::now();
    let mut cycles = 0usize;
    loop {
        m.tracer.set_on(options.trace && cycles.is_multiple_of(2));
        cycle(&ctx, &refs, &mut m);
        cycles += 1;
        let elapsed = seconds_since(started);
        let enough = cycles >= if options.trace { 2 } else { 1 };
        if enough && elapsed + 0.5 * elapsed / cycles as f64 >= options.seconds {
            break;
        }
    }
    m.tracer.set_on(false);
    let usage = procfs::Usage::now().since(usage_before);

    let records = if options.trace {
        let records = layers::profile(&ctx, &refs, &mut m, usage);
        if let Some(out) = &options.out {
            std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
            let path = out.join(format!("trace-{}.jsonl", plan.name));
            m.tracer
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        records
    } else {
        end_to_end_records(&ctx, &m, &setups)
    };
    Ok(Outcome {
        records,
        attempted: m.attempted,
        failed: m.failed,
    })
}
