//! Each measured layer beside its floor: a program doing the least work
//! the layer's output requires, timed in the same process on the same
//! inputs. Every mode asserts that its floor produces what the layer
//! produces, so a floor cannot be cheap by doing less.
//!
//! ```bash
//! cargo run --release --example floors -- stream         # sorted neighbourhood: feed and delta
//! cargo run --release --example floors -- serial-split   # a standard + jw95 link, stage by stage
//! cargo run --release --example floors -- prefilter      # the run prefilter, key- and id-ordered
//! cargo run --release --example floors -- ingest         # FeedIngest against a counting drain
//! cargo run --release --example floors -- open           # CatalogSnapshot::open against read + XXH64
//! cargo run --release --example floors -- restart        # Linker::open's split, key builds against their floor
//! cargo run --release --example floors -- open tiny      # any mode at tiny(), one repetition
//! ```
//!
//! Each figure is the minimum over [`REPS`] repetitions, in milliseconds,
//! on `paper()` at seed [`SEED`]. Only the engine's public API is used;
//! where a floor needs code from elsewhere it carries a commented copy:
//! `linkbench`'s two feed-document writers and the run prefilter's
//! least-shared test.

use classilink::datagen::scenario::{generate, GeneratedScenario, ScenarioConfig};
use classilink::datagen::vocab::{self, LOCAL_PART_NUMBER, PROVIDER_PART_NUMBER};
use classilink::linking::blocking::{BigramBlocker, SortedNeighborhoodBlocker, StandardBlocker};
use classilink::linking::blocking::{Blocker, BlockingKey, KeySide};
use classilink::linking::similarity::symbols::{self, Signature, SIGNATURE_MAX_LEN};
use classilink::linking::similarity::{common_prefix, jaro_winkler_bound_at, jaro_winkler_with};
use classilink::linking::Record;
use classilink::linking::SimilarityMeasure::JaroWinkler;
use classilink::linking::{CandidateRuns, CatalogSnapshot, FeedFormat, FeedIngest, KeyIndex};
use classilink::linking::{LeftHoist, Linker, LocalRun, MatchDecision, ProbeScratch, PropertyId};
use classilink::linking::{
    RecordComparator, RecordStore, SchemaInterner, ShardedStore, SimScratch,
};
use classilink::rdf::turtle::TurtleStreamer;
use classilink::rdf::{ntriples::NTriplesStreamer, term::escape_literal, triple::TripleRef};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twox_hash::XxHash64;

/// The scenario's seed: `paper()`'s own.
const SEED: u64 = 20_120_326;
/// Repetitions at `paper()`; `tiny` runs one.
const REPS: usize = 9;
/// Catalog shards, as `linkbench` splits them (serial-split runs one).
const SHARDS: usize = 4;
/// Bytes per `feed` call, as `linkbench` feeds.
const CHUNK: usize = 64 * 1024;
/// `jw95`: Jaro-Winkler on the part number, match at 0.95, possible at 0.90.
const MATCH: f64 = 0.95;
const POSSIBLE: f64 = 0.90;
/// What the lone rule must reach to be no non-match: the threshold less
/// `BOUND_SLACK` (`NonMatchFilter::needed` at weight 1).
const NEEDED: f64 = POSSIBLE - 1e-9;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, tiny) = match args.as_slice() {
        [mode] => (mode.as_str(), false),
        [mode, scale] if scale == "tiny" => (mode.as_str(), true),
        _ => usage(),
    };
    let run: fn(&GeneratedScenario, bool, &mut Clock) = match mode {
        "stream" => stream,
        "serial-split" => |scenario, paper, clock| standard_link(scenario, paper, clock, true),
        "prefilter" => |scenario, paper, clock| standard_link(scenario, paper, clock, false),
        "ingest" => ingest,
        "open" => open,
        "restart" => restart,
        _ => usage(),
    };
    let (config, scale, reps) = match tiny {
        true => (ScenarioConfig::tiny(), "tiny", 1),
        false => (ScenarioConfig::paper(), "paper", REPS),
    };
    println!("floors {mode}: {scale}() at seed {SEED}, min of {reps} repetitions, ms");
    let mut clock = Clock(reps, Vec::new());
    run(&generate(&config.with_seed(SEED)), !tiny, &mut clock);
    println!("{:<50}  measured     floor  ratio", "layer");
    for (row, [measured, floor]) in clock.1 {
        let cell = |v: f64| Some(format!("{v:.3}")).filter(|_| v > 0.0 && v.is_finite());
        let [measured, floor, ratio] = [measured, floor, measured / floor].map(cell);
        let [measured, floor, ratio] = [measured, floor, ratio].map(Option::unwrap_or_default);
        println!("{row:<50} {measured:>9} {floor:>9} {ratio:>6}");
    }
}

fn usage() -> ! {
    eprintln!("usage: floors <stream|serial-split|prefilter|ingest|open|restart> [tiny]");
    std::process::exit(2)
}

/// The repetitions, and per row the least measured and floor times.
struct Clock(usize, Vec<(&'static str, [f64; 2])>);

impl Clock {
    fn time<T>(&mut self, row: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(f());
        self.record(row, 0, started.elapsed());
        out
    }

    fn floor<T>(&mut self, row: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(f());
        self.record(row, 1, started.elapsed());
        out
    }

    fn record(&mut self, row: &'static str, column: usize, took: Duration) {
        let at = self.1.iter().position(|(name, _)| *name == row);
        let at = at.unwrap_or_else(|| {
            self.1.push((row, [f64::INFINITY; 2]));
            self.1.len() - 1
        });
        let least = &mut self.1[at].1[column];
        *least = least.min(took.as_secs_f64() * 1e3);
    }
}

fn key(prefix: usize) -> BlockingKey {
    BlockingKey::per_side(PROVIDER_PART_NUMBER, LOCAL_PART_NUMBER, prefix)
}

fn property(store: &RecordStore, iri: &str) -> PropertyId {
    store.property(iri).expect("the store has the property")
}

/// `linkbench`'s feed split: every hundredth catalog record arrives late.
fn held_back(index: usize) -> bool {
    index % 100 == 99
}

// stream: sorted neighbourhood over the fed catalog, then over its delta.

/// A ladder slot as the engine lays it out: the first eight bytes of the
/// sort value as one big-endian word, the shard-local record, its shard.
#[derive(Clone, Copy)]
struct Rung(u64, u32, u32);

/// A catalog's rungs in (sort value, global id) order and, as the engine
/// keeps them in arenas, their sort values end to end: value `i` is
/// `text[ends[i]..ends[i + 1]]`.
type Ladder = (Vec<Rung>, Vec<usize>, String);

/// The engine's ladder word: eight bytes, big-endian, zero-padded.
fn word(value: &str) -> u64 {
    let mut bytes = [0u8; 8];
    let n = value.len().min(8);
    bytes[..n].copy_from_slice(&value.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

/// `linkbench`'s fed catalog: a shard opened every `per_shard` records.
fn catalog_of(records: &[Record], per_shard: usize) -> ShardedStore {
    let mut builder = ShardedStore::builder();
    for (i, record) in records.iter().enumerate() {
        if i % per_shard == 0 {
            builder.begin_shard();
        }
        builder.push(record);
    }
    builder.build()
}

/// `catalog` grown by `records` as one more shard.
fn appended(catalog: &ShardedStore, records: &[Record]) -> ShardedStore {
    let mut delta = catalog.delta_builder();
    delta.begin_shard();
    for record in records {
        delta.push(record);
    }
    catalog.append_shards(delta)
}

fn ladder_of(catalog: &ShardedStore, side: &KeySide) -> Ladder {
    let mut slots = Vec::new();
    for (s, shard) in catalog.shards().iter().enumerate() {
        let keys = shard.key_index(side);
        for r in 0..shard.len() {
            let (value, at) = (keys.sort_value(r), catalog.global(s, r));
            slots.push((value.to_string(), at, Rung(word(value), r as u32, s as u32)));
        }
    }
    slots.sort_unstable_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let (mut rungs, mut ends, mut text) = (Vec::new(), vec![0], String::new());
    for (value, _, rung) in slots {
        text.push_str(&value);
        ends.push(text.len());
        rungs.push(rung);
    }
    (rungs, ends, text)
}

/// The stream floor: one copy of the ladder, one merge walk of the sorted
/// providers over it (a cursor moved past each rung whose word is lower,
/// or equal with a sort value at most the provider's: E + n compares), and
/// the pushes of each window's locals. With `first`, the copy notes where
/// the rungs of shards `first..` sit, and a second cursor over those
/// positions pushes only them. The three buffers are retained.
fn sn_floor(
    (rungs, ends, text): &Ladder,
    providers: &[(u64, &str)],
    reach: usize,
    first: Option<u32>,
    (copy, new, out): &mut (Vec<Rung>, Vec<usize>, Vec<u32>),
) -> u64 {
    copy.clear();
    copy.extend_from_slice(rungs);
    new.clear();
    if let Some(first) = first {
        new.extend((0..copy.len()).filter(|&i| copy[i].2 >= first));
    }
    out.clear();
    let (mut p, mut low) = (0, 0);
    for (word, value) in providers {
        while p < copy.len() && (copy[p].0, &text[ends[p]..ends[p + 1]]) <= (*word, value) {
            p += 1;
        }
        if first.is_none() {
            let window = &copy[p.saturating_sub(reach)..copy.len().min(p + reach)];
            out.extend(window.iter().map(|rung| rung.1));
            continue;
        }
        while low < new.len() && new[low] + reach < p {
            low += 1;
        }
        let window = new[low..].iter().take_while(|&&i| i < p + reach);
        out.extend(window.map(|&i| copy[i].1));
    }
    out.len() as u64
}

fn stream(scenario: &GeneratedScenario, paper: bool, clock: &mut Clock) {
    const WARM: &str = "warm: shard key indexes + ladder merge";
    const KEYS: &str = "providers' key index";
    const FEED: &str = "sn feed stream, window 10 (first use)";
    const FEED_2: &str = "sn feed stream, window 2";
    const DELTA: &str = "sn delta stream, window 10, first use";
    const WARM_DELTA: &str = "sn delta stream, window 10, warm";
    let (mut base, mut late) = (Vec::new(), Vec::new());
    for (i, record) in scenario.local_store().to_records().into_iter().enumerate() {
        if held_back(i) { &mut late } else { &mut base }.push(record);
    }
    let per_shard = base.len() / SHARDS + 1;
    let w10 = SortedNeighborhoodBlocker::new(key(0), 10);
    let w2 = SortedNeighborhoodBlocker::new(key(0), 2);
    let reach = w10.window - 1;

    // The floors' inputs, built once: both ladders and the sorted providers.
    let catalog = catalog_of(&base, per_shard);
    let side = key(0).local_side_of(catalog.schema());
    let ladder = ladder_of(&catalog, &side);
    let grown = ladder_of(&appended(&catalog, &late), &side);
    let providers = scenario.external_store();
    let keys = providers.key_index(&key(0).external_side(&providers));
    // Words and the sort values borrowed from the key index's arena.
    let mut sorted: Vec<_> = (0..providers.len()).map(|e| keys.sort_value(e)).collect();
    sorted.sort_unstable();
    let sorted: Vec<_> = sorted
        .into_iter()
        .map(|value| (word(value), value))
        .collect();

    let (mut feed, mut delta) = (CandidateRuns::new(), CandidateRuns::new());
    let (mut at, mut totals) = (Default::default(), (0, 0));
    delta.restrict_to_shards_from(SHARDS);
    for _ in 0..clock.0 {
        // A fresh catalog and provider store: nothing derived is cached.
        let (catalog, ext) = (catalog_of(&base, per_shard), scenario.external_store());
        clock.time(WARM, || w10.warm(&catalog));
        clock.time(KEYS, || ext.key_index(&key(0).external_side(&ext)));
        clock.time(FEED, || w10.stream_candidates(&ext, &catalog, &mut feed));
        let pushed = clock.floor(FEED, || sn_floor(&ladder, &sorted, reach, None, &mut at));
        assert_eq!(pushed, feed.total(), "the feed floor's candidates");
        clock.time(FEED_2, || w2.stream_candidates(&ext, &catalog, &mut feed));
        let catalog = appended(&catalog, &late);
        // Each delta row's floor is timed right after its stream.
        for row in [DELTA, WARM_DELTA] {
            clock.time(row, || w10.stream_candidates(&ext, &catalog, &mut delta));
            let first = Some(SHARDS as u32);
            let pushed = clock.floor(row, || sn_floor(&grown, &sorted, reach, first, &mut at));
            assert_eq!(pushed, delta.total(), "the delta floor's candidates");
        }
        totals = (pushed, delta.total());
        if paper {
            assert_eq!(totals, (184_615, 1_908));
        }
    }
    let ((feed, delta), shards) = (totals, catalog.shard_count());
    let (locals, late) = (base.len(), late.len());
    println!("checked: {feed} feed, {delta} delta candidates ({locals} locals in {shards} shards + {late} late), floors alike");
}

// The run prefilter's floor, shared by serial-split and prefilter.

/// Value lengths a signature bounds, and Winkler's common-prefix lengths.
const LENGTHS: usize = SIGNATURE_MAX_LEN + 1;
const PREFIXES: usize = 5;

/// A copy of the run prefilter's integer test for `jw95`'s lone rule
/// (`RunFilter::passes` and its `LeastShared` memo, `comparator.rs`), with
/// each shard's key table and its signature column laid out in key-table
/// order and, as the engine holds it, by record id.
struct PrefilterFloor {
    /// Entry `(|a| × 5 + prefix) × 65 + |b|`: the least shared-symbol count
    /// whose bound reaches [`NEEDED`]; all filled up front.
    least: Vec<u8>,
    shards: Vec<(Arc<KeyIndex>, Column, Column)>,
}

/// A CSR of value signatures: slot `i` owns `.1[.0[i]..(.0)[i + 1]]`.
struct Column(Vec<u32>, Vec<Signature>);

impl Column {
    fn of(store: &RecordStore, order: impl Iterator<Item = usize>) -> Column {
        let p = property(store, LOCAL_PART_NUMBER);
        let mut column = Column(vec![0], Vec::new());
        for record in order {
            column.1.extend(store.values(record, p).map(Signature::of));
            column.0.push(column.1.len() as u32);
        }
        column
    }

    #[inline(always)]
    fn at(&self, i: usize) -> &[Signature] {
        &self.1[self.0[i] as usize..self.0[i + 1] as usize]
    }
}

impl PrefilterFloor {
    fn new(catalog: &ShardedStore) -> PrefilterFloor {
        let mut least = vec![0u8; LENGTHS * PREFIXES * LENGTHS];
        for (index, entry) in least.iter_mut().enumerate() {
            let (a, b) = (index / LENGTHS / PREFIXES, index % LENGTHS);
            let prefix = (index / LENGTHS % PREFIXES) as u32;
            // `find_least`'s bisection: the bound grows with the count.
            let (mut low, mut end) = (0, a.min(b) as u32 + 1);
            while low < end {
                let shared = (low + end) / 2;
                match jaro_winkler_bound_at(shared, a, b, prefix) < NEEDED {
                    true => low = shared + 1,
                    false => end = shared,
                }
            }
            *entry = low as u8;
        }
        let side = key(4).local_side_of(catalog.schema());
        let shards = (catalog.shards().iter()).map(|shard| {
            let table = shard.key_index(&side);
            let by_key = Column::of(shard, table.sorted_records().iter().map(|&r| r as usize));
            (table, by_key, Column::of(shard, 0..shard.len()))
        });
        let shards = shards.collect();
        PrefilterFloor { least, shards }
    }

    /// Whether some pairing of the values may reach the need (an unbounded
    /// right value always may, a local without values always stays),
    /// branch-free like the engine's.
    #[inline(always)]
    fn keeps(&self, lefts: &[Signature], rights: &[Signature]) -> bool {
        let mut keep = rights.is_empty();
        for a in lefts {
            let row = a.byte_len().unwrap_or(0) * PREFIXES;
            for b in rights {
                let b_len = b.byte_len().unwrap_or(0).min(SIGNATURE_MAX_LEN);
                let index = (row + a.common_prefix(b) as usize) * LENGTHS + b_len;
                keep |= !b.is_bounded() | (a.shared_upper(b) >= u32::from(self.least[index]));
            }
        }
        keep
    }

    /// The survivors of every block of `runs`, `(external, local)` in block
    /// order, read through the key-ordered column or the id-ordered one.
    /// Like the engine's, the loop runs with `popcnt` where the CPU has it.
    fn sift(&self, runs: &CandidateRuns, ext: &RecordStore, by_key: bool) -> Vec<(u32, u32)> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: the CPU has `popcnt`, the one feature the copy enables.
            return unsafe { self.sift_popcnt(runs, ext, by_key) };
        }
        self.sift_loop(runs, ext, by_key)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn sift_popcnt(&self, runs: &CandidateRuns, e: &RecordStore, key: bool) -> Vec<(u32, u32)> {
        self.sift_loop(runs, e, key)
    }

    #[inline(always)]
    fn sift_loop(&self, runs: &CandidateRuns, ext: &RecordStore, by_key: bool) -> Vec<(u32, u32)> {
        let p = property(ext, PROVIDER_PART_NUMBER);
        // Every local is written at the cursor, which moves past survivors only.
        let (mut out, mut lefts, mut kept) = (Vec::new(), Vec::new(), 0);
        for (s, (table, key_ordered, id_ordered)) in self.shards.iter().enumerate() {
            let (table, column) = (
                table.sorted_records(),
                [id_ordered, key_ordered][by_key as usize],
            );
            for block in 0..runs.blocks(s).len() {
                let (e, LocalRun::Keyed(ids)) = runs.run(s, block) else {
                    panic!("standard blocking emits keyed runs");
                };
                lefts.clear();
                lefts.extend(ext.values(e, p).map(Signature::of));
                let whole = lefts.is_empty() || !lefts.iter().all(Signature::is_bounded);
                // A keyed run is a slice of the key table: its offset there.
                let start = (ids.as_ptr() as usize - table.as_ptr() as usize) / 4;
                out.resize(kept + ids.len(), (0, 0));
                for (at, &l) in (start..).zip(ids) {
                    let rights = column.at(if by_key { at } else { l as usize });
                    out[kept] = (e as u32, l);
                    kept += usize::from(whole || self.keeps(&lefts, rights));
                }
            }
        }
        out.truncate(kept);
        out
    }
}

// serial-split and prefilter: `linkbench`'s `batch_standard` link, serially.

/// Block by block: hoist + prefilter, then `score_hoisted` per survivor.
/// `split` times every stage, on one shard; otherwise the prefilter alone
/// is timed on four shards, against its key- and id-ordered floors.
fn standard_link(scenario: &GeneratedScenario, paper: bool, clock: &mut Clock, split: bool) {
    const STREAM: &str = "stream: standard blocking, prefix 4";
    const PREFILTER: &str = "hoist + run prefilter (floor: key-ordered)";
    const BY_ID: &str = "  the same (floor: id-ordered)";
    const SURVIVORS: &str = "survivors: score_hoisted (floor: count + kernel)";
    let (ext, catalog) = scenario.sharded_stores(if split { 1 } else { SHARDS });
    let blocker = StandardBlocker::new(key(4));
    let cmp = RecordComparator::single(PROVIDER_PART_NUMBER, LOCAL_PART_NUMBER, JaroWinkler);
    let cmp = cmp.with_thresholds(MATCH, POSSIBLE);
    let compiled = cmp.compile_schemas(ext.interner(), catalog.schema());
    let floor = PrefilterFloor::new(&catalog);
    let (mut runs, mut hoist, mut kept) = (CandidateRuns::new(), LeftHoist::new(), Vec::new());
    let mut checked = String::new();
    for _ in 0..clock.0 {
        clock.time(STREAM, || {
            blocker.stream_candidates(&ext, &catalog, &mut runs)
        });
        let (mut scratch, mut sifting, mut scoring) =
            (SimScratch::new(), Duration::ZERO, Duration::ZERO);
        let (mut survivors, mut links) = (Vec::new(), Vec::new());
        for (s, local) in catalog.shards().iter().enumerate() {
            for block in 0..runs.blocks(s).len() {
                let (e, run) = runs.run(s, block);
                let started = Instant::now();
                compiled.hoist_left(&ext, e, &mut hoist);
                compiled.survivors(&mut hoist, local, run, &mut scratch, &mut kept);
                let sifted = Instant::now();
                for &l in kept.iter().filter(|_| split) {
                    let scored =
                        compiled.score_hoisted(&hoist, &ext, local, l as usize, &mut scratch);
                    if scored.1 != MatchDecision::NonMatch {
                        links.push((e, l as usize, scored));
                    }
                }
                (sifting, scoring) = (sifting + (sifted - started), scoring + sifted.elapsed());
                survivors.extend(kept.iter().map(|&l| (e as u32, l)));
            }
        }
        clock.record(PREFILTER, 0, sifting);
        let by_key = clock.floor(PREFILTER, || floor.sift(&runs, &ext, true));
        assert!(
            by_key == survivors,
            "the floor keeps what survivors() keeps"
        );
        if paper {
            assert_eq!((runs.total(), survivors.len()), (5_034_378, 459_651));
        }
        let (pairs, shards) = (runs.total(), catalog.shard_count());
        let survived = survivors.len();
        checked = format!("{pairs} pairs in {shards} shards -> {survived} survivors");
        if !split {
            clock.record(BY_ID, 0, sifting);
            let by_id = clock.floor(BY_ID, || floor.sift(&runs, &ext, false));
            assert!(by_id == survivors, "the floor keeps what survivors() keeps");
            continue;
        }
        clock.record(SURVIVORS, 0, scoring);
        let local = catalog.shard(0);
        let count = |wanted| links.iter().filter(|link| link.2 .1 == wanted).count();
        let decided = (count(MatchDecision::Match), count(MatchDecision::Possible));
        clock.time("finish: sort + id clones", || {
            links.sort_unstable_by_key(|&(e, l, _)| (e, l));
            let link = |&(e, l, (score, _)): &(_, _, (f64, _))| (ext.id(e), local.id(l), score);
            let links = links.iter().map(link);
            links
                .map(|(e, l, score)| (e.clone(), l.clone(), score))
                .collect::<Vec<_>>()
        });
        let funnel = clock.floor(SURVIVORS, || kernel_floor(&ext, local, &survivors));
        assert_eq!(
            funnel,
            (scratch.kernel_calls, decided),
            "the floor's funnel"
        );
        if paper {
            assert_eq!(funnel, (286_244, (6_784, 58_063)));
        }
        let (calls, (matches, possible)) = funnel;
        checked += &format!(" -> {calls} kernel calls -> {matches} match + {possible} possible");
    }
    println!("checked: {checked}, floors alike");
}

/// The survivors' floor through public pieces: each survivor's exact
/// shared-symbol count against its external's masks, hoisted once, and the
/// kernel where the count's bound can still reach the need. Returns the
/// kernel calls and the (match, possible) decisions.
fn kernel_floor(
    ext: &RecordStore,
    local: &RecordStore,
    pairs: &[(u32, u32)],
) -> (u64, (usize, usize)) {
    let (left, right) = (
        property(ext, PROVIDER_PART_NUMBER),
        property(local, LOCAL_PART_NUMBER),
    );
    let (mut scratch, mut calls, mut decided) = (SimScratch::new(), 0, (0, 0));
    let (mut lefts, mut hoisted) = (Vec::new(), None);
    for &(e, l) in pairs {
        if hoisted != Some(e) {
            hoisted = Some(e);
            lefts.clear();
            let values = ext.values(e as usize, left);
            lefts.extend(values.map(|a| (a, symbols::symbol_masks(a))));
        }
        let mut best = f64::NEG_INFINITY;
        for (a, masks) in &lefts {
            for b in local.values(l as usize, right) {
                let shared = masks.as_ref().and_then(|m| symbols::shared_symbols(m, b));
                let bound = |n| jaro_winkler_bound_at(n, a.len(), b.len(), common_prefix(a, b));
                if shared.is_none_or(|n| bound(n) >= NEEDED) {
                    calls += 1;
                    best = best.max(jaro_winkler_with(&mut scratch, a, b));
                }
            }
        }
        decided.0 += usize::from(best >= MATCH);
        decided.1 += usize::from((POSSIBLE..MATCH).contains(&best));
    }
    (calls, decided)
}

// ingest: the two feed documents into stores.

/// Copy of `write_ntriples` in `linkbench/src/inputs.rs`.
fn write_ntriples(out: &mut String, record: &Record) {
    let id = record.id.as_iri().expect("catalog ids are IRIs");
    for (property, values) in &record.attributes {
        for value in values {
            let value = escape_literal(value);
            out.push_str(&format!("<{id}> <{property}> \"{value}\" .\n"));
        }
    }
}

/// Copy of `turtle_document` in `linkbench/src/inputs.rs`.
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

/// `document` fed in [`CHUNK`]s and sealed into shards by one worker,
/// with the triples the shards hold (one a value).
fn fed(format: FeedFormat, document: &str, per_shard: usize) -> (ShardedStore, usize) {
    let mut ingest = FeedIngest::new(format, SchemaInterner::new(), per_shard);
    for chunk in document.as_bytes().chunks(CHUNK) {
        ingest.feed(chunk).expect("the generated documents parse");
    }
    let store = ingest
        .into_builder()
        .and_then(|b| b.try_build_with_workers(1));
    let store = store.expect("the generated documents parse");
    let mut triples = 0;
    for shard in store.shards() {
        for (p, _) in shard.properties() {
            triples += (0..shard.len())
                .map(|r| shard.values(r, p).len())
                .sum::<usize>();
        }
    }
    (store, triples)
}

/// One triple the floor's drain lends: seen, counted.
fn seen(count: &mut usize, triple: TripleRef<'_>) {
    black_box(triple);
    *count += 1;
}

/// The ingest's floor: the streamer's borrowed drain over [`CHUNK`]s,
/// counting the triples.
macro_rules! counting_drain {
    ($streamer:ty, $document:expr) => {{
        let (mut streamer, mut count) = (<$streamer>::new(), 0);
        for chunk in $document.as_bytes().chunks(CHUNK) {
            streamer.feed(chunk);
            streamer.drain(|t| seen(&mut count, t)).expect("it parses");
        }
        streamer.finish();
        streamer.drain(|t| seen(&mut count, t)).expect("it parses");
        count
    }};
}

fn ingest(scenario: &GeneratedScenario, paper: bool, clock: &mut Clock) {
    const CATALOG: &str = "N-Triples catalog -> 4 shards (floor: drain)";
    const PROVIDERS: &str = "Turtle providers -> 1 shard (floor: drain)";
    let records = scenario.local_store().to_records();
    let mut catalog_nt = String::new();
    for (_, record) in records.iter().enumerate().filter(|(i, _)| !held_back(*i)) {
        write_ntriples(&mut catalog_nt, record);
    }
    let providers_ttl = turtle_document(&scenario.external_store().to_records());
    let per_shard = (records.len() - records.len() / 100) / SHARDS + 1;
    let mut checked = String::new();
    for _ in 0..clock.0 {
        let feed = || fed(FeedFormat::NTriples, &catalog_nt, per_shard);
        let (catalog, stored) = clock.time(CATALOG, feed);
        let drained = clock.floor(CATALOG, || counting_drain!(NTriplesStreamer, catalog_nt));
        assert_eq!(drained, stored, "the drain sees what the ingest stores");
        if paper {
            assert_eq!((catalog.len(), drained), (29_700, 89_100));
        }
        let (bytes, shards, records) = (catalog_nt.len(), catalog.shard_count(), catalog.len());
        checked = format!("{bytes} B -> {drained} triples -> {records} records in {shards} shards");
        let feed = || fed(FeedFormat::Turtle, &providers_ttl, usize::MAX);
        let (providers, stored) = clock.time(PROVIDERS, feed);
        let drained = clock.floor(PROVIDERS, || counting_drain!(TurtleStreamer, providers_ttl));
        assert_eq!(drained, stored, "the drain sees what the ingest stores");
        let (bytes, records) = (providers_ttl.len(), providers.len());
        checked += &format!("; {bytes} B -> {drained} triples -> {records} records");
    }
    println!("checked: {checked}; drains alike");
}

// open: a restart's restore.

fn open(scenario: &GeneratedScenario, _paper: bool, clock: &mut Clock) {
    const OPEN: &str = "snapshot open, 4 shards (floor: read + XXH64)";
    let (_, catalog) = scenario.sharded_stores(SHARDS);
    let dir = std::env::temp_dir().join(format!("classilink-floors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let receipt = CatalogSnapshot::write(&dir, &catalog).expect("the snapshot writes");
    // The data files, `<kind>-<XXH64 in hex>.<ext>`, each with its name's hash.
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("the snapshot directory") {
        let path = entry.expect("a directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let hash = name
            .split_once('-')
            .and_then(|(_, rest)| rest.split_once('.'));
        if let Some(hash) = hash.and_then(|(hex, _)| u64::from_str_radix(hex, 16).ok()) {
            files.push((path.clone(), hash));
        }
    }
    for _ in 0..clock.0 {
        let restore = || CatalogSnapshot::open(&dir).expect("the snapshot opens");
        let (restored, _) = clock.time(OPEN, restore);
        assert!(
            restored == catalog,
            "the restored catalog is the written one"
        );
        let hash =
            |(path, _): &(_, u64)| XxHash64::oneshot(0, &std::fs::read(path).expect("a data file"));
        let hashes = clock.floor(OPEN, || files.iter().map(hash).collect::<Vec<_>>());
        let named: Vec<u64> = files.iter().map(|file| file.1).collect();
        assert_eq!(hashes, named, "each file hashes to its name");
    }
    let (records, shards, bytes) = (catalog.len(), catalog.shard_count(), receipt.total_bytes);
    let files = files.len();
    println!("checked: {records} records in {shards} shards, {files} data files of {bytes} B, restored equal, each hashing to its name");
    std::fs::remove_dir_all(&dir).expect("the snapshot directory is removed");
}

// restart: `Linker::open` of the restored catalog, step by step, to its first probe.

fn restart(scenario: &GeneratedScenario, paper: bool, clock: &mut Clock) {
    const OPEN: &str = "snapshot open, 4 shards";
    const SORTS: &str = "  the floor's integer (word, record) sorts alone";
    const ROWS: [&str; 6] = [
        "standard warm: 4 key builds (floor: copy + sort)",
        "  standard Linker::new: comparator warm",
        "  standard first probe",
        "bigram warm: 4 key builds + gram counters",
        "  bigram Linker::new: comparator warm",
        "  bigram first probe",
    ];
    let (ext, catalog) = scenario.sharded_stores(SHARDS);
    let dir = std::env::temp_dir().join(format!("classilink-floors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CatalogSnapshot::write(&dir, &catalog).expect("the snapshot writes");
    let cmp = RecordComparator::single(PROVIDER_PART_NUMBER, LOCAL_PART_NUMBER, JaroWinkler);
    let cmp = cmp.with_thresholds(MATCH, POSSIBLE);
    let standard = StandardBlocker::new(key(4));
    let bigram = BigramBlocker::new(key(0), 0.7);
    let blockers: [&(dyn Blocker + Sync); 2] = [&standard, &bigram];
    let (probe, mut scratch, mut links) = (ext.record(0), ProbeScratch::new(), Vec::new());
    let side = key(4).local_side_of(catalog.schema());
    for _ in 0..clock.0 {
        for (rows, blocker) in ROWS.chunks(3).zip(blockers) {
            let restore = || CatalogSnapshot::open(&dir).expect("the snapshot opens").0;
            let restored = clock.time(OPEN, restore);
            clock.time(rows[0], || blocker.warm(&restored));
            if rows[0] == ROWS[0] {
                let tables: Vec<_> = (restored.shards().iter())
                    .map(|shard| shard.key_index(&side))
                    .collect();
                let floor = || (copied_values(&restored), integer_sorts(&tables));
                clock.floor(rows[0], floor);
                let sorted = clock.floor(SORTS, || integer_sorts(&tables));
                let keyed = tables.iter().map(|table| table.sorted_records());
                assert!(sorted.iter().eq(keyed), "the sorts are the key tables");
            }
            let linker = clock.time(rows[1], || Linker::new(blocker, &cmp, restored));
            let hits = clock.time(rows[2], || linker.probe_with(&probe, &mut scratch));
            links.push(hits.matches.len() + hits.possible.len());
        }
    }
    let links = &links[links.len() - 2..];
    if paper {
        assert_eq!(links, [1, 1], "each first probe's links");
    }
    let (records, shards) = (catalog.len(), catalog.shard_count());
    println!("checked: {records} records in {shards} shards restored, key tables = integer sorts, first probes {links:?} links");
    std::fs::remove_dir_all(&dir).expect("the snapshot directory is removed");
}

/// The key build's floor for normalising: each record's first part number,
/// its bytes copied into one arena a shard.
fn copied_values(catalog: &ShardedStore) -> Vec<(String, Vec<u32>)> {
    let p = property(catalog.shard(0), LOCAL_PART_NUMBER);
    let copy = |shard: &Arc<RecordStore>| {
        let (mut text, mut ends) = (String::new(), Vec::with_capacity(shard.len()));
        for r in 0..shard.len() {
            text.push_str(shard.first(r, p).unwrap_or_default());
            ends.push(text.len() as u32);
        }
        (text, ends)
    };
    catalog.shards().iter().map(copy).collect()
}

/// The key build's floor for sorting: each shard's records by their keys'
/// words, as one integer sort of (word, record).
fn integer_sorts(tables: &[Arc<KeyIndex>]) -> Vec<Vec<u32>> {
    let sort = |table: &Arc<KeyIndex>| {
        let words = (0..table.len()).map(|r| (word(table.key(r)), r as u32));
        let mut rungs: Vec<_> = words.collect();
        rungs.sort_unstable();
        rungs.into_iter().map(|(_, r)| r).collect()
    };
    tables.iter().map(sort).collect()
}
