//! The end-to-end linkage pipeline: blocking → pairwise comparison → links.
//!
//! This is the "linking method" the paper assumes downstream of its
//! classification rules: once the linking space has been reduced (by a
//! blocker or by the rules), every remaining candidate pair is compared and
//! decided. The pipeline counts comparisons so that experiments can report
//! exactly how much work each reduction strategy saves.
//!
//! The comparison phase runs on the columnar [`RecordStore`]: the
//! comparator is compiled once (property IRIs → interned ids), and the
//! candidates are scored **where the blocker left them**. Blocking
//! streams per-shard run-length blocks of shard-local candidates
//! ([`Blocker::stream_candidates`] into a [`CandidateRuns`] sink; a
//! single store is one shard, see [`LinkagePipeline::run_sharded`]), and
//! those blocks *are* the work list — the pipeline never materialises a
//! global candidate vector (or even a per-pair vector), never sorts
//! candidates, and never routes a global id back to a shard.
//!
//! One function, `score_block`, scores a block: it hoists the block's
//! constant external record once ([`CompiledComparator::hoist_left`]),
//! sifts the local run — straight off its span / key-table / explicit
//! encoding — through the comparator's run prefilter
//! ([`CompiledComparator::survivors`]: two signature words per value, no
//! value byte), and scores the locals that survive
//! ([`CompiledComparator::score_hoisted`]) — no locks, no term cloning,
//! and no per-pair bounds check, the sink having checked every id as the
//! blocker pushed it. A serial
//! run and a serving-layer probe reach it through `score_shard`, which
//! walks a shard's blocks in emission order; a threaded run through a
//! **work-stealing scheduler** private to this module, whose workers
//! claim the next `STEAL_BLOCK` **comparisons** of a shard with one
//! atomic increment over a comparison-count prefix sum (claims split
//! inside large blocks, so a single cartesian span still load-balances),
//! drain their home shard first, then steal from the others. Per-thread
//! output vectors are concatenated and sorted by **index pair**, so the
//! output is byte-identical regardless of thread count, steal order, or
//! sharding; only the surviving links materialise their [`Term`]s.

use crate::blocking::{Blocker, CandidateRuns, LocalRun};
use crate::comparator::{CompiledComparator, LeftHoist, MatchDecision, RecordComparator};
use crate::error::{panic_payload, LinkError, LinkResult};
use crate::shard::LocalShards;
use crate::similarity::SimScratch;
use crate::store::RecordStore;
use classilink_rdf::Term;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// One discovered link (or possible link) between an external and a local
/// record.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// The external item.
    pub external: Term,
    /// The local item.
    pub local: Term,
    /// The aggregated similarity score.
    pub score: f64,
}

/// The outcome of running the pipeline on a pair of record sets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkageResult {
    /// Pairs decided as matches, sorted by (external, local) record index.
    pub matches: Vec<Link>,
    /// Pairs decided as possible matches (for clerical review), sorted by
    /// (external, local) record index.
    pub possible: Vec<Link>,
    /// Number of **candidate pairs** the blocker emitted — each is decided
    /// exactly once, so this is the linkage-space size the reduction ratio
    /// is about. It is *not* a count of similarity-kernel runs: the
    /// block scoring path decides most non-matches on a cheap bound
    /// ([`CompiledComparator::survivors`], then
    /// [`CompiledComparator::score_hoisted`]; kernel runs are
    /// [`SimScratch::kernel_calls`]).
    pub comparisons: u64,
    /// Size of the naive linking space `|SE| × |SL|`.
    pub naive_pairs: u64,
    /// `1 − comparisons / naive_pairs`.
    pub reduction_ratio: f64,
}

impl LinkageResult {
    /// `(external, local)` pairs decided as matches.
    pub fn matched_pairs(&self) -> Vec<(Term, Term)> {
        self.matches
            .iter()
            .map(|l| (l.external.clone(), l.local.clone()))
            .collect()
    }
}

/// A scored candidate, still as store indexes (terms are materialised
/// only for pairs that survive thresholding). Crate-visible: the
/// serving layer ([`crate::serve`]) buckets its probe scores into the
/// same shape before materialising.
pub(crate) type ScoredPair = (usize, usize, f64);

/// One scoring thread's working set, reused for every pair it scores:
/// the similarity scratch, the hoisted external record of the block in
/// hand, and the scored pairs that survived thresholding (local side in
/// global ids). The serving layer parks one between probes.
#[derive(Debug, Default)]
pub(crate) struct Scorer<'e> {
    scratch: SimScratch,
    hoist: LeftHoist<'e>,
    /// The locals of the block in hand that the run prefilter let through.
    survivors: Vec<u32>,
    pub(crate) matches: Vec<ScoredPair>,
    pub(crate) possible: Vec<ScoredPair>,
}

impl Scorer<'_> {
    /// Empty the scorer and release its borrow of the external store,
    /// keeping every buffer's capacity (see [`LeftHoist::recycle`]).
    pub(crate) fn recycle<'b>(mut self) -> Scorer<'b> {
        self.matches.clear();
        self.possible.clear();
        Scorer {
            scratch: self.scratch,
            hoist: self.hoist.recycle(),
            survivors: self.survivors,
            matches: self.matches,
            possible: self.possible,
        }
    }
}

/// A blocking strategy plus a record comparator, with optional multi-threaded
/// comparison.
pub struct LinkagePipeline<'a> {
    blocker: &'a dyn Blocker,
    comparator: &'a RecordComparator,
    /// Number of worker threads used for the comparison phase (1 = serial).
    pub threads: usize,
}

impl<'a> LinkagePipeline<'a> {
    /// A serial pipeline.
    pub fn new(blocker: &'a dyn Blocker, comparator: &'a RecordComparator) -> Self {
        LinkagePipeline {
            blocker,
            comparator,
            threads: 1,
        }
    }

    /// Use up to `threads` worker threads for the comparison phase.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run blocking and comparison against a catalog — a
    /// [`ShardedStore`](crate::shard::ShardedStore), or a single
    /// [`RecordStore`] viewed as one shard (both convert into
    /// [`LocalShards`]).
    ///
    /// Blocking **streams per-shard candidate runs** (shard-local ids,
    /// see [`Blocker::stream_candidates`]) into the sink the comparison
    /// phase scores from: no global candidate vector is
    /// materialised, nothing is sorted between the phases, and no global
    /// id is routed back through the offset table's binary search — the
    /// sum of run lengths is the comparison count. The comparator is
    /// compiled **once** against the shared schema and reused by every
    /// worker on every shard. Output is byte-identical however the
    /// catalog is sharded.
    ///
    /// Panics on a contained fault — the fault-tolerant entry point is
    /// [`try_run_sharded`](Self::try_run_sharded).
    pub fn run_sharded<'s>(
        &self,
        external: &RecordStore,
        local: impl Into<LocalShards<'s>>,
    ) -> LinkageResult {
        self.try_run_sharded(external, local)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`run_sharded`](Self::run_sharded): a panic inside the
    /// blocking or comparison phase is caught at the phase boundary and
    /// returned as a [`LinkError`] instead of unwinding into the caller.
    /// The stores and their lazily built indexes stay valid — a clean
    /// retry is bit-identical to a never-faulted run.
    pub fn try_run_sharded<'s>(
        &self,
        external: &RecordStore,
        local: impl Into<LocalShards<'s>>,
    ) -> LinkResult<LinkageResult> {
        self.try_run_sharded_delta(external, local, 0)
    }

    /// Incremental linking against an appended catalog: link `external`
    /// only against the records of shards `first_new_shard..` (the
    /// shards a
    /// [`ShardedStore::append_shards`](crate::shard::ShardedStore::append_shards)
    /// just added), reusing the cached key/bigram/token artifacts of the
    /// untouched shards.
    ///
    /// The result is **bit-identical to the new-shard slice of a full
    /// re-run**: the same `(external, local, score)` links
    /// [`run_sharded`](Self::run_sharded) would report with a local side
    /// at global id ≥ `offset(first_new_shard)`, with `comparisons` and
    /// `naive_pairs` counting only the delta work (so `reduction_ratio`
    /// is the delta's own reduction). Per-shard-independent blockers
    /// skip old shards outright (their probe loops never run); the
    /// sorted-neighbourhood window still places every external in the
    /// whole catalog's ladder — its windows span the shard boundary — but
    /// that is one merge walk of the externals' own ladder over it and two
    /// slices per external (the merged ladder is cached on the catalog,
    /// and an appended catalog merges only its new shards into its
    /// parent's), and old-shard candidates are skipped before the sink,
    /// so only new-shard pairs are ever scored.
    ///
    /// Panics on a contained fault — the fault-tolerant entry point is
    /// [`try_run_sharded_delta`](Self::try_run_sharded_delta).
    pub fn run_sharded_delta<'s>(
        &self,
        external: &RecordStore,
        local: impl Into<LocalShards<'s>>,
        first_new_shard: usize,
    ) -> LinkageResult {
        self.try_run_sharded_delta(external, local, first_new_shard)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`run_sharded_delta`](Self::run_sharded_delta): see
    /// [`try_run_sharded`](Self::try_run_sharded) for the containment
    /// contract. A `first_new_shard` of 0 is the full run; one at or
    /// past the shard count is an empty delta (zero comparisons), not an
    /// error.
    pub fn try_run_sharded_delta<'s>(
        &self,
        external: &RecordStore,
        local: impl Into<LocalShards<'s>>,
        first_new_shard: usize,
    ) -> LinkResult<LinkageResult> {
        let local = local.into();
        let first = first_new_shard.min(local.shard_count());
        let mut runs = CandidateRuns::new();
        runs.restrict_to_shards_from(first);
        self.stream_blocking(external, local, &mut runs)?;
        let delta_len = if first == local.shard_count() {
            0
        } else {
            local.len() - local.offset(first)
        };
        let naive_pairs = external.len() as u64 * delta_len as u64;
        let compiled = self
            .comparator
            .compile_schemas(external.interner(), local.schema());
        // Before the workers start, so the scoring loop only ever sees the
        // cached token tables and signature columns of the catalog. Only
        // the shards from `first` on can be cold; an old shard's were built
        // by the full run (or a previous delta). The external side's tables
        // are built by the first hoist that reads them.
        compiled.warm(local.iter().skip(first));
        let (matches, possible) = self.score(&compiled, external, local, &runs, first)?;
        Ok(self.finish(
            matches,
            possible,
            runs.total(),
            naive_pairs,
            external,
            local,
        ))
    }

    /// The blocking failure domain: stream candidates into `runs`,
    /// converting a blocker panic into [`LinkError::BlockingPanicked`].
    /// The sink resets itself at the start of every stream, so a
    /// partially filled `CandidateRuns` from a faulted call never leaks
    /// into the next one.
    fn stream_blocking(
        &self,
        external: &RecordStore,
        local: LocalShards<'_>,
        runs: &mut CandidateRuns,
    ) -> LinkResult<()> {
        catch_unwind(AssertUnwindSafe(|| {
            self.blocker.stream_candidates(external, local, runs)
        }))
        .map_err(|payload| LinkError::BlockingPanicked {
            blocker: self.blocker.name().to_string(),
            payload: panic_payload(payload),
        })
    }

    /// Score every candidate block of shards `first..`, serially or with
    /// work stealing, returning unsorted scored pairs (local side in
    /// global ids). A panic anywhere in the phase is contained to it and
    /// reported as [`LinkError::WorkerPanicked`] (a stealing worker's by
    /// [`score_stealing`], with the survivors' account).
    fn score(
        &self,
        compiled: &CompiledComparator<'_>,
        external: &RecordStore,
        local: LocalShards<'_>,
        runs: &CandidateRuns,
        first: usize,
    ) -> LinkResult<(Vec<ScoredPair>, Vec<ScoredPair>)> {
        let mut scorer = Scorer::default();
        catch_unwind(AssertUnwindSafe(|| {
            if self.threads > 1 && runs.total() >= STEAL_BLOCK {
                (scorer.matches, scorer.possible) =
                    score_stealing(compiled, external, local, runs, first, self.threads)?;
                return Ok(());
            }
            for shard in first..local.shard_count() {
                score_shard(compiled, runs, external, local, shard, &mut scorer);
            }
            Ok(())
        }))
        .unwrap_or_else(|payload| {
            Err(LinkError::WorkerPanicked {
                worker: 0,
                payload: panic_payload(payload),
                survivors: 0,
                partial_links: scorer.matches.len() + scorer.possible.len(),
            })
        })
        .map(|()| (scorer.matches, scorer.possible))
    }

    /// Sort, account and materialise the result.
    fn finish(
        &self,
        mut matches: Vec<ScoredPair>,
        mut possible: Vec<ScoredPair>,
        comparisons: u64,
        naive_pairs: u64,
        external: &RecordStore,
        local: LocalShards<'_>,
    ) -> LinkageResult {
        // Deterministic output regardless of blocker emission order or
        // steal interleaving: sort by index pair, not by cloned terms.
        matches.sort_unstable_by_key(|a| (a.0, a.1));
        possible.sort_unstable_by_key(|a| (a.0, a.1));
        let reduction_ratio = if naive_pairs == 0 {
            0.0
        } else {
            1.0 - comparisons as f64 / naive_pairs as f64
        };
        let mut result = LinkageResult {
            comparisons,
            naive_pairs,
            reduction_ratio,
            ..LinkageResult::default()
        };
        materialise_into(&mut result.matches, &matches, external, local);
        materialise_into(&mut result.possible, &possible, external, local);
        result
    }
}

/// Number of **comparisons** a worker claims per steal. Large enough
/// that the atomic claim is noise, small enough that an uneven shard
/// doesn't leave workers idle at the tail.
const STEAL_BLOCK: u64 = 1024;

/// One shard's share of a work-stealing run: its candidate blocks in the
/// sink plus a comparison-count prefix sum, so workers claim by
/// **comparison count** (an atomic cursor over `0..total`) rather than by
/// block — a single giant cartesian span still splits across steals.
struct TaskQueue<'a> {
    runs: &'a CandidateRuns,
    local: LocalShards<'a>,
    shard: usize,
    /// `prefix[i]` = comparisons in the shard's blocks `..i`; the last
    /// entry is the shard's total. O(runs) memory, built once per run.
    prefix: Vec<u64>,
    /// Comparison-count cursor: the next unclaimed comparison.
    next: AtomicU64,
}

impl<'a> TaskQueue<'a> {
    fn new(
        runs: &'a CandidateRuns,
        external: &RecordStore,
        local: LocalShards<'a>,
        shard: usize,
    ) -> Self {
        runs.assert_reset_for(external.len(), shard, local.shard(shard).len());
        let mut prefix = vec![0u64];
        for block in runs.blocks(shard) {
            prefix.push(prefix[prefix.len() - 1] + block.len() as u64);
        }
        TaskQueue {
            runs,
            local,
            shard,
            prefix,
            next: AtomicU64::new(0),
        }
    }

    /// Claim the next range of comparisons, or `None` when the queue is
    /// drained.
    fn claim(&self) -> Option<std::ops::Range<u64>> {
        let total = self.prefix[self.prefix.len() - 1];
        let start = self.next.fetch_add(STEAL_BLOCK, Ordering::Relaxed);
        if start >= total {
            return None;
        }
        Some(start..(start + STEAL_BLOCK).min(total))
    }

    /// Score one claimed range of the shard's comparison-count space:
    /// the prefix sum maps it to the blocks it overlaps, and each is
    /// scored — whole, or the claimed part of it — by [`score_block`].
    fn score_claim<'e>(
        &self,
        compiled: &CompiledComparator<'_>,
        claim: std::ops::Range<u64>,
        external: &'e RecordStore,
        scorer: &mut Scorer<'e>,
    ) {
        fail::fail_point!("pipeline::score_range");
        // The block containing the claim's first comparison, and the
        // offset of that comparison within it.
        let mut block = self.prefix.partition_point(|&p| p <= claim.start) - 1;
        let mut offset = (claim.start - self.prefix[block]) as usize;
        let mut remaining = (claim.end - claim.start) as usize;
        while remaining > 0 {
            let run = self.runs.run(self.shard, block);
            let part = offset..run.1.len().min(offset + remaining);
            remaining -= part.len();
            score_block(
                compiled, external, self.local, self.shard, run, part, scorer,
            );
            block += 1;
            offset = 0;
        }
    }
}

/// The work-stealing comparison phase: `threads` scoped workers, each
/// starting on its home queue (`worker index mod queue count`) and, once
/// that is drained, stealing comparison ranges from the remaining queues
/// in ring order. Queues never refill, so a single sweep over the ring
/// visits all work; the atomic comparison-count cursor makes claims
/// race-free without locks, and because claims split *inside* blocks, a
/// single giant cartesian span load-balances like any other work.
///
/// **Panic isolation:** each worker's claim loop runs under
/// [`catch_unwind`], so one panicking worker cannot abort the process or
/// strand the run. Claims are lock-free atomic increments on a cursor
/// that only ever advances, so a dead worker holds no queue state —
/// the surviving workers keep claiming and drain every remaining block
/// (only the dead worker's in-flight claim is lost, and the whole run
/// is reported failed anyway). The join collects per-worker results and
/// turns the first panic into [`LinkError::WorkerPanicked`], carrying
/// how many workers finished cleanly and how many links they drained.
fn score_stealing(
    compiled: &CompiledComparator<'_>,
    external: &RecordStore,
    local: LocalShards<'_>,
    runs: &CandidateRuns,
    first: usize,
    threads: usize,
) -> LinkResult<(Vec<ScoredPair>, Vec<ScoredPair>)> {
    let queues: Vec<TaskQueue<'_>> = (first..local.shard_count())
        .map(|shard| TaskQueue::new(runs, external, local, shard))
        .collect();
    let queues = &queues;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        // One scorer for the worker's whole run: every
                        // pair it scores reuses the same buffers.
                        let mut scorer = Scorer::default();
                        for hop in 0..queues.len() {
                            let queue = &queues[(worker + hop) % queues.len()];
                            while let Some(claim) = queue.claim() {
                                queue.score_claim(compiled, claim, external, &mut scorer);
                            }
                        }
                        (scorer.matches, scorer.possible)
                    }))
                })
            })
            .collect();
        let mut matches = Vec::new();
        let mut possible = Vec::new();
        let mut first_panic: Option<(usize, String)> = None;
        let mut survivors = 0;
        for (worker, handle) in handles.into_iter().enumerate() {
            // The worker closure is a catch_unwind, so the thread itself
            // cannot terminate by panic; join only fails on the (aborting)
            // double-panic path, which never returns here.
            match handle
                .join()
                .expect("worker thread cannot outlive its catch_unwind")
            {
                Ok((worker_matches, worker_possible)) => {
                    survivors += 1;
                    matches.extend(worker_matches);
                    possible.extend(worker_possible);
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some((worker, panic_payload(payload)));
                    }
                }
            }
        }
        match first_panic {
            None => Ok((matches, possible)),
            Some((worker, payload)) => Err(LinkError::WorkerPanicked {
                worker,
                payload,
                survivors,
                partial_links: matches.len() + possible.len(),
            }),
        }
    })
}

/// Score every candidate block the sink holds for `shard`, in emission
/// order, keeping index pairs only (the local side offset back to global
/// ids) — the whole comparison phase of a serial run and of a
/// serving-layer probe ([`crate::serve`]), which is what makes probe
/// results bit-identical to batch results by construction. Panics when
/// the sink was not reset for these stores: the ids it checked on the
/// way in are only known to index *them*.
pub(crate) fn score_shard<'e>(
    compiled: &CompiledComparator<'_>,
    runs: &CandidateRuns,
    external: &'e RecordStore,
    local: LocalShards<'_>,
    shard: usize,
    scorer: &mut Scorer<'e>,
) {
    fail::fail_point!("pipeline::score_range");
    runs.assert_reset_for(external.len(), shard, local.shard(shard).len());
    for block in 0..runs.blocks(shard).len() {
        let run = runs.run(shard, block);
        score_block(
            compiled,
            external,
            local,
            shard,
            run,
            0..run.1.len(),
            scorer,
        );
    }
}

/// Score the locals `part` of one decoded candidate block — external
/// record `e` against a run of `shard` — the one loop over a block,
/// reached by serial runs, stealing workers and probes alike. The
/// external record is **hoisted once** ([`CompiledComparator::hoist_left`]
/// — the left side of a block is constant by construction); the run
/// prefilter ([`CompiledComparator::survivors`]) then reads the part
/// straight off the span or id-slice encoding and keeps the locals two
/// signatures cannot reject — about one in ten of a standard block under
/// `jw95`, in the sift loop compiled with `popcnt` where the comparator
/// found the instruction, the portable one elsewhere — and only those
/// reach the detail-free
/// [`CompiledComparator::score_hoisted`], which decides every pair it is
/// given exactly. No id is bounds-checked against the stores on the way:
/// the sink asserted every id against the stores it was reset for, and the
/// caller that those are these stores. The only allocations are the
/// (amortised) growth of the survivor buffer and the pushes of surviving
/// pairs.
#[inline]
fn score_block<'e>(
    compiled: &CompiledComparator<'_>,
    external: &'e RecordStore,
    local: LocalShards<'_>,
    shard: usize,
    (e, run): (usize, LocalRun<'_>),
    part: std::ops::Range<usize>,
    scorer: &mut Scorer<'e>,
) {
    let (store, base) = (local.shard(shard), local.offset(shard));
    let Scorer {
        scratch,
        hoist,
        survivors,
        matches,
        possible,
    } = scorer;
    compiled.hoist_left(external, e, hoist);
    compiled.survivors(hoist, store, run.slice(part), scratch, survivors);
    for &l in survivors.iter() {
        let l = l as usize;
        match compiled.score_hoisted(hoist, external, store, l, scratch) {
            (score, MatchDecision::Match) => matches.push((e, base + l, score)),
            (score, MatchDecision::Possible) => possible.push((e, base + l, score)),
            (_, MatchDecision::NonMatch) => {}
        }
    }
}

/// Clone terms only for the pairs that became links, into `out` (cleared
/// first, capacity kept — so a warm probe's only allocations are the
/// `Term` clones of each link).
pub(crate) fn materialise_into(
    out: &mut Vec<Link>,
    pairs: &[ScoredPair],
    external: &RecordStore,
    local: LocalShards<'_>,
) {
    out.clear();
    out.extend(pairs.iter().map(|&(e, l, score)| Link {
        external: external.id(e).clone(),
        local: local.id(l).clone(),
        score,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::test_support::*;
    use crate::blocking::{BlockingKey, CartesianBlocker, StandardBlocker};
    use crate::record::Record;
    use crate::serve::{Linker, ProbeScratch};
    use crate::shard::ShardedStore;
    use crate::similarity::SimilarityMeasure;

    fn comparator() -> RecordComparator {
        RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::JaroWinkler)
            .with_thresholds(0.95, 0.7)
    }

    /// Columnarise both sides and link them as one shard.
    fn run(pipeline: &LinkagePipeline<'_>, external: &[Record], local: &[Record]) -> LinkageResult {
        pipeline.run_sharded(
            &RecordStore::from_records(external),
            &RecordStore::from_records(local),
        )
    }

    #[test]
    fn cartesian_pipeline_finds_all_true_links() {
        let (external, local) = small_dataset();
        let cmp = comparator();
        let result = run(
            &LinkagePipeline::new(&CartesianBlocker, &cmp),
            &external,
            &local,
        );
        assert_eq!(result.comparisons, 20);
        assert_eq!(result.naive_pairs, 20);
        assert_eq!(result.reduction_ratio, 0.0);
        assert_eq!(result.matches.len(), 4);
        let pairs = result.matched_pairs();
        assert!(pairs.iter().all(|(e, l)| e
            .as_iri()
            .unwrap()
            .ends_with(&l.as_iri().unwrap()[l.as_iri().unwrap().len() - 1..])));
    }

    #[test]
    fn blocking_reduces_comparisons_without_losing_links() {
        let (external, local) = small_dataset();
        let cmp = comparator();
        let blocker = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 4));
        let result = run(&LinkagePipeline::new(&blocker, &cmp), &external, &local);
        assert!(result.comparisons < 20);
        assert!(result.reduction_ratio > 0.0);
        assert_eq!(result.matches.len(), 4);
    }

    #[test]
    fn possible_matches_are_reported_separately() {
        let (mut external, local) = small_dataset();
        external.push(ext_record(4, "CRCW0805-10X")); // near-miss of local 0
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::JaroWinkler)
            .with_thresholds(0.99, 0.9);
        let result = run(
            &LinkagePipeline::new(&CartesianBlocker, &cmp),
            &external,
            &local,
        );
        assert!(!result.possible.is_empty());
        assert!(result
            .possible
            .iter()
            .all(|l| l.score < 0.99 && l.score >= 0.9));
    }

    #[test]
    fn parallel_and_serial_agree() {
        // Build a dataset large enough to trigger the parallel path.
        let external: Vec<Record> = (0..40)
            .map(|i| ext_record(i, &format!("PN-{i:04}")))
            .collect();
        let local: Vec<Record> = (0..40)
            .map(|i| loc_record(i, &format!("PN-{i:04}")))
            .collect();
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Levenshtein)
            .with_thresholds(0.99, 0.5);
        let serial = run(
            &LinkagePipeline::new(&CartesianBlocker, &cmp),
            &external,
            &local,
        );
        let parallel = run(
            &LinkagePipeline::new(&CartesianBlocker, &cmp).with_threads(4),
            &external,
            &local,
        );
        // Index-sorted output makes the two runs byte-identical.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_inputs_give_empty_result() {
        let cmp = comparator();
        let result = run(&LinkagePipeline::new(&CartesianBlocker, &cmp), &[], &[]);
        assert_eq!(result.comparisons, 0);
        assert!(result.matches.is_empty());
        assert_eq!(result.reduction_ratio, 0.0);
    }

    #[test]
    fn thread_count_is_clamped() {
        let cmp = comparator();
        let p = LinkagePipeline::new(&CartesianBlocker, &cmp).with_threads(0);
        assert_eq!(p.threads, 1);
    }

    #[test]
    fn sharded_run_is_byte_identical_to_single_store() {
        let external: Vec<Record> = (0..40)
            .map(|i| ext_record(i, &format!("PN-{i:04}")))
            .collect();
        let local: Vec<Record> = (0..40)
            .map(|i| loc_record(i, &format!("PN-{i:04}")))
            .collect();
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Levenshtein)
            .with_thresholds(0.99, 0.5);
        let external_store = RecordStore::from_records(&external);
        let local_store = RecordStore::from_records(&local);
        let serial = LinkagePipeline::new(&CartesianBlocker, &cmp)
            .run_sharded(&external_store, &local_store);
        assert_eq!(serial.comparisons, 1600);
        assert_eq!(serial.matches.len(), 40);
        for threads in [1, 4] {
            let pipeline = LinkagePipeline::new(&CartesianBlocker, &cmp).with_threads(threads);
            // A single store is a one-shard view through the same entry
            // point, serial or work-stealing.
            assert_eq!(
                serial,
                pipeline.run_sharded(&external_store, &local_store),
                "single store, {threads} threads mismatch"
            );
            // Shard counts chosen to cover even, uneven and empty shards.
            for shard_count in [1, 3, 7, 41] {
                let sharded = crate::shard::ShardedStore::from_records(&local, shard_count);
                assert_eq!(
                    serial,
                    pipeline.run_sharded(&external_store, &sharded),
                    "{shard_count} shards, {threads} threads mismatch"
                );
            }
        }
    }

    #[test]
    fn sharded_run_on_empty_catalog() {
        let cmp = comparator();
        let sharded = crate::shard::ShardedStore::from_records(&[], 4);
        let result = LinkagePipeline::new(&CartesianBlocker, &cmp)
            .run_sharded(&RecordStore::from_records(&[]), &sharded);
        assert_eq!(result.comparisons, 0);
        assert!(result.matches.is_empty());
        assert_eq!(result.reduction_ratio, 0.0);
    }

    /// Resets the sink correctly, then pushes one thing it cannot index.
    struct Faulty(&'static str);

    impl Blocker for Faulty {
        fn name(&self) -> &'static str {
            "faulty"
        }

        fn stream_candidates(
            &self,
            external: &RecordStore,
            local: LocalShards<'_>,
            out: &mut CandidateRuns,
        ) {
            out.reset(external.len(), local);
            let shard = local.shard(0);
            let side = BlockingKey::per_side(EXT_PN, LOC_PN, 4).local_side(shard);
            match self.0 {
                "external id" => out.push(0, external.len(), 0),
                "local id" => out.push(0, 0, shard.len()),
                "span" => out.push_span(0, 0, 1, shard.len()),
                "keyed range" => {
                    out.set_key_table(0, shard.key_index(&side));
                    out.push_keyed(0, 0, 1, shard.len());
                }
                "arena id" => {
                    out.write_locals(0, [0, shard.len()]);
                }
                "written range" => {
                    let written = out.write_locals(0, [0, 1]);
                    out.push_written(0, 0, written.start..written.end + 1);
                }
                "written external" => {
                    let written = out.write_locals(0, [0, 1]);
                    out.push_written(0, external.len(), written);
                }
                _ => out.set_key_table(0, external.key_index(&side)),
            }
        }
    }

    #[test]
    fn the_sink_refuses_what_it_cannot_index() {
        let (external, local) = small_dataset();
        let probe = external[0].clone();
        let external = RecordStore::from_records(&external);
        // Shards of 3 and 2 records: a key table of the external store
        // (4) or of a probe store (1) fits neither.
        let local = ShardedStore::from_records(&local, 2);
        let cmp = comparator();
        let standard = StandardBlocker::new(BlockingKey::per_side(EXT_PN, LOC_PN, 4));
        let clean = LinkagePipeline::new(&standard, &cmp);
        let clean_linker = Linker::new(&standard, &cmp, local.clone());
        let baseline = clean.run_sharded(&external, &local);
        assert_eq!(baseline.matches.len(), 4);

        let mut scratch = ProbeScratch::new();
        for row in [
            "external id",
            "local id",
            "span",
            "keyed range",
            "key table",
            "arena id",
            "written range",
            "written external",
        ] {
            let faulty = Faulty(row);
            let run = LinkagePipeline::new(&faulty, &cmp).try_run_sharded(&external, &local);
            assert!(
                matches!(&run, Err(LinkError::BlockingPanicked { blocker, .. }) if blocker == "faulty"),
                "{row}: {run:?}"
            );
            assert_eq!(clean.run_sharded(&external, &local), baseline, "{row}");

            let linker = Linker::new(&faulty, &cmp, local.clone());
            let probed = linker.try_probe_with(&probe, &mut scratch).map(|_| ());
            assert!(
                matches!(probed, Err(LinkError::ProbePanicked { .. })),
                "{row}: {probed:?}"
            );
            // The probe is external record 0, whose links lead the run's.
            let healed = clean_linker.probe_with(&probe, &mut scratch);
            assert_eq!(healed.matches, baseline.matches[..1], "{row}");
            let possible = baseline.possible.iter().filter(|l| l.external == probe.id);
            assert!(healed.possible.iter().eq(possible), "{row}");
        }
    }
}
