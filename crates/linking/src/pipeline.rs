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
//! candidates are scored by a **work-stealing run-block scheduler** —
//! every shard of the catalog (a single store is one shard, see
//! [`LinkagePipeline::run_sharded`]) contributes a task queue of
//! run-length [`CandidateBlock`]s with a comparison-count prefix sum;
//! workers claim the next `STEAL_BLOCK` **comparisons** with one atomic
//! increment (claims split inside large blocks, so a single cartesian
//! span still load-balances), drain their home queue first, then steal
//! from the remaining queues (no locks, no term cloning in the loop).
//! Each claimed block hoists its constant external record once
//! ([`CompiledComparator::hoist_left`]) and decodes its locals straight
//! off the span / key-table / explicit encoding; per-block bounds are
//! validated once at queue build, not per pair. Workers keep per-thread
//! output vectors that are concatenated and sorted by **index pair**,
//! so the output is byte-identical regardless of thread count, steal
//! order, or sharding; only the surviving links materialise their
//! [`Term`]s.
//!
//! Blocking feeds the scheduler **by streaming**: the blocker emits
//! per-shard run-length blocks of shard-local candidates
//! ([`Blocker::stream_candidates`] into a [`CandidateRuns`] sink), and
//! those blocks *are* the task queues — the pipeline never materialises
//! a global candidate vector (or even a per-pair vector), never sorts
//! candidates, and never routes a global id back to a shard.

use crate::blocking::{Blocker, CandidateBlock, CandidateRuns, LocalRun};
use crate::comparator::{CompiledComparator, LeftHoist, MatchDecision, RecordComparator};
use crate::error::{panic_payload, LinkError, LinkResult};
use crate::shard::LocalShards;
use crate::similarity::SimScratch;
use crate::store::RecordStore;
use classilink_rdf::Term;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// One discovered link (or possible link) between an external and a local
/// record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// The external item.
    pub external: Term,
    /// The local item.
    pub local: Term,
    /// The aggregated similarity score.
    pub score: f64,
}

/// The outcome of running the pipeline on a pair of record sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LinkageResult {
    /// Pairs decided as matches, sorted by (external, local) record index.
    pub matches: Vec<Link>,
    /// Pairs decided as possible matches (for clerical review), sorted by
    /// (external, local) record index.
    pub possible: Vec<Link>,
    /// Number of **candidate pairs** the blocker emitted — each is decided
    /// exactly once, so this is the linkage-space size the reduction ratio
    /// is about. It is *not* a count of similarity-kernel runs: the
    /// hoisted scoring path decides most non-matches on a cheap bound
    /// ([`CompiledComparator::score_hoisted`]; kernel runs are
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
    /// see [`Blocker::stream_candidates`]) straight into the
    /// work-stealing task queues: no global candidate vector is
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
    /// sorted-neighbourhood window still walks the whole catalog — its
    /// windows span the shard boundary — but old-shard candidates are
    /// dropped at the sink, so only new-shard pairs are ever scored.
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
        if compiled.uses_token_index() {
            // Build the token indexes before the workers start, so the
            // per-pair loop only ever sees the cached index. Only the
            // shards from `first` on can be cold; an old shard's index
            // was built by the full run (or a previous delta).
            external.token_index();
            for s in first..local.shard_count() {
                local.shard(s).token_index();
            }
        }
        let comparisons = runs.total() as usize;
        let queues: Vec<TaskQueue<'_>> = (first..local.shard_count())
            .map(|s| TaskQueue::new(local.shard(s), local.offset(s), &runs, s, external.len()))
            .collect();
        let (matches, possible) = self.score(&compiled, external, &queues, comparisons)?;
        Ok(self.finish(matches, possible, comparisons, naive_pairs, external, local))
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

    /// Score every queued candidate block, serially or with work
    /// stealing, returning unsorted scored pairs (local side in global
    /// ids). A panic inside the scoring loop is contained to this phase
    /// and reported as [`LinkError::WorkerPanicked`].
    fn score(
        &self,
        compiled: &CompiledComparator<'_>,
        external: &RecordStore,
        queues: &[TaskQueue<'_>],
        candidate_count: usize,
    ) -> LinkResult<(Vec<ScoredPair>, Vec<ScoredPair>)> {
        if self.threads <= 1 || candidate_count < STEAL_BLOCK as usize {
            let mut matches = Vec::new();
            let mut possible = Vec::new();
            let scored = catch_unwind(AssertUnwindSafe(|| {
                let mut scratch = SimScratch::new();
                let mut hoist = LeftHoist::new();
                for queue in queues {
                    score_range(
                        compiled,
                        queue,
                        0..queue.total,
                        external,
                        &mut scratch,
                        &mut hoist,
                        &mut matches,
                        &mut possible,
                    );
                }
            }));
            match scored {
                Ok(()) => Ok((matches, possible)),
                Err(payload) => Err(LinkError::WorkerPanicked {
                    worker: 0,
                    payload: panic_payload(payload),
                    survivors: 0,
                    partial_links: matches.len() + possible.len(),
                }),
            }
        } else {
            score_stealing(compiled, external, queues, self.threads)
        }
    }

    /// Sort, account and materialise the result.
    fn finish(
        &self,
        mut matches: Vec<ScoredPair>,
        mut possible: Vec<ScoredPair>,
        comparisons: usize,
        naive_pairs: u64,
        external: &RecordStore,
        local: LocalShards<'_>,
    ) -> LinkageResult {
        // Deterministic output regardless of blocker emission order or
        // steal interleaving: sort by index pair, not by cloned terms.
        matches.sort_unstable_by_key(|a| (a.0, a.1));
        possible.sort_unstable_by_key(|a| (a.0, a.1));
        let comparisons = comparisons as u64;
        let reduction_ratio = if naive_pairs == 0 {
            0.0
        } else {
            1.0 - comparisons as f64 / naive_pairs as f64
        };
        LinkageResult {
            matches: materialise(&matches, external, local),
            possible: materialise(&possible, external, local),
            comparisons,
            naive_pairs,
            reduction_ratio,
        }
    }
}

/// Number of **comparisons** a worker claims per steal. Large enough
/// that the atomic claim is noise, small enough that an uneven shard
/// doesn't leave workers idle at the tail.
const STEAL_BLOCK: u64 = 1024;

/// One store's (or shard's) share of the comparison work: its
/// run-length candidate blocks plus a comparison-count prefix sum, so
/// workers claim by **comparison count** (an atomic cursor over
/// `0..total`) rather than by block — a single giant cartesian span
/// still splits across steals and load-balances.
///
/// Crate-visible: the serving layer ([`crate::serve`]) scores its
/// single-probe candidate runs through the **same** queue + range code
/// path as the batch pipeline, which is what makes probe results
/// bit-identical to batch results by construction.
pub(crate) struct TaskQueue<'a> {
    store: &'a RecordStore,
    /// Global id of the store's record 0 (0 for a monolithic store).
    base: usize,
    /// The shard's candidate blocks, in emission order.
    blocks: &'a [CandidateBlock],
    /// The shard's explicit-locals arena ([`LocalRun::Explicit`]).
    locals: &'a [u32],
    /// The shard key index's sorted record table
    /// ([`LocalRun::Keyed`]; empty when no keyed block exists).
    table: &'a [u32],
    /// `prefix[i]` = comparisons in `blocks[..i]`; `len = blocks + 1`,
    /// `prefix[blocks.len()] == total`. O(runs) memory, built once per
    /// run.
    prefix: Vec<u64>,
    /// Total comparisons queued.
    total: u64,
    /// `true` when the once-per-run bounds validation passed for every
    /// block — the always case for the built-in blockers — letting the
    /// decode loop drop the legacy per-pair bounds checks down to
    /// `debug_assert!`s.
    valid: bool,
    /// Comparison-count cursor: the next unclaimed comparison.
    next: AtomicU64,
}

impl<'a> TaskQueue<'a> {
    /// Build shard `shard`'s queue from the streamed sink: borrow the
    /// blocks and their backing arenas, prefix-sum the block lengths,
    /// and run the **per-run bounds validation** that replaces the old
    /// per-pair `e >= external.len() || l >= local.len()` check — every
    /// block's external id and local-run bounds are checked once here
    /// (the explicit arena via the sink's tracked maximum), not once
    /// per candidate.
    pub(crate) fn new(
        store: &'a RecordStore,
        base: usize,
        runs: &'a CandidateRuns,
        shard: usize,
        external_len: usize,
    ) -> Self {
        Self::with_prefix(store, base, runs, shard, external_len, Vec::new())
    }

    /// [`TaskQueue::new`], but refilling a caller-provided prefix buffer
    /// instead of allocating one — recover it with [`Self::into_prefix`]
    /// after scoring. This is what keeps warm serving-layer probes
    /// allocation-free: the probe scratch owns the buffer across calls.
    pub(crate) fn with_prefix(
        store: &'a RecordStore,
        base: usize,
        runs: &'a CandidateRuns,
        shard: usize,
        external_len: usize,
        mut prefix: Vec<u64>,
    ) -> Self {
        let blocks = runs.blocks(shard);
        let locals = runs.shard_locals(shard);
        let table = runs
            .shard_key_table(shard)
            .map(|index| index.sorted_records())
            .unwrap_or(&[]);
        prefix.clear();
        prefix.reserve(blocks.len() + 1);
        prefix.push(0u64);
        let mut valid =
            locals.is_empty() || (runs.shard_explicit_max(shard) as usize) < store.len();
        // A key table built from this store indexes only ids below
        // `store.len()`, so validating the slice bounds (and the table's
        // provenance, by length) covers every keyed id.
        let table_valid = table.len() == store.len();
        for block in blocks {
            prefix.push(prefix.last().expect("seeded") + block.len() as u64);
            valid &= block.external() < external_len
                && block.bounds_valid(store.len(), locals.len(), table.len(), table_valid);
        }
        let total = *prefix.last().expect("seeded");
        debug_assert_eq!(total, runs.shard_total(shard));
        TaskQueue {
            store,
            base,
            blocks,
            locals,
            table,
            prefix,
            total,
            valid,
            next: AtomicU64::new(0),
        }
    }

    /// Total comparisons queued (the end of the range
    /// [`score_range`] accepts).
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Recover the prefix buffer passed to [`Self::with_prefix`] so the
    /// caller can reuse its capacity for the next queue.
    pub(crate) fn into_prefix(self) -> Vec<u64> {
        self.prefix
    }

    /// Decode one block's local run from the queue's borrowed arenas.
    fn local_run(&self, block: &CandidateBlock) -> LocalRun<'a> {
        block.decode(self.locals, self.table)
    }

    /// Claim the next range of comparisons, or `None` when the queue is
    /// drained.
    fn claim(&self) -> Option<std::ops::Range<u64>> {
        let start = self.next.fetch_add(STEAL_BLOCK, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + STEAL_BLOCK).min(self.total))
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
    queues: &[TaskQueue<'_>],
    threads: usize,
) -> LinkResult<(Vec<ScoredPair>, Vec<ScoredPair>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut matches = Vec::new();
                        let mut possible = Vec::new();
                        // Each worker owns one scratch and one left-side
                        // hoist for its whole run: every pair it scores
                        // reuses the same buffers.
                        let mut scratch = SimScratch::new();
                        let mut hoist = LeftHoist::new();
                        for hop in 0..queues.len() {
                            let queue = &queues[(worker + hop) % queues.len()];
                            while let Some(range) = queue.claim() {
                                score_range(
                                    compiled,
                                    queue,
                                    range,
                                    external,
                                    &mut scratch,
                                    &mut hoist,
                                    &mut matches,
                                    &mut possible,
                                );
                            }
                        }
                        (matches, possible)
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

/// Score the comparisons `range` of one queue (a claimed slice of its
/// comparison-count space), keeping index pairs only (the local side
/// offset back to global ids).
///
/// The range is mapped to blocks through the queue's prefix sum; each
/// overlapped block **hoists its external record once**
/// ([`CompiledComparator::hoist_left`] — the left side of a block is
/// constant by construction) and decodes its local run straight off the
/// span/key-table/explicit encoding. The legacy per-pair bounds check
/// is gone: the queue validated every block once at construction, so
/// the decode loop carries only `debug_assert!`s (an invalid queue —
/// impossible through the built-in blockers — falls back to a cold
/// per-pair-checked path preserving the old skip semantics). Runs on
/// the detail-free [`CompiledComparator::score_hoisted`] path: the only
/// allocations are the (amortised) pushes of surviving pairs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_range<'e>(
    compiled: &CompiledComparator<'_>,
    queue: &TaskQueue<'_>,
    range: std::ops::Range<u64>,
    external: &'e RecordStore,
    scratch: &mut SimScratch,
    hoist: &mut LeftHoist<'e>,
    matches: &mut Vec<ScoredPair>,
    possible: &mut Vec<ScoredPair>,
) {
    fail::fail_point!("pipeline::score_range");
    if range.is_empty() {
        return;
    }
    // The block containing the range's first comparison, and the offset
    // of that comparison within it.
    let mut block_index = queue.prefix.partition_point(|&p| p <= range.start) - 1;
    let mut offset = (range.start - queue.prefix[block_index]) as usize;
    let mut remaining = range.end - range.start;
    while remaining > 0 {
        let block = &queue.blocks[block_index];
        let take = ((block.len() - offset) as u64).min(remaining) as usize;
        let e = block.external();
        if queue.valid {
            compiled.hoist_left(external, e, hoist);
            // The decoded loop carries no per-pair check or dispatch:
            // the run is matched once, and the block was validated when
            // the queue was built.
            match queue.local_run(block) {
                LocalRun::Span { start, .. } => {
                    for l in start + offset..start + offset + take {
                        debug_assert!(l < queue.store.len(), "validated span out of range");
                        score_one(
                            compiled, hoist, external, queue, e, l, scratch, matches, possible,
                        );
                    }
                }
                LocalRun::Keyed(ids) | LocalRun::Explicit(ids) => {
                    for &l in &ids[offset..offset + take] {
                        let l = l as usize;
                        debug_assert!(l < queue.store.len(), "validated run out of range");
                        score_one(
                            compiled, hoist, external, queue, e, l, scratch, matches, possible,
                        );
                    }
                }
            }
        } else if e < external.len() && block.decodable(queue.locals.len(), queue.table.len()) {
            // Cold path (externally built sinks only): per-pair checked,
            // skipping out-of-range ids like the legacy scheduler did.
            compiled.hoist_left(external, e, hoist);
            let run = queue.local_run(block);
            for i in offset..offset + take {
                let l = run.get(i);
                if l >= queue.store.len() {
                    continue;
                }
                score_one(
                    compiled, hoist, external, queue, e, l, scratch, matches, possible,
                );
            }
        }
        remaining -= take as u64;
        block_index += 1;
        offset = 0;
    }
}

/// Score one decoded candidate and bucket it by decision (the shared
/// per-pair tail of [`score_range`]'s hot and cold loops).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn score_one(
    compiled: &CompiledComparator<'_>,
    hoist: &LeftHoist<'_>,
    external: &RecordStore,
    queue: &TaskQueue<'_>,
    e: usize,
    l: usize,
    scratch: &mut SimScratch,
    matches: &mut Vec<ScoredPair>,
    possible: &mut Vec<ScoredPair>,
) {
    let (score, decision) = compiled.score_hoisted(hoist, external, queue.store, l, scratch);
    match decision {
        MatchDecision::Match => matches.push((e, queue.base + l, score)),
        MatchDecision::Possible => possible.push((e, queue.base + l, score)),
        MatchDecision::NonMatch => {}
    }
}

/// Clone terms only for the pairs that became links.
fn materialise(pairs: &[ScoredPair], external: &RecordStore, local: LocalShards<'_>) -> Vec<Link> {
    pairs
        .iter()
        .map(|&(e, l, score)| Link {
            external: external.id(e).clone(),
            local: local.id(l).clone(),
            score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::test_support::*;
    use crate::blocking::{BlockingKey, CartesianBlocker, StandardBlocker};
    use crate::record::Record;
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
}
