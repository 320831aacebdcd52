//! Blocking: generating candidate pairs without comparing everything.
//!
//! The related-work section of the paper surveys the classic families of
//! methods for reducing the number of comparisons — blocking on a key,
//! sorted neighbourhood, bi-gram indexing — and the paper's own contribution
//! is an alternative based on learnt classification rules. This module
//! implements all of them behind one [`Blocker`] trait so that the
//! experiments can compare them on the same data (experiment E5 of the
//! experiment index in the `classilink-eval` crate docs).
//!
//! Blockers run on the columnar [`RecordStore`]: they resolve property
//! IRIs to interned ids once per call, emit candidate pairs as record
//! *indices*, and never clone a term or hash an IRI per record.
//!
//! Candidate generation is **streaming and shard-aware**: the pipeline
//! calls [`Blocker::stream_candidates`], which emits per-shard runs of
//! shard-local pairs into a [`CandidateRuns`] sink — the comparison
//! phase scores those runs where they lie, so no global pair vector is
//! ever materialised. The sink checks every id against the stores it was
//! reset for **as it takes a block**, which is why nothing downstream
//! validates a candidate again. The built-in blockers compute their
//! external-side artifacts (key tables, bigram gram-id sets, rule
//! classifications) once per run and read per-record keys and bigrams
//! from the store-level [`KeyIndex`] cache, making steady-state blocking
//! allocation-free. Callers that want a flat pair list (tests,
//! evaluation reports) decode the sink with [`collect_pairs`].

pub mod bigram;
pub mod key;
pub mod rule_based;
pub mod sorted_neighborhood;
pub mod standard;

pub use bigram::BigramBlocker;
pub use key::{BlockingKey, KeySide};
pub use rule_based::RuleBasedBlocker;
pub use sorted_neighborhood::SortedNeighborhoodBlocker;
pub use standard::StandardBlocker;

use crate::shard::LocalShards;
use crate::store::RecordStore;
use crate::token_index::KeyIndex;
use std::ops::Range;
use std::sync::Arc;

/// A candidate pair, given as indexes into the external and local record
/// stores handed to the blocker.
pub type CandidatePair = (usize, usize);

/// How one [`CandidateBlock`]'s local side is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunKind {
    /// A contiguous span of shard-local ids, `start .. start + len`.
    Span,
    /// `len` entries of the shard [`KeyIndex`]'s key-sorted record
    /// table, starting at `start`.
    Keyed,
    /// `len` entries of the sink's per-shard explicit-locals arena,
    /// starting at `start`, that `push` wrote for this block alone.
    Explicit,
    /// The same, over a range `write_locals` wrote for blocks to share.
    Shared,
}

/// One run-length candidate block: one external record against a run of
/// shard-local records — the unit the comparison phase hoists for and
/// scores (see [`CandidateRuns`]).
///
/// The left side of a block is constant *by construction*, which is
/// what lets the comparison phase hoist the external record's resolved
/// column values and token views once per block instead of re-fetching
/// them per pair. The local side is one of three encodings
/// ([`LocalRun`]): a contiguous span (cartesian, rule-based fallback),
/// a slice of the shard [`KeyIndex`]'s key-sorted record table
/// (standard blocking: one block per external × equal-range), or a
/// slice of the sink's explicit-locals arena (sparse producers: bigram,
/// sorted-neighbourhood windows; rule extents, one slice shared by all
/// the externals predicted into the same classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateBlock {
    /// The external record every pair of this block shares.
    external: u32,
    /// Encoding-specific start (span origin, key-table index, or
    /// explicit-arena index).
    start: u32,
    /// Number of local records — the block's comparison count.
    len: u32,
    /// Which encoding `start`/`len` address.
    kind: RunKind,
}

impl CandidateBlock {
    /// The external record id shared by every pair of this block.
    pub fn external(&self) -> usize {
        self.external as usize
    }

    /// Number of candidate pairs this block encodes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the block encodes no pair (never produced by the
    /// built-in blockers — empty runs are skipped at push time).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A decoded view of one [`CandidateBlock`]'s local side.
#[derive(Debug, Clone, Copy)]
pub enum LocalRun<'a> {
    /// A contiguous span of shard-local ids.
    Span {
        /// First shard-local id of the span.
        start: usize,
        /// Number of consecutive ids.
        len: usize,
    },
    /// Shard-local ids from the shard [`KeyIndex`]'s key-sorted record
    /// table (one standard-blocking block).
    Keyed(&'a [u32]),
    /// Explicitly enumerated shard-local ids (sparse producers).
    Explicit(&'a [u32]),
}

impl<'a> LocalRun<'a> {
    /// Number of local records in the run.
    pub fn len(&self) -> usize {
        match self {
            LocalRun::Span { len, .. } => *len,
            LocalRun::Keyed(ids) | LocalRun::Explicit(ids) => ids.len(),
        }
    }

    /// `true` when the run holds no local record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run of this run's ids `part` (positions, not ids).
    ///
    /// # Panics
    /// Panics when `part` reaches past `len()`.
    pub fn slice(&self, part: std::ops::Range<usize>) -> LocalRun<'a> {
        match *self {
            LocalRun::Span { start, len } => {
                assert!(
                    part.start <= part.end && part.end <= len,
                    "run part {part:?} out of range ({len})"
                );
                LocalRun::Span {
                    start: start + part.start,
                    len: part.len(),
                }
            }
            LocalRun::Keyed(ids) => LocalRun::Keyed(&ids[part]),
            LocalRun::Explicit(ids) => LocalRun::Explicit(&ids[part]),
        }
    }

    /// Iterate the shard-local ids in run order (the iterator borrows
    /// the backing arena, not this — run-of-a-temporary decoding works).
    pub fn iter(&self) -> LocalRunIter<'a> {
        LocalRunIter {
            inner: match self {
                LocalRun::Span { start, len } => RunIterInner::Span(*start..*start + *len),
                LocalRun::Keyed(ids) | LocalRun::Explicit(ids) => RunIterInner::Slice(ids.iter()),
            },
        }
    }
}

/// Iterator over one [`LocalRun`]'s shard-local ids.
#[derive(Debug, Clone)]
pub struct LocalRunIter<'a> {
    inner: RunIterInner<'a>,
}

#[derive(Debug, Clone)]
enum RunIterInner<'a> {
    Span(std::ops::Range<usize>),
    Slice(std::slice::Iter<'a, u32>),
}

impl Iterator for LocalRunIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match &mut self.inner {
            RunIterInner::Span(range) => range.next(),
            RunIterInner::Slice(ids) => ids.next().map(|&l| l as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            RunIterInner::Span(range) => range.size_hint(),
            RunIterInner::Slice(ids) => ids.size_hint(),
        }
    }
}

impl ExactSizeIterator for LocalRunIter<'_> {}

/// One shard's share of the sink: its candidate blocks, the
/// explicit-locals arena they slice, and (for keyed blocks) the shard's
/// key index.
#[derive(Debug, Default)]
struct ShardRun {
    /// The run-length candidate blocks, in emission order.
    blocks: Vec<CandidateBlock>,
    /// Explicit shard-local ids; [`RunKind::Explicit`] blocks own
    /// disjoint slices, [`RunKind::Shared`] blocks share written ones.
    locals: Vec<u32>,
    /// The key index whose sorted record table [`RunKind::Keyed`]
    /// blocks slice (set by the blocker before pushing keyed blocks).
    key_table: Option<Arc<KeyIndex>>,
    /// Record count of the shard the sink was reset for — the bound
    /// every local id is checked against as it is pushed.
    records: usize,
}

impl ShardRun {
    fn clear(&mut self, records: usize) {
        self.blocks.clear();
        self.locals.clear();
        self.key_table = None;
        self.records = records;
    }

    /// Decode one block's local side (the block must belong to this
    /// shard; its range was checked when it was pushed).
    fn local_run(&self, block: &CandidateBlock) -> LocalRun<'_> {
        let range = block.start as usize..block.start as usize + block.len as usize;
        match block.kind {
            RunKind::Span => LocalRun::Span {
                start: range.start,
                len: range.len(),
            },
            RunKind::Keyed => {
                let table = self.key_table.as_ref();
                let table = table.expect("push_keyed checked the key table");
                LocalRun::Keyed(&table.sorted_records()[range])
            }
            RunKind::Explicit | RunKind::Shared => LocalRun::Explicit(&self.locals[range]),
        }
    }

    /// Append one block of `len` pairs.
    #[inline]
    fn push_block(&mut self, kind: RunKind, external: usize, start: usize, len: usize) {
        self.blocks.push(CandidateBlock {
            external: run_u32(external),
            start: run_u32(start),
            len: run_u32(len),
            kind,
        });
    }
}

/// The streaming blocking sink: per-shard **run-length candidate
/// blocks** over **shard-local** ids, produced by
/// [`Blocker::stream_candidates`] and scored by the comparison phase
/// where they lie — no global pair vector is built or sorted, no global
/// id is routed back to a shard, and dense blockers do not pay one sink
/// entry per pair.
///
/// **Ids are checked on the way in.** [`reset`](Self::reset) takes the
/// record counts of the stores the coming stream is about, and every
/// push asserts its ids against them (the external id where a block
/// opens, the local id or range where it is pushed or written). An
/// out-of-range candidate is therefore a panic inside the blocking
/// failure domain (`LinkError::BlockingPanicked` from a pipeline run,
/// `ProbePanicked` from a probe) — never a pair the comparison phase has
/// to check, skip or miscount.
///
/// Every block pairs **one external record** with a [`LocalRun`]:
///
/// * [`push_span`](Self::push_span) — a contiguous span of shard-local
///   ids (cartesian, rule-based fallback): one block per external ×
///   shard, O(1) however many pairs it encodes;
/// * [`push_keyed`](Self::push_keyed) — a range of the shard
///   [`KeyIndex`]'s key-sorted record table (standard blocking): one
///   block per external × equal-range, again O(1);
/// * [`push`](Self::push) — one explicit pair; consecutive pushes for
///   the same (shard, external) coalesce into one explicit block over
///   the sink's locals arena (bigram, sorted-neighbourhood);
/// * [`write_locals`](Self::write_locals) once, then
///   [`push_written`](Self::push_written) per external — O(1) blocks
///   sharing one arena slice (rule extents), which `push` never extends.
///
/// For dense producers queue memory is therefore O(runs), not
/// O(candidates) — [`queue_bytes`](Self::queue_bytes) vs
/// [`pair_bytes`](Self::pair_bytes) quantifies the drop (~100–5000×
/// for cartesian, standard and rule blocks on the paper preset). The
/// sparse producers keep their pushes per external consecutive (bigram
/// emits per probe, sorted neighbourhood anchors its window walk on
/// the external entries), so even they coalesce into one block per
/// (shard, external) and stay below the flat encoding as long as runs
/// hold more than a record or two (the identity matrix,
/// `tests/common/matrix.rs`, asserts `queue_bytes ≤ pair_bytes` for the
/// standard, sorted-neighbourhood and bigram blockers).
///
/// The sink is reusable: [`stream_candidates`](Blocker::stream_candidates)
/// clears it (capacity retained) before producing, so a long-lived sink
/// makes repeated blocking runs allocation-free in steady state (the
/// output buffers grow once). It also carries the shared per-call
/// scratch (counters, marks) the built-in blockers use, so their probe
/// loops allocate nothing per record either — proved by
/// `crates/linking/tests/zero_alloc.rs`.
#[derive(Debug, Default)]
pub struct CandidateRuns {
    /// Per-shard candidate blocks and their backing arenas.
    per_shard: Vec<ShardRun>,
    /// Sum of all block lengths — the comparison count, by construction.
    total: u64,
    /// Record count of the external store the sink was reset for — the
    /// bound every block's external id is checked against.
    externals: usize,
    /// First shard the sink accepts candidates for (see
    /// [`restrict_to_shards_from`](Self::restrict_to_shards_from));
    /// pushes to earlier shards are silently dropped. 0 = accept all.
    first_active: usize,
    /// Reusable probe scratch shared by the built-in blockers.
    pub(crate) scratch: RunScratch,
}

/// Reusable per-sink scratch: counter planes and epoch-stamped visit
/// marks, grown once and reused across streaming calls.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    /// The bigram probe's bit-sliced shared-gram counters: one carry
    /// row, then one plane per count bit, each `⌈shard records / 64⌉`
    /// words. Zeroed per probe.
    pub planes: Vec<u64>,
    /// Epoch-stamped marks over global ids (the rule blocker's union of
    /// predicted extents): `marks[i] == epoch` means "seen this epoch".
    pub marks: Vec<u32>,
    /// `tceil[m] = ceil(threshold · m)` — the integer sharing-rule
    /// table the bigram probe replaces per-pair float math with.
    /// Rebuilt per streaming call (the threshold is per-blocker),
    /// within retained capacity.
    pub tceil: Vec<u32>,
    /// External gram id → shard gram id translation (`u32::MAX` =
    /// absent from the shard), rebuilt per shard by a sorted merge of
    /// the two gram tables.
    pub gram_map: Vec<u32>,
    /// Sorted neighbourhood's insertion point of each external, indexed
    /// by external id: how many rungs of the local ladder sort at or
    /// before it. Rewritten per streaming call.
    pub places: Vec<u32>,
    epoch: u32,
}

/// Filter counters of a bigram probe. The probe counts every shared
/// gram exactly and filters nothing, so all four are always zero; the
/// type remains because `linkbench` reports its fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BigramFilterStats {
    /// Always zero.
    pub grams_skipped_prefix: u64,
    /// Always zero.
    pub postings_skipped_length: u64,
    /// Always zero.
    pub postings_skipped_position: u64,
    /// Always zero.
    pub verify_merges: u64,
}

impl RunScratch {
    /// Open a new mark epoch over `len` slots and return its stamp;
    /// stale stamps from earlier epochs read as "unseen". The
    /// (theoretical) wrap clears the array — an epoch value may
    /// otherwise alias a stale pre-wrap stamp.
    pub(crate) fn next_epoch(&mut self, len: usize) -> u32 {
        if self.marks.len() < len {
            self.marks.resize(len, 0);
        }
        if self.epoch == u32::MAX {
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Convert an emitted id to the sink's `u32` encoding, failing loudly
/// on overflow (stores are `u32`-bounded, so built-in blockers never
/// hit this).
#[inline]
fn run_u32(n: usize) -> u32 {
    u32::try_from(n).expect("candidate block field exceeds u32::MAX; shard the store")
}

/// The sink's bounds check: panics — inside the blocking failure domain —
/// unless `id` is below the record count the sink was reset for.
#[inline]
fn check_id(what: &str, id: usize, records: usize) {
    assert!(id < records, "candidate {what} {id} not below {records}");
}

impl CandidateRuns {
    /// An empty sink; the first streaming call sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every run and re-size to `local`'s shards, retaining buffer
    /// capacity, and take the bounds the coming stream's ids must
    /// respect: external ids below `externals`, shard-local ids below
    /// their shard's record count. What every
    /// [`stream_candidates`](Blocker::stream_candidates) runs first, as
    /// `out.reset(external.len(), local)`.
    pub fn reset(&mut self, externals: usize, local: LocalShards<'_>) {
        self.per_shard
            .resize_with(local.shard_count(), ShardRun::default);
        for (run, shard) in self.per_shard.iter_mut().zip(local.iter()) {
            run.clear(shard.len());
        }
        self.externals = externals;
        self.total = 0;
        // Deliberately NOT cleared: the restriction is a property of the
        // sink's consumer (the delta pipeline), not of one producer call,
        // and `reset` is what every `stream_candidates` impl runs first.
    }

    /// Panics unless the sink was last [`reset`](Self::reset) for
    /// `externals` external records and `records` records in `shard` —
    /// the comparison phase's one check per shard that the ids it is
    /// about to index with were checked against these very stores.
    pub(crate) fn assert_reset_for(&self, externals: usize, shard: usize, records: usize) {
        let reset_for = (self.externals, self.per_shard[shard].records);
        assert!(reset_for == (externals, records), "reset for other stores");
    }

    /// Restrict the sink to shards `first..`: candidates a blocker emits
    /// for earlier shards are **silently dropped** (not an error — a
    /// blocker with global state, like sorted neighbourhood, must still
    /// walk the whole catalog to emit the right new-shard candidates).
    /// This is the delta-linking contract of
    /// [`LinkagePipeline::run_sharded_delta`](crate::pipeline::LinkagePipeline::run_sharded_delta):
    /// the surviving blocks are exactly the `first..` slice of an
    /// unrestricted run. The restriction is sticky across
    /// [`reset`](Self::reset); construct a fresh sink to lift it.
    pub fn restrict_to_shards_from(&mut self, first: usize) {
        self.first_active = first;
    }

    /// `true` when the sink accepts candidates for `shard` — blockers
    /// whose per-shard work is independent check this to skip the
    /// entire shard's probe loop (and its index builds) under a delta
    /// restriction.
    #[inline]
    pub fn shard_active(&self, shard: usize) -> bool {
        shard >= self.first_active
    }

    /// Emit one candidate: external record `external` against
    /// **shard-local** record `local` of shard `shard`. Consecutive
    /// pushes for the same `(shard, external)` coalesce into one
    /// explicit block. Like the other `push_*` forms, panics on an id
    /// outside the bounds given to [`reset`](Self::reset).
    // Out of line: inlined into the bigram probe's emit loop, it made the
    // paper-scale bigram stream ~6 % slower.
    #[inline(never)]
    pub fn push(&mut self, shard: usize, external: usize, local: usize) {
        if shard < self.first_active {
            return;
        }
        let run = &mut self.per_shard[shard];
        check_id("local id", local, run.records);
        let tip = run.locals.len();
        match run.blocks.last_mut() {
            // The explicit run of the same external ending at the arena
            // tip: coalesce.
            Some(block)
                if block.kind == RunKind::Explicit
                    && block.external as usize == external
                    && block.start as usize + block.len as usize == tip =>
            {
                block.len += 1
            }
            _ => {
                check_id("external id", external, self.externals);
                run.push_block(RunKind::Explicit, external, tip, 1);
            }
        }
        run.locals.push(run_u32(local));
        self.total += 1;
    }

    /// Emit one **span** block: `external` against the contiguous
    /// shard-local ids `start .. start + len` of shard `shard` (the
    /// cartesian / fallback-to-all encoding — O(1) per block, however
    /// many pairs it covers). Empty spans are skipped.
    #[inline]
    pub fn push_span(&mut self, shard: usize, external: usize, start: usize, len: usize) {
        self.push_range(RunKind::Span, shard, external, start, len);
    }

    /// Emit one **keyed** block: `external` against the `len` records
    /// at `table_start` of the shard's key-sorted record table (the
    /// standard-blocking encoding: one block per external ×
    /// equal-range). The shard's [`KeyIndex`] must have been attached
    /// with [`set_key_table`](Self::set_key_table) first. Empty ranges
    /// are skipped.
    #[inline]
    pub fn push_keyed(&mut self, shard: usize, external: usize, table_start: usize, len: usize) {
        self.push_range(RunKind::Keyed, shard, external, table_start, len);
    }

    /// Write `locals` into shard `shard`'s explicit-locals arena, each
    /// checked against the shard's record count, and return the range
    /// they fill, for [`push_written`](Self::push_written) blocks to
    /// share. An inactive shard takes nothing (`locals` is not consumed).
    pub fn write_locals(
        &mut self,
        shard: usize,
        locals: impl IntoIterator<Item = usize>,
    ) -> Range<usize> {
        let run = &mut self.per_shard[shard];
        let (start, records) = (run.locals.len(), run.records);
        if shard >= self.first_active {
            let check = |&l: &usize| check_id("local id", l, records);
            let locals = locals.into_iter().inspect(check);
            run.locals.extend(locals.map(run_u32));
        }
        start..run.locals.len()
    }

    /// Emit one block: `external` against the arena `range` of shard
    /// `shard` that [`write_locals`](Self::write_locals) filled — O(1),
    /// never extended by [`push`](Self::push). Empty ranges are skipped.
    #[inline]
    pub fn push_written(&mut self, shard: usize, external: usize, range: Range<usize>) {
        self.push_range(RunKind::Shared, shard, external, range.start, range.len());
    }

    /// One block over `start .. start + len` of the shard's written
    /// arena, its records or its key table — which
    /// [`set_key_table`](Self::set_key_table) holds to one entry per
    /// record, so the last two answer to the same bound.
    #[inline]
    fn push_range(
        &mut self,
        kind: RunKind,
        shard: usize,
        external: usize,
        start: usize,
        len: usize,
    ) {
        if len == 0 || shard < self.first_active {
            return;
        }
        check_id("external id", external, self.externals);
        let run = &mut self.per_shard[shard];
        let arena = (kind == RunKind::Shared).then_some(run.locals.len());
        let end = start.saturating_add(len - 1);
        check_id("range end", end, arena.unwrap_or(run.records));
        let keyed = kind == RunKind::Keyed;
        assert!(!keyed || run.key_table.is_some(), "no key table attached");
        run.push_block(kind, external, start, len);
        self.total += len as u64;
    }

    /// Attach the [`KeyIndex`] whose sorted record table this shard's
    /// keyed blocks slice. Must precede any
    /// [`push_keyed`](Self::push_keyed) for the shard; the sink keeps
    /// the `Arc` alive for the decode path. Panics unless the table has
    /// one entry per record of the shard the sink was reset for.
    pub fn set_key_table(&mut self, shard: usize, table: Arc<KeyIndex>) {
        let run = &mut self.per_shard[shard];
        let entries = table.sorted_records().len();
        assert_eq!(entries, run.records, "key table of another store");
        run.key_table = Some(table);
    }

    /// Number of shards the sink currently holds runs for.
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// One shard's candidate blocks, in emission order.
    pub fn blocks(&self, shard: usize) -> &[CandidateBlock] {
        &self.per_shard[shard].blocks
    }

    /// Decode one shard's `index`-th block: its external record id and
    /// its local run.
    pub fn run(&self, shard: usize, index: usize) -> (usize, LocalRun<'_>) {
        let run = &self.per_shard[shard];
        let block = &run.blocks[index];
        (block.external as usize, run.local_run(block))
    }

    /// Decode one shard's candidates as explicit shard-local pairs, in
    /// block emission order.
    pub fn pairs(&self, shard: usize) -> impl Iterator<Item = CandidatePair> + '_ {
        let run = &self.per_shard[shard];
        run.blocks.iter().flat_map(move |block| {
            let external = block.external as usize;
            run.local_run(block).iter().map(move |l| (external, l))
        })
    }

    /// All zero: no producer filters (see [`BigramFilterStats`]).
    pub fn bigram_filter_stats(&self) -> BigramFilterStats {
        BigramFilterStats::default()
    }

    /// One shard's comparison count (the sum of its block lengths).
    pub fn shard_total(&self, shard: usize) -> u64 {
        let blocks = self.per_shard[shard].blocks.iter();
        blocks.map(|block| block.len as u64).sum()
    }

    /// Total number of candidates across all shards — the comparison
    /// count of the run.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes the sink's queue structures occupy: blocks plus the
    /// explicit-locals arenas (capacity, since the sink retains it).
    /// O(runs) — compare [`pair_bytes`](Self::pair_bytes).
    pub fn queue_bytes(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|run| {
                (run.blocks.capacity() * std::mem::size_of::<CandidateBlock>()
                    + run.locals.capacity() * std::mem::size_of::<u32>()) as u64
            })
            .sum()
    }

    /// Bytes the same candidates would occupy as one flat
    /// `(usize, usize)` per pair — O(candidates), the denominator of
    /// the run-length saving.
    pub fn pair_bytes(&self) -> u64 {
        self.total * std::mem::size_of::<CandidatePair>() as u64
    }
}

/// A strategy that selects which (external, local) record pairs are worth
/// comparing.
pub trait Blocker {
    /// A short stable name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Stream candidate pairs as **per-shard runs of shard-local ids**
    /// into `out` — the one blocking entry point. The comparison phase
    /// scores the runs straight off the sink, so no global pair vector
    /// is materialised, nothing is sorted, and no global id is ever
    /// routed back to a shard; the sum of run lengths is the comparison
    /// count.
    ///
    /// Implementations must first clear `out` with
    /// [`out.reset(external.len(), local)`](CandidateRuns::reset) — the
    /// sink panics on any id outside those bounds — and then emit every
    /// candidate pair exactly once (no duplicates),
    /// skipping shards the sink is not
    /// [active](CandidateRuns::shard_active) for where their per-shard
    /// work is independent. The built-in blockers compute external-side
    /// artifacts once and share them across shards, with keys and
    /// bigrams served by the store-level [`KeyIndex`].
    fn stream_candidates(
        &self,
        external: &RecordStore,
        local: LocalShards<'_>,
        out: &mut CandidateRuns,
    );

    /// Eagerly build the **local-side artifacts** this blocker reads
    /// while streaming — key indexes, sort ladders, bigram gram tables
    /// and counters. The serving layer
    /// ([`Linker`](crate::serve::Linker)) calls this once per published
    /// catalog epoch so no probe ever pays a first-call index build;
    /// batch callers never need it (the same builds happen lazily on
    /// first stream). The default does nothing (cartesian keeps no
    /// local-side state).
    fn warm(&self, local: LocalShards<'_>) {
        let _ = local;
    }
}

/// Run `blocker` and decode the sink into one flat pair list: every
/// candidate as `(external id, **global** local id)`, sorted ascending
/// by that pair — the same list for a [`RecordStore`] and for any
/// sharding of it. For tests, evaluation and reports; the pipeline
/// consumes the sink directly and never builds this vector.
pub fn collect_pairs<'a>(
    blocker: &dyn Blocker,
    external: &RecordStore,
    local: impl Into<LocalShards<'a>>,
) -> Vec<CandidatePair> {
    let local = local.into();
    let mut runs = CandidateRuns::new();
    blocker.stream_candidates(external, local, &mut runs);
    let mut pairs = Vec::with_capacity(runs.total() as usize);
    for s in 0..runs.shard_count() {
        let base = local.offset(s);
        pairs.extend(runs.pairs(s).map(|(e, l)| (e, base + l)));
    }
    pairs.sort_unstable();
    pairs
}

/// The exhaustive baseline: every external record is compared with every
/// local record (`|SE| × |SL|` pairs). This is the naive linking space the
/// paper sets out to reduce.
#[derive(Debug, Clone, Copy, Default)]
pub struct CartesianBlocker;

impl Blocker for CartesianBlocker {
    fn name(&self) -> &'static str {
        "cartesian"
    }

    /// Every external × every shard record, as **one
    /// span block per external per shard** — O(externals × shards)
    /// blocks for O(externals × records) candidates, the densest
    /// possible run-length compression.
    fn stream_candidates(
        &self,
        external: &RecordStore,
        local: LocalShards<'_>,
        out: &mut CandidateRuns,
    ) {
        out.reset(external.len(), local);
        fail::fail_point!("blocking::cartesian");
        for (s, shard) in local.iter().enumerate() {
            if !out.shard_active(s) {
                continue;
            }
            for e in 0..external.len() {
                out.push_span(s, e, 0, shard.len());
            }
        }
    }
}

/// Summary statistics of one blocking run, evaluated against a gold standard
/// of true pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockingStats {
    /// Number of candidate pairs produced.
    pub candidate_pairs: u64,
    /// Size of the cartesian product.
    pub total_pairs: u64,
    /// Number of true pairs covered by the candidates.
    pub true_pairs_found: u64,
    /// Number of true pairs in the gold standard.
    pub true_pairs_total: u64,
    /// `1 − candidates / total`: fraction of comparisons avoided.
    pub reduction_ratio: f64,
    /// `found / total true pairs` (recall of the blocking step).
    pub pairs_completeness: f64,
    /// `found / candidates` (precision of the blocking step).
    pub pairs_quality: f64,
}

impl BlockingStats {
    /// Evaluate a candidate set against a gold standard of true index pairs.
    pub fn evaluate(
        candidates: &[CandidatePair],
        true_pairs: &std::collections::HashSet<CandidatePair>,
        external_count: usize,
        local_count: usize,
    ) -> Self {
        let candidate_pairs = candidates.len() as u64;
        let total_pairs = external_count as u64 * local_count as u64;
        let found = candidates.iter().filter(|p| true_pairs.contains(p)).count() as u64;
        let reduction_ratio = if total_pairs == 0 {
            0.0
        } else {
            1.0 - candidate_pairs as f64 / total_pairs as f64
        };
        let pairs_completeness = if true_pairs.is_empty() {
            1.0
        } else {
            found as f64 / true_pairs.len() as f64
        };
        let pairs_quality = if candidate_pairs == 0 {
            0.0
        } else {
            found as f64 / candidate_pairs as f64
        };
        BlockingStats {
            candidate_pairs,
            total_pairs,
            true_pairs_found: found,
            true_pairs_total: true_pairs.len() as u64,
            reduction_ratio,
            pairs_completeness,
            pairs_quality,
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::record::Record;
    use classilink_rdf::Term;

    pub const EXT_PN: &str = "http://provider.e.org/v#ref";
    pub const LOC_PN: &str = "http://local.e.org/v#partNumber";

    pub fn ext_record(i: usize, pn: &str) -> Record {
        let mut r = Record::new(Term::iri(format!("http://provider.e.org/item/{i}")));
        r.add(EXT_PN, pn);
        r
    }

    pub fn loc_record(i: usize, pn: &str) -> Record {
        let mut r = Record::new(Term::iri(format!("http://local.e.org/prod/{i}")));
        r.add(LOC_PN, pn);
        r
    }

    /// 4 external and 5 local records; externals 0..4 truly match locals 0..4.
    pub fn small_dataset() -> (Vec<Record>, Vec<Record>) {
        let external = vec![
            ext_record(0, "CRCW0805-10K"),
            ext_record(1, "CRCW0603-22K"),
            ext_record(2, "T83-A225"),
            ext_record(3, "LM317-TO220"),
        ];
        let local = vec![
            loc_record(0, "CRCW0805-10K"),
            loc_record(1, "CRCW0603-22K"),
            loc_record(2, "T83-A225"),
            loc_record(3, "LM317-TO220"),
            loc_record(4, "1N4148-DO35"),
        ];
        (external, local)
    }

    /// The small dataset, columnarised.
    pub fn small_stores() -> (RecordStore, RecordStore) {
        let (external, local) = small_dataset();
        (
            RecordStore::from_records(&external),
            RecordStore::from_records(&local),
        )
    }

    /// An empty pair of stores.
    pub fn empty_stores() -> (RecordStore, RecordStore) {
        (
            RecordStore::from_records(&[]),
            RecordStore::from_records(&[]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cartesian_produces_all_pairs() {
        let (external, local) = small_stores();
        let pairs = collect_pairs(&CartesianBlocker, &external, &local);
        assert_eq!(pairs.len(), 20);
        assert_eq!(CartesianBlocker.name(), "cartesian");
        let unique: HashSet<_> = pairs.iter().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn cartesian_with_empty_sides() {
        let (external, empty) = {
            let (e, _) = small_stores();
            (e, RecordStore::from_records(&[]))
        };
        assert!(collect_pairs(&CartesianBlocker, &external, &empty).is_empty());
        assert!(collect_pairs(&CartesianBlocker, &empty, &external).is_empty());
    }

    #[test]
    fn stats_for_perfect_blocking() {
        let true_pairs: HashSet<CandidatePair> = (0..4).map(|i| (i, i)).collect();
        let candidates: Vec<CandidatePair> = (0..4).map(|i| (i, i)).collect();
        let stats = BlockingStats::evaluate(&candidates, &true_pairs, 4, 5);
        assert_eq!(stats.candidate_pairs, 4);
        assert_eq!(stats.total_pairs, 20);
        assert_eq!(stats.true_pairs_found, 4);
        assert_eq!(stats.pairs_completeness, 1.0);
        assert_eq!(stats.pairs_quality, 1.0);
        assert!((stats.reduction_ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn stats_for_cartesian_blocking() {
        let (external, local) = small_stores();
        let true_pairs: HashSet<CandidatePair> = (0..4).map(|i| (i, i)).collect();
        let candidates = collect_pairs(&CartesianBlocker, &external, &local);
        let stats = BlockingStats::evaluate(&candidates, &true_pairs, 4, 5);
        assert_eq!(stats.reduction_ratio, 0.0);
        assert_eq!(stats.pairs_completeness, 1.0);
        assert!((stats.pairs_quality - 4.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn stats_degenerate_cases() {
        let stats = BlockingStats::evaluate(&[], &HashSet::new(), 0, 0);
        assert_eq!(stats.reduction_ratio, 0.0);
        assert_eq!(stats.pairs_completeness, 1.0);
        assert_eq!(stats.pairs_quality, 0.0);
    }

    fn shard_pairs(runs: &CandidateRuns, shard: usize) -> Vec<CandidatePair> {
        runs.pairs(shard).collect()
    }

    /// `shards` shards of `records` records, to reset the sink against.
    fn catalog(shards: usize, records: usize) -> crate::shard::ShardedStore {
        let all: Vec<_> = (0..records * shards).map(|i| loc_record(i, "PN")).collect();
        crate::shard::ShardedStore::from_records(&all, shards)
    }

    #[test]
    fn candidate_runs_push_reset_and_totals() {
        let mut runs = CandidateRuns::new();
        runs.reset(10, (&catalog(3, 10)).into());
        assert_eq!(runs.shard_count(), 3);
        runs.push(0, 1, 2);
        runs.push(2, 0, 0);
        runs.push(2, 4, 1);
        assert_eq!(runs.total(), 3);
        assert_eq!(shard_pairs(&runs, 0), vec![(1, 2)]);
        assert!(shard_pairs(&runs, 1).is_empty());
        assert_eq!(shard_pairs(&runs, 2), vec![(0, 0), (4, 1)]);
        assert_eq!(runs.shard_total(2), 2);
        // Reset re-sizes (down and up) and clears.
        runs.push(1, 9, 9);
        runs.reset(10, (&catalog(1, 10)).into());
        assert_eq!(runs.shard_count(), 1);
        assert_eq!(runs.total(), 0);
        assert!(shard_pairs(&runs, 0).is_empty());
    }

    #[test]
    fn consecutive_pushes_coalesce_into_one_explicit_block() {
        let mut runs = CandidateRuns::new();
        runs.reset(10, (&catalog(2, 10)).into());
        // Same (shard, external) back to back — one block; interleaving
        // another shard does not break the coalescing (per-shard arenas).
        runs.push(0, 7, 1);
        runs.push(1, 7, 0);
        runs.push(0, 7, 3);
        runs.push(0, 8, 4);
        assert_eq!(runs.blocks(0).len(), 2);
        assert_eq!(runs.blocks(1).len(), 1);
        let (external, run) = runs.run(0, 0);
        assert_eq!(external, 7);
        assert_eq!(run.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(shard_pairs(&runs, 0), vec![(7, 1), (7, 3), (8, 4)]);
    }

    #[test]
    fn written_blocks_share_their_slice_and_push_never_extends_one() {
        let mut runs = CandidateRuns::new();
        runs.reset(10, (&catalog(2, 10)).into());
        let written = runs.write_locals(0, [4, 2, 7]);
        assert_eq!(written, 0..3);
        // Nothing is a candidate until a block reads the slice.
        assert_eq!((runs.total(), runs.blocks(0).len()), (0, 0));
        runs.push_written(0, 1, written.clone());
        runs.push_written(0, 5, written.clone());
        runs.push_written(0, 6, 3..3); // empty range skipped

        // The same external pushing on: a block of its own, behind the
        // slice, which keeps its length.
        runs.push(0, 5, 9);
        assert_eq!(runs.blocks(0).len(), 3);
        assert_eq!(runs.blocks(0)[1].len(), 3);
        assert_eq!(runs.run(0, 2).1.iter().collect::<Vec<_>>(), vec![9]);
        assert_eq!(
            shard_pairs(&runs, 0),
            vec![(1, 4), (1, 2), (1, 7), (5, 4), (5, 2), (5, 7), (5, 9)]
        );
        assert_eq!(runs.total(), 7);
        // An inactive shard takes no ids and no block.
        runs.restrict_to_shards_from(1);
        let skipped = runs.write_locals(0, [1]);
        assert!(skipped.is_empty());
        runs.push_written(0, 1, written);
        assert_eq!((runs.total(), runs.blocks(0).len()), (7, 3));
    }

    #[test]
    fn span_blocks_decode_to_contiguous_pairs() {
        let mut runs = CandidateRuns::new();
        runs.reset(10, (&catalog(1, 10)).into());
        runs.push_span(0, 3, 2, 4);
        runs.push_span(0, 5, 0, 0); // empty span is skipped
        assert_eq!(runs.total(), 4);
        assert_eq!(runs.blocks(0).len(), 1);
        let (external, run) = runs.run(0, 0);
        assert_eq!(external, 3);
        assert!(matches!(run, LocalRun::Span { start: 2, len: 4 }));
        assert_eq!(run.iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(shard_pairs(&runs, 0), vec![(3, 2), (3, 3), (3, 4), (3, 5)]);
        // Queue memory is per block, not per pair: a dense span's byte
        // ratio is ~len × the pair encoding.
        let mut dense = CandidateRuns::new();
        dense.reset(1, (&catalog(1, 1000)).into());
        dense.push_span(0, 0, 0, 1000);
        assert!(dense.queue_bytes() * 10 < dense.pair_bytes());
    }

    #[test]
    fn keyed_blocks_decode_through_the_key_table() {
        let (_, local) = small_stores();
        let side = BlockingKey::per_side(EXT_PN, LOC_PN, 4).local_side(&local);
        let index = local.key_index(&side);
        let range = index.key_range("crcw");
        assert_eq!(range.len(), 2);
        let mut runs = CandidateRuns::new();
        runs.reset(10, (&local).into());
        runs.set_key_table(0, index.clone());
        runs.push_keyed(0, 9, range.start, range.len());
        runs.push_keyed(0, 9, 0, 0); // empty range skipped
        assert_eq!(runs.total(), 2);
        let (external, run) = runs.run(0, 0);
        assert_eq!(external, 9);
        let decoded: Vec<usize> = run.iter().collect();
        assert_eq!(
            decoded,
            index
                .records_with_key("crcw")
                .iter()
                .map(|&r| r as usize)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn cartesian_stream_covers_every_shard_pair() {
        let (external, _) = small_stores();
        let local_records: Vec<_> = (0..5).map(|i| loc_record(i, "PN")).collect();
        let sharded = crate::shard::ShardedStore::from_records(&local_records, 2);
        let mut runs = CandidateRuns::new();
        CartesianBlocker.stream_candidates(&external, (&sharded).into(), &mut runs);
        assert_eq!(runs.total(), 20);
        // `collect_pairs` offsets shard-local ids to global ids and
        // sorts: one list, however the local side is sharded.
        let expected: Vec<CandidatePair> = (0..external.len())
            .flat_map(|e| (0..local_records.len()).map(move |l| (e, l)))
            .collect();
        assert_eq!(
            collect_pairs(&CartesianBlocker, &external, &sharded),
            expected
        );
        let local = RecordStore::from_records(&local_records);
        assert_eq!(
            collect_pairs(&CartesianBlocker, &external, &local),
            expected
        );
    }
}
