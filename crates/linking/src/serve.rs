//! Link-as-a-service: the epoch-swapped single-record probe path.
//!
//! The batch pipeline ([`crate::pipeline`]) answers "link these two
//! datasets"; a serving deployment asks the transposed question — "one
//! record just arrived, what does it link to in the catalog *right
//! now*?" — thousands of times per second, while the catalog itself is
//! periodically republished. [`Linker`] packages the batch machinery
//! for that shape without forking any of it:
//!
//! * **Pre-warmed epochs.** A published catalog is a [`CatalogEpoch`]:
//!   the [`ShardedStore`] with every blocker-side artifact built
//!   eagerly (key indexes, sort ladders, bigram gram tables and counters
//!   via [`Blocker::warm`]; token tables and signature columns where
//!   the comparator's rules read them) and the comparator compiled once
//!   ([`RecordComparator::compile_schemas`]). No probe ever pays a
//!   first-call index build.
//! * **Atomic epoch swap.** Epochs are published as `Arc`s behind a
//!   [`RwLock`] ([`LinkerCatalog`]): [`Linker::swap`] builds and warms
//!   the new epoch *outside* the lock, then flips the pointer. In-flight
//!   probes keep the `Arc` of the epoch they started on, so a probe is
//!   never torn across a swap and a swap never waits for probes.
//! * **Incremental appends.** [`Linker::try_append`] publishes a successor
//!   epoch that `Arc`-shares the surviving shards of the current one:
//!   their warmed artifacts carry over, so warming the grown catalog
//!   builds only the appended shards' — bar a sorted-neighbourhood
//!   blocker's catalog ladder, which the append copies once with the new
//!   shards merged in (O(catalog) bytes). [`Linker::swap`] builds every
//!   shard's.
//! * **Fault-contained republish.** [`Linker::try_swap`] catches a panic
//!   anywhere in the epoch build/warm *before* the lock is touched: a
//!   failed republish returns [`LinkError::EpochBuildPanicked`], the old
//!   epoch keeps serving, and the sequence stays strictly monotonic. The
//!   lock itself recovers from poisoning (see [`LinkerCatalog`]), and
//!   [`Linker::try_probe_with`] contains probe-path panics the same way.
//! * **The batch code path, verbatim.** A probe wraps the record in a
//!   one-record external store (refilled **in place**, see
//!   [`RecordStore`] internals), streams the epoch's blockers into the
//!   caller's [`CandidateRuns`] sink, and scores each shard's blocks
//!   with the *same* `score_shard` call (in [`crate::pipeline`]) a
//!   serial batch run makes — which is what makes probe scores
//!   bit-identical to `run_sharded` by construction
//!   (the identity matrix, `crates/linking/tests/common/matrix.rs`,
//!   pins it).
//! * **Allocation-free warm probes.** All per-probe state lives in a
//!   caller-owned [`ProbeScratch`] (probe store, sink, the recycled
//!   scoring working set, result buffers); a warm
//!   [`Linker::probe_with`] performs zero heap allocations until links
//!   materialise their [`Term`](classilink_rdf::Term)s
//!   (`crates/linking/tests/zero_alloc.rs` pins it).

use crate::blocking::{Blocker, CandidateRuns};
use crate::comparator::{CompiledComparator, RecordComparator};
use crate::error::{panic_payload, LinkError, LinkResult};
use crate::intern::SchemaInterner;
use crate::persist::{CatalogSnapshot, RecoveryReport, SnapshotReceipt};
use crate::pipeline::{materialise_into, score_shard, Link, Scorer};
use crate::record::Record;
use crate::shard::{ShardedStore, ShardedStoreBuilder};
use crate::store::RecordStore;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One published catalog generation: the sharded store with every
/// blocker/comparator artifact pre-built, plus the comparator compiled
/// against it. Immutable once published; probes hold the epoch they
/// started on via `Arc`, so replacing the catalog never invalidates a
/// probe in flight.
#[derive(Debug)]
pub struct CatalogEpoch<'a> {
    /// Monotonic publication number (the initial epoch is 1).
    sequence: u64,
    /// The catalog this epoch serves.
    store: ShardedStore,
    /// The comparator, compiled against (probe schema, catalog schema).
    compiled: CompiledComparator<'a>,
}

impl CatalogEpoch<'_> {
    /// Monotonic publication number of this epoch (the initial epoch,
    /// published by [`Linker::new`], is 1).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// The catalog this epoch serves.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }
}

/// The atomically-swapped epoch slot of a [`Linker`].
///
/// Readers take the read lock only long enough to clone the `Arc`;
/// writers swap the pointer under the write lock after the (expensive)
/// epoch build has already happened outside it. Neither side ever holds
/// the lock across blocking or scoring work.
///
/// **Poison-free by construction.** The critical sections are a pointer
/// clone (`load`) and a sequence increment plus pointer assignment
/// (`publish`) — neither calls user code, so a panic *inside* the lock
/// is effectively impossible; everything fallible (the epoch build and
/// warm) runs before the lock is taken. Both sides still recover an
/// `RwLock` poisoned by some unforeseen unwind
/// (`unwrap_or_else(|e| e.into_inner())`): the slot always holds the
/// last fully published `Arc`, which is exactly what a reader wants and
/// exactly the predecessor a writer should increment from — so a failed
/// swap can never block or poison the probe path.
#[derive(Debug)]
pub struct LinkerCatalog<'a> {
    current: RwLock<Arc<CatalogEpoch<'a>>>,
}

impl<'a> LinkerCatalog<'a> {
    /// The currently-published epoch (an `Arc` clone; the caller keeps
    /// this one consistent epoch for as long as it holds the handle,
    /// regardless of concurrent swaps).
    pub fn load(&self) -> Arc<CatalogEpoch<'a>> {
        self.current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Publish `epoch` as the next generation, assigning its sequence
    /// number under the write lock (so sequences are strictly
    /// monotonic even under concurrent swappers, and a *failed* swap —
    /// which never reaches `publish` — leaves no gap).
    fn publish(&self, mut epoch: CatalogEpoch<'a>) -> u64 {
        let mut current = self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let sequence = current.sequence + 1;
        epoch.sequence = sequence;
        *current = Arc::new(epoch);
        sequence
    }
}

/// Distinguishes linkers, so a [`ProbeScratch`] can detect that it was
/// last used with a different linker (whose probe schema its reusable
/// probe store was built on) and rebuild instead of corrupting ids.
static NEXT_LINKER_TAG: AtomicU64 = AtomicU64::new(1);

/// A pre-warmed linking service handle: one blocker + comparator over an
/// atomically-swappable catalog, answering single-record
/// [`probe`](Linker::probe)s with exactly the links the batch pipeline
/// would report for that record.
///
/// The handle itself is `Sync`: any number of threads may probe (each
/// with its own [`ProbeScratch`], or through the thread-local
/// convenience [`probe`](Linker::probe)) while another thread
/// [`swap`](Linker::swap)s in rebuilt catalogs.
pub struct Linker<'a> {
    blocker: &'a (dyn Blocker + Sync),
    comparator: &'a RecordComparator,
    /// The shared schema probe stores intern into. Rule left-properties
    /// are interned at construction, **before** the first compile, and
    /// the interner is append-only — so the compiled left-side ids stay
    /// valid for every probe store and every epoch.
    probe_schema: SchemaInterner,
    /// This linker's identity (see [`NEXT_LINKER_TAG`]).
    tag: u64,
    catalog: LinkerCatalog<'a>,
}

impl<'a> Linker<'a> {
    /// Build a serving handle over `catalog`, eagerly warming every
    /// artifact a probe will read (blocker indexes via
    /// [`Blocker::warm`], token tables and signature columns where the
    /// comparator needs them) and publishing the result as epoch 1.
    pub fn new(
        blocker: &'a (dyn Blocker + Sync),
        comparator: &'a RecordComparator,
        catalog: ShardedStore,
    ) -> Self {
        let probe_schema = SchemaInterner::new();
        for rule in &comparator.rules {
            probe_schema.intern(&rule.left_property);
        }
        let epoch = try_build_epoch(blocker, comparator, &probe_schema, catalog, 1)
            .unwrap_or_else(|e| panic!("{e}"));
        Linker {
            blocker,
            comparator,
            probe_schema,
            tag: NEXT_LINKER_TAG.fetch_add(1, Ordering::Relaxed),
            catalog: LinkerCatalog {
                current: RwLock::new(Arc::new(epoch)),
            },
        }
    }

    /// The epoch slot (for callers that want to pin one epoch across
    /// several probes, or to read the published sequence number).
    pub fn catalog(&self) -> &LinkerCatalog<'a> {
        &self.catalog
    }

    /// Spill the currently-served catalog into `dir` as a new snapshot
    /// generation (see [`CatalogSnapshot::write`]). The manifest rename
    /// is the commit point: on `Err` nothing was committed and the
    /// previous generation — if any — is still the directory's restart
    /// point. Data files are content-addressed, so snapshotting after an
    /// [`try_append`](Self::try_append) spills only the appended shards
    /// (`shards_reused` in the receipt counts the carry-over).
    ///
    /// Serving is never interrupted: the spill reads one pinned epoch
    /// `Arc` while probes and swaps proceed normally.
    pub fn snapshot(&self, dir: impl AsRef<std::path::Path>) -> LinkResult<SnapshotReceipt> {
        let epoch = self.catalog.load();
        CatalogSnapshot::write(dir, epoch.store())
            .map_err(|source| LinkError::SnapshotFailed { source })
    }

    /// Restore a catalog from a snapshot directory and build a serving
    /// handle over it (epoch 1, fully warmed — see [`Linker::new`]).
    /// The loader verifies every checksum and falls back to the previous
    /// manifest generation when the newest is truncated or corrupt; the
    /// returned [`RecoveryReport`] says which generation was loaded and
    /// what was discarded or swept. Probes over the restored catalog are
    /// bit-identical to probes over the catalog that was snapshotted.
    ///
    /// Errs with [`LinkError::RestoreFailed`] when the directory holds
    /// no manifest or every generation fails validation — a half-loaded
    /// catalog is never served.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        blocker: &'a (dyn Blocker + Sync),
        comparator: &'a RecordComparator,
    ) -> LinkResult<(Self, RecoveryReport)> {
        let (store, report) =
            CatalogSnapshot::open(dir).map_err(|source| LinkError::RestoreFailed { source })?;
        Ok((Linker::new(blocker, comparator, store), report))
    }

    /// Replace the served catalog: build and warm the new epoch (the
    /// expensive part, outside any lock), then swap it in atomically.
    /// In-flight probes finish on the epoch they started with; probes
    /// beginning after `swap` returns see the new catalog. Returns the
    /// new epoch's sequence number.
    ///
    /// Panics on a contained fault — the fault-tolerant entry point is
    /// [`try_swap`](Self::try_swap).
    pub fn swap(&self, catalog: ShardedStore) -> u64 {
        self.try_swap(catalog).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`swap`](Self::swap): a panic while building or warming
    /// the new epoch is caught *before* the catalog lock is ever taken
    /// and returned as [`LinkError::EpochBuildPanicked`]. On `Err` the
    /// previous epoch keeps serving, nothing is partially published, and
    /// the sequence number does not advance — the next successful swap
    /// continues the strictly monotonic sequence.
    pub fn try_swap(&self, catalog: ShardedStore) -> LinkResult<u64> {
        self.try_publish(|| self.build_epoch(catalog))
    }

    /// Run `build` — an epoch build, the failure domain of a republish —
    /// and publish what it returns. A panic inside it surfaces as
    /// [`LinkError::EpochBuildPanicked`]; on any `Err` the lock is never
    /// taken and the sequence does not advance.
    fn try_publish(&self, build: impl FnOnce() -> LinkResult<CatalogEpoch<'a>>) -> LinkResult<u64> {
        match catch_unwind(AssertUnwindSafe(build)) {
            Ok(Ok(epoch)) => Ok(self.catalog.publish(epoch)),
            Ok(Err(error)) => Err(error),
            Err(payload) => Err(LinkError::EpochBuildPanicked {
                payload: panic_payload(payload),
            }),
        }
    }

    /// [`try_build_epoch`] with this linker's blocker, comparator and
    /// probe schema. The sequence is provisional; `publish` assigns the
    /// real one under the write lock.
    fn build_epoch(&self, catalog: ShardedStore) -> LinkResult<CatalogEpoch<'a>> {
        try_build_epoch(
            self.blocker,
            self.comparator,
            &self.probe_schema,
            catalog,
            0,
        )
    }

    /// An empty shard builder whose schema continues the currently
    /// served catalog's (see [`ShardedStore::delta_builder`]) — fill it
    /// with the delta batch and publish with [`try_append`](Self::try_append).
    pub fn delta_builder(&self) -> ShardedStoreBuilder {
        self.catalog.load().store().delta_builder()
    }

    /// Grow the served catalog **incrementally**: columnarise `delta`
    /// (from [`delta_builder`](Self::delta_builder)) as new shards
    /// appended to the current epoch's store, and publish the successor
    /// epoch. Returns the new epoch's sequence number.
    ///
    /// The grown catalog goes through the same epoch build as a
    /// [`swap`](Self::swap), but it `Arc`-shares the surviving shards —
    /// their key indexes, sort ladders, bigram counters, token tables and
    /// signature columns carry over already warm — so only the
    /// **appended** shards are built. Republishing therefore costs
    /// O(delta), not O(catalog), but for a sorted-neighbourhood blocker's
    /// catalog ladder: the base epoch's is copied once with the new shards
    /// merged in. In-flight probes finish on the epoch they started with,
    /// exactly as for a swap.
    ///
    /// Concurrent appends are last-publish-wins over the same loaded
    /// base (like any load-build-publish update); serialise appends on
    /// one updater thread to make every delta durable.
    ///
    /// A panic (or injected fault) while columnarising the delta shards or
    /// warming their artifacts is caught *before* the catalog lock is ever
    /// taken and returned as a [`LinkError`]. On `Err` the previous epoch
    /// keeps serving — nothing is partially appended, and the sequence
    /// does not advance.
    pub fn try_append(&self, delta: ShardedStoreBuilder) -> LinkResult<u64> {
        self.try_publish(|| {
            // Models a fault at the append boundary, before the delta
            // columnarises or the base epoch is even loaded.
            fail::fail_point!("serve::append", |arg: Option<String>| Err(
                LinkError::injected("serve::append", arg)
            ));
            let appended = self.catalog.load().store().try_append_shards(delta)?;
            // Models a fault as the grown catalog starts warming.
            fail::fail_point!("serve::warm_append");
            self.build_epoch(appended)
        })
    }

    /// Probe with a caller-owned scratch — the allocation-free path: a
    /// **warm** call (same scratch, same linker, no new probe-side
    /// property) performs zero heap allocations up to the `Term` clones
    /// of the links it returns. The returned [`ProbeHits`] borrows the
    /// scratch and is valid until its next use.
    ///
    /// Panics on a contained fault — the fault-tolerant entry point is
    /// [`try_probe_with`](Self::try_probe_with).
    pub fn probe_with<'s>(&self, record: &Record, scratch: &'s mut ProbeScratch) -> &'s ProbeHits {
        self.try_probe_with(record, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`probe_with`](Self::probe_with): a panic anywhere in
    /// the probe path (refill, blocking, scoring, materialisation) is
    /// caught and returned as [`LinkError::ProbePanicked`]. The scratch
    /// stays usable — every stage re-initialises its buffers at the
    /// start of the next call — so a clean retry over the same scratch
    /// is bit-identical to a never-faulted probe.
    pub fn try_probe_with<'s>(
        &self,
        record: &Record,
        scratch: &'s mut ProbeScratch,
    ) -> LinkResult<&'s ProbeHits> {
        match catch_unwind(AssertUnwindSafe(|| self.probe_into(record, scratch))) {
            Ok(()) => Ok(&scratch.hits),
            Err(payload) => Err(LinkError::ProbePanicked {
                payload: panic_payload(payload),
            }),
        }
    }

    /// The probe body (the probe failure domain), writing the result
    /// into `scratch.hits`.
    fn probe_into(&self, record: &Record, scratch: &mut ProbeScratch) {
        if scratch.tag != self.tag {
            // First use with this linker (or the scratch migrated from
            // another): the probe store must intern into *this*
            // linker's schema.
            scratch.store = RecordStore::builder_with_schema(self.probe_schema.clone()).build();
            scratch.tag = self.tag;
        }
        scratch.store.refill_single(&self.probe_schema, record);
        // One consistent epoch end-to-end: blocking, scoring and link
        // materialisation all read this Arc, regardless of swaps.
        let epoch = self.catalog.load();
        let store = epoch.store();
        self.blocker
            .stream_candidates(&scratch.store, store, &mut scratch.runs);
        let mut scorer = std::mem::take(&mut scratch.scorer).recycle();
        for shard in 0..store.shard_count() {
            // The serial batch pipeline's call, shard by shard — the same
            // decoding, hoisting and scoring code, hence bit-identical
            // scores.
            score_shard(
                &epoch.compiled,
                &scratch.runs,
                &scratch.store,
                store,
                shard,
                &mut scorer,
            );
        }
        // Shards stream in order but a shard's blocks follow emission
        // order; global-id sorting makes the output canonical (the
        // batch pipeline sorts the same way).
        scorer.matches.sort_unstable_by_key(|pair| pair.1);
        scorer.possible.sort_unstable_by_key(|pair| pair.1);
        let hits = &mut scratch.hits;
        hits.epoch = epoch.sequence;
        hits.comparisons = scratch.runs.total();
        materialise_into(&mut hits.matches, &scorer.matches, &scratch.store, store);
        materialise_into(&mut hits.possible, &scorer.possible, &scratch.store, store);
        scratch.scorer = scorer.recycle();
    }

    /// Probe with a per-thread scratch: the links of `record` against
    /// the current epoch, sorted by global catalog id. Convenience over
    /// [`probe_with`](Self::probe_with) (which also exposes possible
    /// matches, the comparison count and the serving epoch).
    pub fn probe(&self, record: &Record) -> Vec<Link> {
        thread_local! {
            static SCRATCH: RefCell<ProbeScratch> = RefCell::new(ProbeScratch::new());
        }
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            self.probe_with(record, &mut scratch).matches.clone()
        })
    }
}

/// The epoch-build failure domain body (shared by [`Linker::new`],
/// [`Linker::try_swap`] and [`Linker::try_append`]; always outside the
/// catalog lock): compile the comparator, build every token table and
/// signature column its rules read, warm the blocker's artifacts.
/// The `serve::build_epoch` failpoint can inject a structured error
/// (`return` action) or a panic at the domain entry; `serve::warm`
/// covers a fault inside the blocker's own warm-up.
fn try_build_epoch<'a>(
    blocker: &(dyn Blocker + Sync),
    comparator: &'a RecordComparator,
    probe_schema: &SchemaInterner,
    store: ShardedStore,
    sequence: u64,
) -> LinkResult<CatalogEpoch<'a>> {
    fail::fail_point!("serve::build_epoch", |arg: Option<String>| Err(
        LinkError::injected("serve::build_epoch", arg)
    ));
    let compiled = comparator.compile_schemas(&probe_schema.snapshot(), store.schema());
    compiled.warm(store.shards());
    fail::fail_point!("serve::warm");
    blocker.warm(&store);
    Ok(CatalogEpoch {
        sequence,
        store,
        compiled,
    })
}

/// The result of one probe, owned by the [`ProbeScratch`] it was
/// produced into (buffers are reused across probes).
#[derive(Debug, Default)]
pub struct ProbeHits {
    /// Links decided as matches, sorted by global catalog id.
    pub matches: Vec<Link>,
    /// Links decided as possible matches, sorted by global catalog id.
    pub possible: Vec<Link>,
    /// Candidate pairs scored for this probe.
    pub comparisons: u64,
    /// Sequence number of the [`CatalogEpoch`] that served the probe.
    pub epoch: u64,
}

/// A caller-owned probe workspace: the one-record probe store, the
/// candidate sink, the similarity scratch, the recycled left hoist and
/// the result buffers. Every buffer retains its capacity across probes,
/// which is what makes warm [`Linker::probe_with`] calls
/// allocation-free. One scratch serves one thread; make one per worker.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// The linker this scratch was last used with (0 = never used).
    tag: u64,
    /// The reusable one-record external store.
    store: RecordStore,
    /// The streaming blocking sink.
    runs: CandidateRuns,
    /// The scoring working set — similarity scratch, left hoist, survivor
    /// buffer, scored pairs as `(0, global id, score)` — parked with an
    /// erased lifetime between probes (see `LeftHoist::recycle`).
    scorer: Scorer<'static>,
    /// The materialised result the caller reads.
    hits: ProbeHits,
}

impl ProbeScratch {
    /// A fresh scratch; the first probe sizes every buffer.
    pub fn new() -> Self {
        Self::default()
    }
}
