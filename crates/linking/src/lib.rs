//! # classilink-linking
//!
//! The data-linking substrate of the `classilink` workspace (reproduction of
//! *"Classification Rule Learning for Data Linking"*, Pernelle & Saïs,
//! LWDM @ EDBT 2012).
//!
//! The paper's contribution is a way to *reduce the linking space*; this
//! crate provides the rest of the pipeline a linking system needs, and the
//! baselines from the related-work section so the reduction can be compared
//! head-to-head:
//!
//! * [`similarity`] — string similarity measures (Levenshtein,
//!   Damerau-Levenshtein, Jaro, Jaro-Winkler, Jaccard, Dice,
//!   Monge-Elkan). The four string measures are allocation-free
//!   scratch-buffer kernels (`*_with(scratch, a, b)`, see
//!   [`similarity::SimScratch`]); the four set measures
//!   (`jaccard_tokens`, `jaccard_chars`, `dice_bigrams`, `monge_elkan`)
//!   have none: they run the `TokenTable` kernels the comparator runs, on
//!   a two-value table built for the pair (`similarity/token.rs`).
//! * [`token_index`] — store-level precomputation. Per column a set rule
//!   compares, every value is tokenised once (a token table in the
//!   store's derived state), so the set-based measures run as sorted-merge
//!   intersections in the per-pair loop. The blocking-side analogue,
//!   [`token_index::KeyIndex`], caches every record's normalised blocking
//!   key per recipe, with on demand the packed key bigrams and the
//!   sorted-neighbourhood ladder, whose slots carry their sort value's
//!   first eight bytes as one integer.
//! * [`record`] — flat attribute/value records extracted from RDF items
//!   (the builder-side representation).
//! * [`intern`] / [`store`] — the execution-side representation: property
//!   IRIs interned to dense ids, attribute values in contiguous
//!   per-property columns, records as plain indexes; full text, the id
//!   index, the key indexes and — per column a rule compares — token
//!   tables and signatures are lazily derived caches, never persisted.
//!   Everything below
//!   runs on [`RecordStore`], so the per-pair hot path never hashes an
//!   IRI string or clones a term.
//! * [`comparator`] — weighted record comparison with Match / Possible /
//!   NonMatch decisions, compiled to property ids per store pair.
//! * [`blocking`] — the candidate-pair generation strategies: cartesian,
//!   standard key blocking, sorted neighbourhood, bi-gram indexing and
//!   the rule-based blocker that wraps the paper's classifier. All of
//!   them stream per-shard candidate runs
//!   ([`blocking::Blocker::stream_candidates`]) into the sink the
//!   pipeline scores from;
//!   [`blocking::collect_pairs`] decodes them into one sorted
//!   global-id pair list, the same for any sharding of the catalog, for
//!   tests and reports.
//! * [`ingest`] — streaming ingestion: every triple the incremental RDF
//!   parsers emit goes straight into a shard builder's columns
//!   (`begin_record` on a new subject, `push_value` per literal), with
//!   transient memory bounded by one statement; the builders' `push`
//!   and `push_from` loop over the same two calls.
//! * [`shard`] — the catalog, the local side of every run: per-shard
//!   stores on a shared [`intern::SchemaInterner`], shard-local ids
//!   offsetting to global record ids and back.
//! * [`pipeline`] — blocking → comparison → links, with comparison
//!   accounting; the comparison phase runs serially, or on a
//!   work-stealing block scheduler over all shards.
//! * [`serve`] — link-as-a-service: a pre-warmed [`serve::Linker`]
//!   handle answering single-record probes through the batch code path
//!   (bit-identical links), over a catalog swapped atomically by epoch
//!   so updates never block in-flight probes.
//! * [`persist`] — crash-safe catalog persistence: shard snapshots named
//!   by their content hash, committed by an atomic manifest rename, with
//!   a restart path that verifies every file against its name and falls
//!   back to the previous manifest generation on corruption.
//!
//! ## Quick example
//!
//! ```
//! use classilink_linking::blocking::{Blocker, BlockingKey, StandardBlocker};
//! use classilink_linking::comparator::RecordComparator;
//! use classilink_linking::pipeline::LinkagePipeline;
//! use classilink_linking::record::Record;
//! use classilink_linking::shard::ShardedStore;
//! use classilink_linking::similarity::SimilarityMeasure;
//! use classilink_linking::store::RecordStore;
//! use classilink_rdf::Term;
//!
//! let pn = "http://example.org/vocab#partNumber";
//! let mut external = Record::new(Term::iri("http://provider.example.org/item/1"));
//! external.add(pn, "CRCW0805-10K");
//! let mut local = Record::new(Term::iri("http://local.example.org/prod/1"));
//! local.add(pn, "CRCW0805-10K");
//!
//! let blocker = StandardBlocker::new(BlockingKey::shared(pn, 4));
//! let comparator = RecordComparator::single(pn, pn, SimilarityMeasure::JaroWinkler);
//! let external = RecordStore::from_records(&[external]);
//! let local = ShardedStore::from_records(&[local], 1);
//! let result = LinkagePipeline::new(&blocker, &comparator).run_sharded(&external, &local);
//! assert_eq!(result.matches.len(), 1);
//! ```

// One `unsafe` block, in the comparator's run prefilter: the call of the
// sift loop compiled with `popcnt`, after the CPU was asked for it.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod blocking;
pub mod comparator;
pub mod error;
pub mod ingest;
pub mod intern;
pub mod persist;
pub mod pipeline;
pub mod record;
pub mod serve;
pub mod shard;
pub mod similarity;
pub mod store;
pub mod token_index;

pub use blocking::{
    BigramBlocker, BigramFilterStats, Blocker, BlockingKey, BlockingStats, CandidateBlock,
    CandidatePair, CandidateRuns, CartesianBlocker, KeySide, LocalRun, RuleBasedBlocker,
    SortedNeighborhoodBlocker, StandardBlocker,
};
pub use comparator::{
    AttributeRule, Comparison, CompiledComparator, LeftHoist, MatchDecision, RecordComparator,
};
pub use error::{LinkError, LinkResult};
pub use ingest::{FeedFormat, FeedIngest};
pub use intern::{PropertyId, PropertyInterner, SchemaInterner};
pub use persist::{CatalogSnapshot, PersistError, RecoveryReport, SnapshotReceipt};
pub use pipeline::{Link, LinkagePipeline, LinkageResult};
pub use record::Record;
pub use serve::{CatalogEpoch, Linker, LinkerCatalog, ProbeHits, ProbeScratch};
pub use shard::{ShardedStore, ShardedStoreBuilder};
pub use similarity::{SimScratch, SimilarityMeasure};
pub use store::{RecordStore, RecordStoreBuilder, ValueList};
pub use token_index::KeyIndex;
