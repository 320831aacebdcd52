//! Streaming ingestion: a triple stream goes straight into record-store
//! columns, one record per run of equal subjects.
//!
//! [`FeedIngest`] drives the incremental parsers of `classilink-rdf`
//! ([`NTriplesStreamer`] / [`TurtleStreamer`]) chunk by chunk and hands
//! every triple to a [`ShardedStoreBuilder`] as it is parsed — a new
//! subject opens the next record
//! ([`begin_record`](ShardedStoreBuilder::begin_record)), a literal
//! object lands in its property's column
//! ([`push_value`](ShardedStoreBuilder::push_value)) — opening a fresh
//! shard every `records_per_shard` records. Nothing sits between the
//! parser and the columns, so a multi-GB feed columnarises into shards as
//! it arrives while the transient state is bounded by one statement.
//!
//! The readers lend each triple's terms from the statement text
//! ([`TripleRef`]), so the ingest copies only what a store keeps: a
//! subject is compared with the open record's id in place and becomes a
//! [`Term`](classilink_rdf::Term) only when it opens a record, and a
//! value is copied straight into its column. A fed record therefore costs
//! **one allocation**, its id, beyond the amortised growth of the id list
//! and the columns. What else allocates: an escaped literal's unescaped
//! copy, one string per Turtle prefixed name expanded, and a property's
//! first sight in a shard (see
//! [`RecordStoreBuilder::push_value`](crate::store::RecordStoreBuilder::push_value)).
//! `tests/zero_alloc.rs` holds the budget.
//!
//! ```
//! use classilink_linking::ingest::FeedIngest;
//! use classilink_linking::intern::SchemaInterner;
//!
//! let mut ingest = FeedIngest::ntriples(SchemaInterner::new(), 2);
//! ingest
//!     .feed(b"<http://e.org/a> <http://e.org/v#pn> \"X-1\" .\n<http://e.org")
//!     .unwrap();
//! ingest
//!     .feed(b"/b> <http://e.org/v#pn> \"X-2\" .\n")
//!     .unwrap();
//! let store = ingest.try_finish().unwrap();
//! assert_eq!(store.len(), 2);
//! ```

use crate::error::{panic_payload, LinkError, LinkResult};
use crate::intern::SchemaInterner;
use crate::shard::{ShardedStore, ShardedStoreBuilder};
use classilink_rdf::{NTriplesStreamer, TripleRef, TurtleStreamer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which syntax a byte feed is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedFormat {
    /// Line-oriented N-Triples.
    NTriples,
    /// The workspace's Turtle subset.
    Turtle,
}

#[derive(Debug)]
enum FeedStreamer {
    NTriples(NTriplesStreamer),
    Turtle(TurtleStreamer),
}

/// Streaming feed → sharded columnar store, with bounded memory.
///
/// Feed byte chunks ([`feed`](Self::feed)); each chunk's complete
/// statements are parsed and pushed into shard builders immediately,
/// with a fresh shard opened every `records_per_shard` records.
/// [`try_finish`](Self::try_finish) parses the tail and freezes the shards
/// (their columns are already filled). At no point does an input-sized
/// intermediate exist; transient state is one incomplete statement plus
/// the store under construction.
///
/// The feed is assumed **subject-grouped** (the natural shape of
/// dumps): a triple whose subject differs from the record
/// opened last opens the next record, so a subject that re-appears
/// later starts a *second* record; dedup is the feeder's job. Only
/// IRI-predicate, literal-object triples contribute a value
/// ([`TripleRef::literal_fact`], the rule of
/// [`Triple::literal_fact`](classilink_rdf::Triple::literal_fact)); any
/// other triple still opens its subject's record.
///
/// A parse error or an ingest-site panic poisons the ingest: the error
/// is reported, further feeding is rejected, and `try_finish` refuses to
/// publish a store built from a partial feed — a faulted feed therefore
/// never half-publishes a shard. (The values a failing Turtle statement
/// listed before its error may have reached the columns; they are never
/// published.)
#[derive(Debug)]
pub struct FeedIngest {
    streamer: FeedStreamer,
    builder: ShardedStoreBuilder,
    records_per_shard: usize,
    poisoned: bool,
}

impl FeedIngest {
    /// An ingest for `format` interning into `schema`, rotating shards
    /// every `records_per_shard` records (clamped to ≥ 1).
    pub fn new(format: FeedFormat, schema: SchemaInterner, records_per_shard: usize) -> Self {
        let streamer = match format {
            FeedFormat::NTriples => FeedStreamer::NTriples(NTriplesStreamer::new()),
            FeedFormat::Turtle => FeedStreamer::Turtle(TurtleStreamer::new()),
        };
        FeedIngest {
            streamer,
            builder: ShardedStore::builder_with_schema(schema),
            records_per_shard: records_per_shard.max(1),
            poisoned: false,
        }
    }

    /// An N-Triples ingest (see [`new`](Self::new)).
    pub fn ntriples(schema: SchemaInterner, records_per_shard: usize) -> Self {
        Self::new(FeedFormat::NTriples, schema, records_per_shard)
    }

    /// A Turtle ingest (see [`new`](Self::new)).
    pub fn turtle(schema: SchemaInterner, records_per_shard: usize) -> Self {
        Self::new(FeedFormat::Turtle, schema, records_per_shard)
    }

    /// Feed one chunk of input bytes, draining every statement it
    /// completes into shard columnarisation. Chunks may split the input
    /// anywhere (mid-statement, mid-UTF-8).
    pub fn feed(&mut self, chunk: &[u8]) -> LinkResult<()> {
        if self.poisoned {
            return Err(LinkError::IngestFailed {
                payload: "ingest already failed; feed rejected".to_string(),
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Models a fault at the chunk boundary — the unit of work the
            // ingest either completes (every statement the chunk closed
            // is columnarised) or abandons as a whole (poisoned, nothing
            // published).
            fail::fail_point!("ingest::chunk", |arg: Option<String>| {
                Err(LinkError::injected("ingest::chunk", arg))
            });
            match &mut self.streamer {
                FeedStreamer::NTriples(s) => s.feed(chunk),
                FeedStreamer::Turtle(s) => s.feed(chunk),
            }
            self.drain_parsed()
        }));
        self.settle(outcome)
    }

    /// Drain the triples parsed so far into the shard builders. The
    /// readers lend each triple's terms: a subject is compared with the
    /// open record's id in place and copied only when it opens a record,
    /// and a value is copied only into its column.
    fn drain_parsed(&mut self) -> LinkResult<()> {
        let (builder, records_per_shard) = (&mut self.builder, self.records_per_shard);
        let visit = |triple: TripleRef<'_>| {
            if builder.last_id().is_none_or(|id| triple.subject != *id) {
                let filled = builder.len();
                if filled > 0 && filled.is_multiple_of(records_per_shard) {
                    // The previous record filled the current shard; this
                    // one starts the next.
                    builder.begin_shard();
                }
                builder.begin_record(triple.subject.reborrow().into_owned());
            }
            if let Some((property, value)) = triple.literal_fact() {
                builder.push_value(property, value);
            }
        };
        let drained = match &mut self.streamer {
            FeedStreamer::NTriples(s) => s.drain(visit),
            FeedStreamer::Turtle(s) => s.drain(visit),
        };
        drained.map_err(|error| LinkError::IngestFailed {
            payload: error.to_string(),
        })
    }

    /// Map a `catch_unwind` outcome to the ingest's fault contract:
    /// panics and errors both poison the ingest.
    fn settle(&mut self, outcome: std::thread::Result<LinkResult<()>>) -> LinkResult<()> {
        let result = outcome.unwrap_or_else(|payload| {
            Err(LinkError::IngestFailed {
                payload: panic_payload(payload),
            })
        });
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    /// Records opened so far, the one still being filled included.
    pub fn records(&self) -> usize {
        self.builder.len()
    }

    /// Bytes buffered inside the incremental parser (bounded by one
    /// statement plus the last chunk).
    pub fn buffered_bytes(&self) -> usize {
        match &self.streamer {
            FeedStreamer::NTriples(s) => s.buffered_bytes(),
            FeedStreamer::Turtle(s) => s.buffered_bytes(),
        }
    }

    /// Parse the tail (the final statement) and hand back the shard
    /// builder — the delta path, where the caller appends the
    /// new shards to an existing catalog via
    /// [`ShardedStore::append_shards`](crate::shard::ShardedStore::append_shards).
    pub fn into_builder(mut self) -> LinkResult<ShardedStoreBuilder> {
        if self.poisoned {
            return Err(LinkError::IngestFailed {
                payload: "ingest already failed; nothing to publish".to_string(),
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match &mut self.streamer {
                FeedStreamer::NTriples(s) => s.finish(),
                FeedStreamer::Turtle(s) => s.finish(),
            }
            self.drain_parsed()
        }));
        self.settle(outcome)?;
        Ok(self.builder)
    }

    /// Parse the tail and freeze the shards; see
    /// [`into_builder`](Self::into_builder) for the delta path.
    pub fn try_finish(self) -> LinkResult<ShardedStore> {
        self.into_builder()?.try_build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use classilink_rdf::Term;

    const PN: &str = "http://e.org/v#pn";
    const MFR: &str = "http://e.org/v#mfr";

    fn feed_doc(n: usize) -> String {
        let mut doc = String::new();
        for i in 0..n {
            doc.push_str(&format!("<http://e.org/item/{i}> <{PN}> \"PN-{i:04}\" .\n"));
            if i % 2 == 0 {
                doc.push_str(&format!("<http://e.org/item/{i}> <{MFR}> \"Vishay\" .\n"));
            }
        }
        doc
    }

    fn record(id: Term, facts: &[(&str, &str)]) -> Record {
        let mut record = Record::new(id);
        for (property, value) in facts {
            record.add(*property, *value);
        }
        record
    }

    fn records(store: &ShardedStore) -> Vec<Record> {
        let shards = store.shards().iter();
        shards.flat_map(|shard| shard.to_records()).collect()
    }

    /// Rotating shards moves no record: the feed in shards of two holds
    /// the ids and records of the same feed in one shard, in order.
    #[test]
    fn shards_rotate_on_record_boundaries() {
        let doc = feed_doc(7);
        let fed = |records_per_shard| {
            let mut ingest = FeedIngest::ntriples(SchemaInterner::new(), records_per_shard);
            ingest.feed(doc.as_bytes()).unwrap();
            ingest.try_finish().unwrap()
        };
        let (store, single) = (fed(2), fed(7));
        let sizes: Vec<usize> = store.shards().iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![2, 2, 2, 1]);
        assert_eq!(single.shard_count(), 1);
        for global in 0..single.len() {
            assert_eq!(store.id(global), single.id(global));
        }
        assert_eq!(records(&store), single.shard(0).to_records());
    }

    /// A record holds exactly what `Triple::literal_fact` keeps: literal
    /// values of any form, under IRI and blank subjects alike. An IRI
    /// object adds no value, and a subject whose only triple has one is
    /// an attribute-less record.
    #[test]
    fn a_record_holds_the_literal_values_of_its_subject() {
        let integer = classilink_rdf::namespace::vocab::XSD_INTEGER;
        let doc = format!(
            "<http://e.org/p1> <{PN}> \"CRCW0805-10K\" .\n\
             <http://e.org/p1> <{MFR}> <http://e.org/org#Vishay> .\n\
             <http://e.org/p1> <{PN}> \"10000\"^^<{integer}> .\n\
             <http://e.org/p1> <{MFR}> \"Vishay Intertech\"@en .\n\
             _:b0 <{PN}> \"T83A225\" .\n\
             <http://e.org/p2> <http://e.org/v#cls> <http://e.org/c#R> .\n"
        );
        let mut ingest = FeedIngest::ntriples(SchemaInterner::new(), 8);
        ingest.feed(doc.as_bytes()).unwrap();
        let expected = vec![
            record(
                Term::iri("http://e.org/p1"),
                &[
                    (PN, "CRCW0805-10K"),
                    (PN, "10000"),
                    (MFR, "Vishay Intertech"),
                ],
            ),
            record(Term::blank("b0"), &[(PN, "T83A225")]),
            record(Term::iri("http://e.org/p2"), &[]),
        ];
        assert_eq!(records(&ingest.try_finish().unwrap()), expected);
    }

    #[test]
    fn buffered_bytes_stay_bounded_across_a_long_feed() {
        let mut ingest = FeedIngest::ntriples(SchemaInterner::new(), 64);
        let line_len = feed_doc(1).len();
        for i in 0..500 {
            let line = format!("<http://e.org/item/{i}> <{PN}> \"PN-{i:04}\" .\n");
            ingest.feed(line.as_bytes()).unwrap();
            assert!(ingest.buffered_bytes() < 2 * line_len);
        }
        assert_eq!(ingest.try_finish().unwrap().len(), 500);
    }

    #[test]
    fn parse_errors_poison_the_ingest() {
        let mut ingest = FeedIngest::ntriples(SchemaInterner::new(), 8);
        ingest
            .feed(b"<http://e.org/a> <http://e.org/v#pn> \"X\" .\n")
            .unwrap();
        let err = ingest.feed(b"not a triple\n").unwrap_err();
        assert!(matches!(err, LinkError::IngestFailed { .. }), "{err}");
        // Poisoned: nothing publishes, even the record parsed before the
        // fault.
        assert!(ingest
            .feed(b"<http://e.org/b> <http://e.org/v#pn> \"Y\" .\n")
            .is_err());
        assert!(ingest.try_finish().is_err());
    }

    #[test]
    fn turtle_feed_carries_prefixes_across_chunks() {
        let doc = "@prefix ex: <http://e.org/v#> .\n\
             <http://e.org/a> ex:pn \"X-1\" ; ex:mfr \"Vishay\" .\n\
             <http://e.org/b> ex:pn \"X-2\" .\n"
            .to_string();
        let mut ingest = FeedIngest::turtle(SchemaInterner::new(), 8);
        for chunk in doc.as_bytes().chunks(11) {
            ingest.feed(chunk).unwrap();
        }
        let store = ingest.try_finish().unwrap();
        assert_eq!(store.len(), 2);
        let pn = store.property(PN).unwrap();
        assert_eq!(store.shard(0).first(0, pn), Some("X-1"));
    }

    /// The grouping rule, per syntax: contiguous triples of a subject are
    /// one record, a subject whose only triple has an IRI object is an
    /// attribute-less record, a subject that re-appears is a second
    /// record, and the shard rotates after two records wherever the
    /// chunk boundaries fall.
    #[test]
    fn feed_groups_by_subject_and_rotates_shards() {
        let ntriples = format!(
            "<http://e.org/a> <{MFR}> \"Vishay\" .\n\
             <http://e.org/a> <{PN}> \"X-1\" .\n\
             <http://e.org/a> <{PN}> \"X-1b\" .\n\
             <http://e.org/b> <http://e.org/v#cls> <http://e.org/c#R> .\n\
             <http://e.org/a> <{PN}> \"X-1 again\" .\n"
        );
        let turtle = "@prefix v: <http://e.org/v#> .\n\
             <http://e.org/a> v:mfr \"Vishay\" ; v:pn \"X-1\" , \"X-1b\" .\n\
             <http://e.org/b> v:cls <http://e.org/c#R> .\n\
             <http://e.org/a> v:pn \"X-1 again\" .\n";
        let item = |id: &str, facts: &[(&str, &str)]| {
            record(Term::iri(format!("http://e.org/{id}")), facts)
        };
        let records = [
            item("a", &[(MFR, "Vishay"), (PN, "X-1"), (PN, "X-1b")]),
            item("b", &[]),
            item("a", &[(PN, "X-1 again")]),
        ];
        // `begin_shard`, then `push` per record: shards of 2 and 1.
        let expected = ShardedStore::from_records(&records, 2);
        let docs = [
            (FeedFormat::NTriples, ntriples.as_str()),
            (FeedFormat::Turtle, turtle),
        ];
        for (format, doc) in docs {
            for chunk_size in [1, 7, 4096] {
                let mut ingest = FeedIngest::new(format, SchemaInterner::new(), 2);
                for chunk in doc.as_bytes().chunks(chunk_size) {
                    ingest.feed(chunk).unwrap();
                }
                let fed = (ingest.records(), ingest.try_finish());
                assert_eq!(fed, (3, Ok(expected.clone())), "{format:?} by {chunk_size}");
            }
        }
    }
}
