//! Streaming ingestion: subject-grouping columnarisation from a triple
//! stream (or a parsed graph) straight into record-store builders.
//!
//! The batch front door used to be `parse → Graph → from_graph`, which
//! holds the whole document *and* the store in memory at once. This
//! module inverts that: [`FeedIngest`] drives the incremental parsers of
//! `classilink-rdf` ([`NTriplesStreamer`] / [`TurtleStreamer`]) chunk by
//! chunk, groups the emitted triples by subject with a [`SubjectGrouper`],
//! and pushes each completed record into a [`ShardedStoreBuilder`] —
//! opening a fresh shard every `records_per_shard` records, so a
//! multi-GB feed columnarises into shards as it arrives while the
//! transient state is bounded by one statement plus one record.
//!
//! The same grouping adapter is the *only* graph-walk columnariser:
//! [`RecordStore::from_graph`](crate::store::RecordStore::from_graph),
//! [`ShardedStore::from_graph*`](crate::shard::ShardedStore::from_graph)
//! and the `push_subject`/`push_graph` builder helpers are thin wrappers
//! over [`SubjectGrouper::push_subject`] / [`columnarise_subjects`].
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
//! let store = ingest.finish();
//! assert_eq!(store.len(), 2);
//! ```

use crate::error::{panic_payload, LinkError, LinkResult};
use crate::intern::SchemaInterner;
use crate::shard::{ShardedStore, ShardedStoreBuilder};
use crate::store::RecordStoreBuilder;
use classilink_rdf::{Graph, NTriplesStreamer, Term, Triple, TurtleStreamer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A sink accepting completed (subject-grouped) records — implemented by
/// both store builders, so one grouping adapter feeds the single-store
/// and the sharded columnarisation paths.
pub trait RecordSink {
    /// Accept one record with its `(property IRI, value)` facts; returns
    /// the record's index in the sink.
    fn accept_record(&mut self, id: Term, facts: &[(String, String)]) -> usize;
}

impl RecordSink for RecordStoreBuilder {
    fn accept_record(&mut self, id: Term, facts: &[(String, String)]) -> usize {
        self.push_record(id, || facts.iter().map(|(p, v)| (p.as_str(), v.as_str())))
    }
}

impl RecordSink for ShardedStoreBuilder {
    fn accept_record(&mut self, id: Term, facts: &[(String, String)]) -> usize {
        self.push_record(id, || facts.iter().map(|(p, v)| (p.as_str(), v.as_str())))
    }
}

/// Groups a subject-contiguous fact stream into records.
///
/// Facts are buffered until the subject changes (or
/// [`flush`](SubjectGrouper::flush) is called), then emitted as one record
/// into a
/// [`RecordSink`]. The fact buffers are recycled across records, so
/// steady-state grouping allocates only when a record exceeds every
/// previous record's fact count or value lengths.
///
/// The grouper assumes the feed is **subject-grouped** (all triples of a
/// subject arrive contiguously — the natural shape of exported dumps and
/// of graph walks). A subject that re-appears later starts a *second*
/// record; dedup is the feeder's job.
#[derive(Debug, Default)]
pub struct SubjectGrouper {
    subject: Option<Term>,
    /// `(property, value)` buffers; the first `fact_count` entries are
    /// live, the rest are retained allocations from earlier records.
    facts: Vec<(String, String)>,
    fact_count: usize,
    records: usize,
}

impl SubjectGrouper {
    /// A grouper with no pending record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a record for `subject`, flushing the previous record into
    /// `sink` if `subject` differs from the pending one. Returns the
    /// flushed record's sink index, if a record was completed.
    pub fn begin_subject<S: RecordSink>(&mut self, sink: &mut S, subject: &Term) -> Option<usize> {
        if self.subject.as_ref() == Some(subject) {
            return None;
        }
        let flushed = self.flush(sink);
        self.subject = Some(subject.clone());
        flushed
    }

    /// Feed one parsed triple: the subject begins/continues its record,
    /// and IRI-predicate + literal-object triples contribute a fact
    /// (other triples only mark the subject, mirroring
    /// [`Record::from_graph`](crate::record::Record::from_graph)).
    pub fn push_triple<S: RecordSink>(&mut self, sink: &mut S, triple: &Triple) -> Option<usize> {
        let flushed = self.begin_subject(sink, &triple.subject);
        if let (Some(p), Some(lit)) = (triple.predicate.as_iri(), triple.object.as_literal()) {
            self.buffer_fact(p, &lit.value);
        }
        flushed
    }

    /// Begin `subject` and buffer every literal-valued fact `graph` holds
    /// for it — the graph-walk columnarisation step shared by every
    /// `from_graph`/`push_subject` wrapper.
    pub fn push_subject<S: RecordSink>(
        &mut self,
        sink: &mut S,
        graph: &Graph,
        subject: &Term,
    ) -> Option<usize> {
        let flushed = self.begin_subject(sink, subject);
        for triple in graph.triples_matching(Some(subject), None, None) {
            if let (Some(p), Some(lit)) = (triple.predicate.as_iri(), triple.object.as_literal()) {
                self.buffer_fact(p, &lit.value);
            }
        }
        flushed
    }

    fn buffer_fact(&mut self, property: &str, value: &str) {
        if self.fact_count == self.facts.len() {
            self.facts.push((String::new(), String::new()));
        }
        let (p, v) = &mut self.facts[self.fact_count];
        p.clear();
        p.push_str(property);
        v.clear();
        v.push_str(value);
        self.fact_count += 1;
    }

    /// Emit the pending record (if any) into `sink`; returns its index.
    pub fn flush<S: RecordSink>(&mut self, sink: &mut S) -> Option<usize> {
        let subject = self.subject.take()?;
        let index = sink.accept_record(subject, &self.facts[..self.fact_count]);
        self.fact_count = 0;
        self.records += 1;
        Some(index)
    }

    /// Number of records emitted so far.
    pub fn records(&self) -> usize {
        self.records
    }
}

/// Columnarise the given graph subjects (in order) into `sink`, one
/// record per subject, through the grouping adapter.
pub fn columnarise_subjects<S: RecordSink>(graph: &Graph, subjects: &[Term], sink: &mut S) {
    let mut grouper = SubjectGrouper::new();
    for subject in subjects {
        grouper.push_subject(sink, graph, subject);
    }
    grouper.flush(sink);
}

/// Columnarise every subject of `graph` into `sink`, in subject order
/// (the order [`Graph::subjects`] yields — what `from_graph` has always
/// used, so global ids are unchanged).
pub fn columnarise_graph<S: RecordSink>(graph: &Graph, sink: &mut S) {
    columnarise_subjects(graph, &graph.subjects(), sink);
}

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
/// statements are parsed, subject-grouped and pushed into shard
/// builders immediately, with a fresh shard opened every
/// `records_per_shard` records. [`finish`](Self::finish) flushes the
/// tail and freezes the shards (their columns are already filled). At no point
/// does a full-document `Graph` — or any other input-sized intermediate
/// — exist; transient state is one incomplete statement plus one
/// record's facts plus the store under construction.
///
/// A parse error or an ingest-site panic poisons the ingest: the error
/// is reported, further feeding is rejected, and `finish` refuses to
/// publish a store built from a partial feed — a faulted feed therefore
/// never half-publishes a shard.
#[derive(Debug)]
pub struct FeedIngest {
    streamer: FeedStreamer,
    grouper: SubjectGrouper,
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
            grouper: SubjectGrouper::new(),
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

    /// Drain the triples parsed so far into the grouper/builders.
    fn drain_parsed(&mut self) -> LinkResult<()> {
        loop {
            let parsed = match &mut self.streamer {
                FeedStreamer::NTriples(s) => s.next_triple(),
                FeedStreamer::Turtle(s) => s.next_triple(),
            };
            let triple = match parsed {
                Some(Ok(triple)) => triple,
                Some(Err(error)) => {
                    return Err(LinkError::IngestFailed {
                        payload: error.to_string(),
                    })
                }
                None => return Ok(()),
            };
            if self
                .grouper
                .push_triple(&mut self.builder, &triple)
                .is_some()
                && self.builder.len().is_multiple_of(self.records_per_shard)
            {
                // The record that just completed filled the current
                // shard; the *next* record starts a new one.
                self.builder.begin_shard();
            }
        }
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

    /// Records columnarised so far (completed subjects only).
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

    /// Flush the tail (final statement and pending record) and hand back
    /// the shard builder — the delta path, where the caller appends the
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
            self.drain_parsed()?;
            self.grouper.flush(&mut self.builder);
            Ok(())
        }));
        self.settle(outcome)?;
        Ok(self.builder)
    }

    /// Flush the tail and freeze the shards; see
    /// [`into_builder`](Self::into_builder) for the delta path.
    pub fn try_finish(self) -> LinkResult<ShardedStore> {
        self.into_builder()?.try_build()
    }

    /// Panicking [`try_finish`](Self::try_finish).
    pub fn finish(self) -> ShardedStore {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::store::RecordStore;

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

    #[test]
    fn feed_matches_batch_graph_path() {
        let doc = feed_doc(10);
        let graph = classilink_rdf::ntriples::parse(&doc).unwrap();
        let batch = ShardedStore::from_graph(&graph, 4);

        let mut ingest = FeedIngest::ntriples(SchemaInterner::new(), 3);
        // Awkward chunk size on purpose: boundaries land mid-line.
        for chunk in doc.as_bytes().chunks(7) {
            ingest.feed(chunk).unwrap();
        }
        let streamed = ingest.finish();
        assert_eq!(streamed.len(), batch.len());
        assert_eq!(streamed.shard_count(), 4); // ceil(10 / 3)
                                               // Same records, same global order (the feed is subject-grouped
                                               // in first-appearance order, which is the graph's subject order).
        for i in 0..batch.len() {
            assert_eq!(streamed.id(i), batch.id(i));
        }
        assert_eq!(streamed.to_store(), batch.to_store());
    }

    #[test]
    fn shards_rotate_on_record_boundaries() {
        let doc = feed_doc(7);
        let mut ingest = FeedIngest::ntriples(SchemaInterner::new(), 2);
        ingest.feed(doc.as_bytes()).unwrap();
        let store = ingest.finish();
        let sizes: Vec<usize> = store.shards().iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![2, 2, 2, 1]);
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
        assert_eq!(ingest.finish().len(), 500);
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
        let store = ingest.finish();
        assert_eq!(store.len(), 2);
        let pn = store.property(PN).unwrap();
        assert_eq!(store.shard(0).first(0, pn), Some("X-1"));
    }

    #[test]
    fn grouper_reuses_fact_buffers_and_counts_records() {
        let mut builder = RecordStore::builder();
        let mut grouper = SubjectGrouper::new();
        let (a, b) = ("http://e.org/a", "http://e.org/b");
        let mut push = |subject, property, value| {
            grouper.push_triple(&mut builder, &Triple::literal(subject, property, value))
        };
        assert_eq!(push(a, PN, "X-1"), None);
        assert_eq!(push(a, MFR, "Vishay"), None);
        // Subject change flushes the previous record.
        assert_eq!(push(b, PN, "X-2"), Some(0));
        assert_eq!(grouper.flush(&mut builder), Some(1));
        assert_eq!(grouper.records(), 2);
        assert_eq!(grouper.flush(&mut builder), None);
        let store = builder.build();
        assert_eq!(store.len(), 2);
        let mut expected = Record::new(Term::iri(a));
        expected.add(PN, "X-1").add(MFR, "Vishay");
        assert_eq!(store.record(0), expected);
    }

    #[test]
    fn columnarise_graph_matches_from_graph() {
        let graph = classilink_rdf::ntriples::parse(&feed_doc(6)).unwrap();
        let mut builder = RecordStore::builder();
        columnarise_graph(&graph, &mut builder);
        assert_eq!(builder.build(), RecordStore::from_graph(&graph));
    }
}
