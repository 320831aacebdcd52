//! Streamed-vs-batch parse equivalence: feeding a document to the
//! streaming readers in arbitrary byte chunks — split anywhere, including
//! mid-UTF-8 sequence, mid-token, inside comments or blank node labels —
//! must yield exactly the triples (and, for Turtle, namespaces) of the
//! batch `parse`, and must agree with it on whether the document is
//! valid at all. Triples are drained eagerly between feeds so the
//! incremental buffer-compaction paths are exercised, not just the
//! final flush.

use classilink_rdf::{ntriples, turtle, NTriplesStreamer, Triple, TurtleStreamer};
use proptest::prelude::*;

/// Valid documents covering every token class: comments, blank nodes,
/// escapes, language tags, datatypes, object/predicate lists, prefixed
/// names with dots, and multi-byte characters next to delimiters.
const TURTLE_DOC: &str = r#"
@prefix ex: <http://e.org/v#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
# catalog fragment. with a dot.
<http://e.org/p1> ex:partNumber "CRCW0805-10K" ; ex:mfr "Vishay" , "Vishay Ω" .
ex:p2.x ex:label "10 kΩ – résistance"@en .
ex:p2.x ex:value "1.5"^^xsd:decimal .
_:b0 ex:note "blank \"escaped\" subject \\ with dots. inside" .
"#;

const NTRIPLES_DOC: &str = "
# comment line Ω
<http://e.org/p1> <http://e.org/v#partNumber> \"CRCW0805-10K\" .
<http://e.org/p2> <http://e.org/v#label> \"10 kΩ – résistance\"@fr .
<http://e.org/p2> <http://e.org/v#value> \"10000\"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://e.org/v#note> \"blank subject\" .
<http://e.org/p1> <http://e.org/v#seeAlso> _:b2.
";

/// Cut `doc` into chunks at the given raw positions (taken mod len, so
/// the strategy is length-independent; duplicates collapse to empty
/// chunks, which the streamers must also tolerate).
fn chunks(doc: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (doc.len() + 1)).collect();
    cuts.sort_unstable();
    let mut out = Vec::new();
    let mut start = 0;
    for cut in cuts {
        out.push(doc[start..cut].to_vec());
        start = cut;
    }
    out.push(doc[start..].to_vec());
    out
}

/// Drive a streamer over the chunks, draining after every feed.
/// Returns the emitted triples, or the first error.
fn stream_ntriples(chunks: &[Vec<u8>]) -> Result<Vec<Triple>, classilink_rdf::RdfError> {
    let mut streamer = NTriplesStreamer::new();
    let mut triples = Vec::new();
    for chunk in chunks {
        streamer.feed(chunk);
        while let Some(t) = streamer.next_triple() {
            triples.push(t?);
        }
    }
    streamer.finish();
    while let Some(t) = streamer.next_triple() {
        triples.push(t?);
    }
    Ok(triples)
}

fn stream_turtle(
    chunks: &[Vec<u8>],
) -> Result<(Vec<Triple>, classilink_rdf::Namespaces), classilink_rdf::RdfError> {
    let mut streamer = TurtleStreamer::new();
    let mut triples = Vec::new();
    for chunk in chunks {
        streamer.feed(chunk);
        while let Some(t) = streamer.next_triple() {
            triples.push(t?);
        }
    }
    streamer.finish();
    while let Some(t) = streamer.next_triple() {
        triples.push(t?);
    }
    Ok((triples, streamer.into_namespaces()))
}

/// Truncate at an arbitrary *byte* (not char) position; the result may
/// be invalid UTF-8 at the tail, which batch parse never sees (it takes
/// `&str`) — so damaged-document agreement is checked on char cuts only.
fn char_truncated(doc: &str, cut: usize) -> String {
    let chars: Vec<char> = doc.chars().collect();
    chars[..cut % (chars.len() + 1)].iter().collect()
}

proptest! {
    /// Any chunking of a valid N-Triples document yields exactly the
    /// batch triples, in order.
    #[test]
    fn ntriples_chunked_equals_batch(cuts in proptest::collection::vec(0usize..4096, 0..6)) {
        let batch = ntriples::parse(NTRIPLES_DOC).unwrap();
        let streamed = stream_ntriples(&chunks(NTRIPLES_DOC.as_bytes(), &cuts)).unwrap();
        prop_assert_eq!(streamed, batch);
    }

    /// Any chunking of a valid Turtle document yields exactly the batch
    /// triples, in order, and prefix table.
    #[test]
    fn turtle_chunked_equals_batch(cuts in proptest::collection::vec(0usize..4096, 0..6)) {
        let (batch, batch_ns) = turtle::parse(TURTLE_DOC).unwrap();
        let (streamed, ns) = stream_turtle(&chunks(TURTLE_DOC.as_bytes(), &cuts)).unwrap();
        prop_assert_eq!(streamed, batch);
        prop_assert_eq!(ns, batch_ns);
    }

    /// On damaged documents (char-boundary truncation, so batch parse
    /// can see the same bytes) streamed and batch must agree on
    /// validity, and on the triples when both accept.
    #[test]
    fn chunked_and_batch_agree_on_truncated_documents(
        cut in 0usize..4096,
        cuts in proptest::collection::vec(0usize..4096, 0..4),
    ) {
        let nt = char_truncated(NTRIPLES_DOC, cut);
        let batch = ntriples::parse(&nt);
        let streamed = stream_ntriples(&chunks(nt.as_bytes(), &cuts));
        match (batch, streamed) {
            (Ok(g), Ok(ts)) => prop_assert_eq!(g, ts),
            (Err(_), Err(_)) => {}
            (b, s) => prop_assert!(false, "batch {:?} vs streamed {:?}", b.is_ok(), s.is_ok()),
        }

        let ttl = char_truncated(TURTLE_DOC, cut);
        let batch = turtle::parse(&ttl);
        let streamed = stream_turtle(&chunks(ttl.as_bytes(), &cuts));
        match (batch, streamed) {
            (Ok((g, ns)), Ok((ts, sns))) => {
                prop_assert_eq!(g, ts);
                prop_assert_eq!(ns, sns);
            }
            (Err(_), Err(_)) => {}
            (b, s) => prop_assert!(false, "batch {:?} vs streamed {:?}", b.is_ok(), s.is_ok()),
        }
    }
}
