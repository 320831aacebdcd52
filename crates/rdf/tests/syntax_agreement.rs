//! An N-Triples document is a Turtle document: both readers must make the
//! same graph of one, and refuse the same malformed lines. The terms of
//! the two syntaxes come from one lexer; this suite pins that from the
//! outside, through both grammars, so it fails the day either reader grows
//! a private copy of a terminal again.

use classilink_rdf::{
    ntriples, turtle, Literal, NTriplesStreamer, Namespaces, RdfError, Term, Triple, TurtleStreamer,
};
use proptest::prelude::*;

const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";

/// One statement, every choice taken from the bits of `seed`: the shape of
/// subject and object, the characters `escape_literal` has an escape for,
/// non-ASCII next to the quotes, the spacing, the line ending, a comment
/// or blank line in front, and a comment after the `.`.
fn statement(seed: u64, text: &str) -> (Triple, String) {
    let bit = |n: u32| seed >> n & 1 == 1;
    let iri = |n: u64| Term::iri(format!("http://e.org/Ω/{}", n % 50));
    let subject = match bit(0) {
        true => Term::blank(format!("s_{}-x", seed % 7)),
        false => iri(seed >> 8),
    };
    let mut value = String::new();
    if bit(1) {
        value.push('Ω');
    }
    value.push_str(text);
    for (n, special) in [(2, '"'), (3, '\\'), (4, '\n'), (5, '\r'), (6, '\t')] {
        if bit(n) {
            let middle = value.char_indices().nth(value.chars().count() / 2);
            value.insert(middle.map_or(0, |(at, _)| at), special);
        }
    }
    if bit(7) {
        value.push('é');
    }
    let object = match seed >> 16 & 7 {
        0 => iri(seed >> 24),
        1 => Term::blank(format!("o{}", seed % 9)),
        2 => Literal::lang(value, "en").into(),
        3 => Literal::lang(value, "fr-CA").into(),
        4 => Literal::typed(value, XSD_STRING).into(),
        _ => Term::literal(value),
    };
    let triple = Triple::new(subject, iri(seed >> 32), object);
    let mut line = String::new();
    match seed >> 40 & 7 {
        0 => line.push_str("# a comment. with \"a quote and <a bracket Ω\n"),
        1 => line.push_str(if bit(43) { " \t\r\n" } else { "\n" }),
        _ => {}
    }
    let gap = if bit(44) { " \t " } else { " " };
    let before_dot = if bit(45) { "" } else { gap };
    line.push_str(
        &[
            triple.subject.to_string().as_str(),
            gap,
            triple.predicate.to_string().as_str(),
            gap,
            triple.object.to_string().as_str(),
            before_dot,
            ".",
            match seed >> 48 & 3 {
                0 => " # a comment. with \"a quote and <a bracket Ω",
                1 => "#",
                _ => "",
            },
            if bit(46) { "\r\n" } else { "\n" },
        ]
        .concat(),
    );
    (triple, line)
}

proptest! {
    #[test]
    fn both_readers_make_the_same_graph_of_an_ntriples_document(
        seeds in proptest::collection::vec(0u64..u64::MAX, 0..10),
        text in "\\PC{0,12}",
    ) {
        let mut expected = Vec::new();
        let mut doc = String::new();
        for (i, seed) in seeds.iter().enumerate() {
            // A char-boundary cut of `text`, different for every line.
            let cut = text.char_indices().map(|(at, _)| at).nth(i).unwrap_or(text.len());
            let (triple, line) = statement(*seed, &text[cut..]);
            expected.push(triple);
            doc.push_str(&line);
        }
        if seeds.first().is_some_and(|seed| seed >> 47 & 1 == 1) {
            // No newline after the last statement.
            doc.truncate(doc.trim_end().len());
        }
        let from_ntriples = ntriples::parse(&doc).unwrap();
        let (from_turtle, namespaces) = turtle::parse(&doc).unwrap();
        prop_assert_eq!(namespaces, Namespaces::new());
        prop_assert_eq!(&from_ntriples, &expected);
        prop_assert_eq!(from_turtle, from_ntriples);
    }
}

/// The first error each streamer reports for `document` (bytes, so the
/// table can hold invalid UTF-8, which the batch `parse(&str)` cannot).
fn first_errors(document: &[u8]) -> (Option<RdfError>, Option<RdfError>) {
    let mut nt = NTriplesStreamer::new();
    nt.feed(document);
    nt.finish();
    let mut ttl = TurtleStreamer::new();
    ttl.feed(document);
    ttl.finish();
    (
        std::iter::from_fn(|| nt.next_triple()).find_map(Result::err),
        std::iter::from_fn(|| ttl.next_triple()).find_map(Result::err),
    )
}

#[test]
fn both_readers_refuse_the_same_malformed_lines() {
    const GOOD: &str = "<x:s> <x:p> \"v\" .\n";
    // (what is wrong, the second and last line, whether the shared lexer
    // is what reports it — then the two errors are one: same line, same
    // message).
    let table: [(&str, &[u8], bool); 14] = [
        ("unterminated IRI", b"<x:s> <x:p> <x:o .", true),
        ("unterminated literal", b"<x:s> <x:p> \"v .", true),
        ("dangling escape", b"<x:s> <x:p> \"v\\", true),
        ("empty language tag", b"<x:s> <x:p> \"v\"@ .", true),
        ("empty datatype", b"<x:s> <x:p> \"v\"^^<> .", true),
        ("empty label", b"_: <x:p> \"v\" .", true),
        ("empty IRI", b"<> <x:p> \"v\" .", true),
        ("\\u without hex", b"<x:s> <x:p> \"\\uZZZZx\" .", true),
        ("short \\U", b"<x:s> <x:p> \"\\U0041\" .", true),
        ("surrogate \\u", b"<x:s> <x:p> \"a\\uD800\" .", true),
        ("\\U past U+10FFFF", b"<x:s> <x:p> \"\\U00110000\" .", true),
        ("missing dot", b"<x:s> <x:p> \"v\"", false),
        ("trailing content", b"<x:s> <x:p> \"v\" . junk", false),
        ("invalid UTF-8", b"<x:s> <x:p> \"\xff\" .", false),
    ];
    for (what, line, from_the_lexer) in table {
        let (nt, ttl) = first_errors(&[GOOD.as_bytes(), line].concat());
        let (nt, ttl) = (nt.expect(what), ttl.expect(what));
        if from_the_lexer {
            assert_eq!(nt, ttl, "{what}");
        }
        if let RdfError::Parse { line, .. } = nt {
            assert_eq!(line, 2, "{what}");
        }
    }
    // The good line alone is good, so each fault above is the second line's.
    assert_eq!(first_errors(GOOD.as_bytes()), (None, None));
}
