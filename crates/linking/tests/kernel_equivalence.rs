//! Equivalence suite for the optimised similarity kernels: every
//! optimised path — ASCII byte fast paths, scratch-buffer DP/bitmap
//! kernels, the precomputed token-index merge kernels behind
//! `CompiledComparator::score`, and the Jaro pass `score_hoisted` runs
//! against a block's hoisted masks — must be **bit-identical** (`f64::to_bits`)
//! to the naive reference implementations in
//! `classilink_linking::similarity::naive`, on arbitrary Unicode input.
//!
//! One scratch is deliberately reused across all calls of each test so
//! stale buffer state from a previous pair would surface as a mismatch.

use classilink_linking::record::Record;
use classilink_linking::similarity::scratch::SimScratch;
use classilink_linking::similarity::symbols::{shared_symbols, symbol_masks, Signature};
use classilink_linking::similarity::{edit, jaro, naive, SimilarityMeasure};
use classilink_linking::{LeftHoist, MatchDecision, RecordComparator, RecordStore};
use classilink_rdf::Term;
use proptest::prelude::*;

const EXT_PN: &str = "http://provider.e.org/v#ref";
const LOC_PN: &str = "http://local.e.org/v#partNumber";

/// Assert every scratch kernel agrees bit-for-bit with its naive oracle
/// on one input pair, using the shared `scratch`.
fn assert_kernels_match(scratch: &mut SimScratch, a: &str, b: &str) {
    assert_eq!(
        edit::levenshtein_with(scratch, a, b),
        naive::levenshtein(a, b),
        "levenshtein({a:?}, {b:?})"
    );
    assert_eq!(
        edit::levenshtein_similarity_with(scratch, a, b).to_bits(),
        naive::levenshtein_similarity(a, b).to_bits(),
        "levenshtein_similarity({a:?}, {b:?})"
    );
    assert_eq!(
        edit::damerau_levenshtein_with(scratch, a, b),
        naive::damerau_levenshtein(a, b),
        "damerau_levenshtein({a:?}, {b:?})"
    );
    assert_eq!(
        edit::damerau_levenshtein_similarity_with(scratch, a, b).to_bits(),
        naive::damerau_levenshtein_similarity(a, b).to_bits(),
        "damerau_levenshtein_similarity({a:?}, {b:?})"
    );
    assert_jaro_matches_naive(scratch, a, b);
    for &measure in SimilarityMeasure::all() {
        assert_eq!(
            measure.compare_with(scratch, a, b).to_bits(),
            naive::compare(measure, a, b).to_bits(),
            "{}({a:?}, {b:?})",
            measure.name()
        );
        assert_eq!(
            measure.compare(a, b).to_bits(),
            naive::compare(measure, a, b).to_bits(),
            "plain {}({a:?}, {b:?})",
            measure.name()
        );
    }
}

/// Assert the indexed `score` path agrees bit-for-bit with a naive
/// weighted-average scorer for every measure, on single-value stores.
fn assert_score_matches_naive(scratch: &mut SimScratch, a: &str, b: &str) {
    assert_best_score_matches_naive(scratch, a, &[b]);
}

/// [`assert_score_matches_naive`] against a right record holding every
/// value of `rights`: the naive score is the best pairing. The block path
/// — `hoist_left`, then `score_hoisted` — runs too, under a non-match
/// threshold so low that the left value's masks exist and only a pair
/// sharing no symbol skips its kernel; whatever it decides `Match` or
/// `Possible` carries the naive score.
fn assert_best_score_matches_naive(scratch: &mut SimScratch, a: &str, rights: &[&str]) {
    let mut left = Record::new(Term::iri("http://provider.e.org/item/1"));
    left.add(EXT_PN, a);
    let mut right = Record::new(Term::iri("http://local.e.org/prod/1"));
    for b in rights {
        right.add(LOC_PN, *b);
    }
    let external = RecordStore::from_records(&[left]);
    let local = RecordStore::from_records(&[right]);
    let mut hoist = LeftHoist::new();
    for &measure in SimilarityMeasure::all() {
        let expected = (rights.iter())
            .map(|b| naive::compare(measure, a, b))
            .fold(0.0, f64::max);
        let comparator = RecordComparator::single(EXT_PN, LOC_PN, measure);
        let compiled = comparator.compile(&external, &local);
        let (score, _) = compiled.score(&external, 0, &local, 0, scratch);
        assert_eq!(
            score.to_bits(),
            expected.to_bits(),
            "score path {}({a:?}, {rights:?})",
            measure.name()
        );
        // The detail-carrying path agrees with the detail-free path.
        let full = compiled.compare(&external, 0, &local, 0);
        assert_eq!(full.score.to_bits(), score.to_bits());
        assert_eq!(full.details, vec![Some(score)]);
        let lax = comparator.with_thresholds(0.85, 1e-6);
        let compiled = lax.compile(&external, &local);
        compiled.hoist_left(&external, 0, &mut hoist);
        let (hoisted, decision) = compiled.score_hoisted(&hoist, &external, &local, 0, scratch);
        if decision != MatchDecision::NonMatch {
            assert_eq!(
                hoisted.to_bits(),
                expected.to_bits(),
                "block path {}({a:?}, {rights:?})",
                measure.name()
            );
        }
    }
}

/// `jaro_with` and `jaro_winkler_with` against their naive oracles, bit for
/// bit.
fn assert_jaro_matches_naive(scratch: &mut SimScratch, a: &str, b: &str) {
    assert_eq!(
        jaro::jaro_with(scratch, a, b).to_bits(),
        naive::jaro(a, b).to_bits(),
        "jaro({a:?}, {b:?})"
    );
    assert_eq!(
        jaro::jaro_winkler_with(scratch, a, b).to_bits(),
        naive::jaro_winkler(a, b).to_bits(),
        "jaro_winkler({a:?}, {b:?})"
    );
}

/// Every string over `{a, b, c}` of at most `max_len` letters.
fn three_letter_strings(max_len: usize) -> Vec<String> {
    let mut layer = vec![String::new()];
    let mut all = layer.clone();
    for _ in 0..max_len {
        layer = (layer.iter())
            .flat_map(|s| ['a', 'b', 'c'].map(|c| format!("{s}{c}")))
            .collect();
        all.extend_from_slice(&layer);
    }
    all
}

/// A seeded SplitMix64 stream.
struct SplitMix(u64);

impl SplitMix {
    /// A number in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Jaro ≡ naive where the direction of the greedy match could matter:
/// every string over three letters of at most `max_len` against every
/// third of them (repeats and transpositions at every length), then
/// `random` seeded pairs of 0–65 letters over 2–6-letter alphabets (the
/// 63 / 64 / 65 edge of the bit-parallel pass included). Returns the number
/// of pairs of the first part.
fn assert_jaro_on_small_alphabets(max_len: usize, random: usize) -> usize {
    let mut scratch = SimScratch::new();
    let strings = three_letter_strings(max_len);
    let mut swept = 0;
    for a in &strings {
        for b in strings.iter().step_by(3) {
            assert_jaro_matches_naive(&mut scratch, a, b);
            swept += 1;
        }
    }
    let mut rng = SplitMix(20_120_326);
    for _ in 0..random {
        let letters = 2 + rng.below(5);
        let word = |rng: &mut SplitMix| -> String {
            let len = rng.below(66);
            (0..len)
                .map(|_| char::from(b'a' + rng.below(letters) as u8))
                .collect()
        };
        let (a, b) = (word(&mut rng), word(&mut rng));
        assert_jaro_matches_naive(&mut scratch, &a, &b);
    }
    swept
}

#[test]
fn jaro_matches_naive_on_small_alphabets() {
    assert_eq!(assert_jaro_on_small_alphabets(5, 20_000), 364 * 122);
}

/// The full sweep: 3 588 320 exhaustive pairs and 2 000 000 random ones.
/// Run optimised by CI (`--release -- --include-ignored`).
#[test]
#[ignore = "exhaustive: run with --release -- --include-ignored"]
fn jaro_matches_naive_on_small_alphabets_exhaustively() {
    assert_eq!(assert_jaro_on_small_alphabets(7, 2_000_000), 3_588_320);
}

/// The shared-symbol count of `a` (as the hoisted left value) and `b`, the
/// way `score_hoisted` obtains it; `None` when the pair has no bound.
fn shared(a: &str, b: &str) -> Option<u32> {
    shared_symbols(&symbol_masks(a)?, b)
}

/// An independent count of the multiset intersection of two strings'
/// symbols.
fn multiset_intersection(a: &str, b: &str) -> usize {
    let count = |s: &str, c: char| s.chars().filter(|&x| x == c).count();
    let mut distinct: Vec<char> = a.chars().collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.iter().map(|&c| count(a, c).min(count(b, c))).sum()
}

/// What the run prefilter knows of a pair from its two signatures — a cap
/// on the shared-symbol count and the common prefix — or `None` when
/// either value has no signature (it is not ASCII).
fn signature_bound(a: &str, b: &str) -> Option<(u32, u32)> {
    let (sa, sb) = (Signature::of(a), Signature::of(b));
    let both = sa.byte_len().is_some() && sb.byte_len().is_some();
    both.then(|| (sa.shared_upper(&sb), sa.common_prefix(&sb)))
}

/// The signature's cap in its four-popcount form, from the two ASCII
/// values' bytes: per side, its length less the classes it holds that the
/// other lacks and the classes it repeats that the other does not; the
/// smaller side. `Signature::shared_upper` computes it in two popcounts
/// from each side's excess, `len − popcnt(present) − popcnt(repeated)`;
/// this asserts on the way that the excess never underflows.
fn four_popcount_upper(a: &str, b: &str) -> u32 {
    let classes = |s: &str| {
        let (mut present, mut repeated) = (0u64, 0u64);
        for c in s.bytes() {
            let class = 1u64 << (c & 63);
            repeated |= present & class;
            present |= class;
        }
        let len = u32::try_from(s.len()).expect("a test value fits a u32");
        let excess = len.checked_sub(present.count_ones() + repeated.count_ones());
        assert!(excess.is_some(), "the excess of {s:?} underflows");
        (present, repeated, len)
    };
    let ((pa, ra, la), (pb, rb, lb)) = (classes(a), classes(b));
    let unpaired = |p: u64, r: u64, q: u64, t: u64| (p & !q).count_ones() + (r & !t).count_ones();
    (la - unpaired(pa, ra, pb, rb)).min(lb - unpaired(pb, rb, pa, ra))
}

/// Assert that the two-popcount cap of two ASCII values is the
/// four-popcount one, bit for bit.
fn assert_two_popcount_form(a: &str, b: &str) {
    let cap = Signature::of(a).shared_upper(&Signature::of(b));
    assert_eq!(cap, four_popcount_upper(a, b), "({a:?}, {b:?})");
}

/// Assert that the signature tier never undercuts the exact count: its cap
/// is the four-popcount form's, at least the multiset intersection (and
/// what `shared_symbols` counts, where that has a table), at most the
/// shorter length, the same from either side; its prefix is the one
/// Winkler boosts; and fed to the bound formulas it still bounds every
/// kernel. Returns whether the pair has signatures.
fn assert_signature_never_undercuts(scratch: &mut SimScratch, a: &str, b: &str) -> bool {
    let Some((cap, prefix)) = signature_bound(a, b) else {
        assert!(!a.is_ascii() || !b.is_ascii(), "({a:?}, {b:?})");
        return false;
    };
    assert!(a.is_ascii() && b.is_ascii(), "({a:?}, {b:?})");
    assert_two_popcount_form(a, b);
    assert!(
        cap as usize >= multiset_intersection(a, b),
        "cap {cap} undercuts the count on ({a:?}, {b:?})"
    );
    if let Some(m) = shared(a, b) {
        assert!(cap >= m, "cap {cap} < shared_symbols {m} on ({a:?}, {b:?})");
    }
    assert!(cap as usize <= a.len().min(b.len()), "({a:?}, {b:?})");
    assert_eq!(signature_bound(b, a), Some((cap, prefix)), "({a:?}, {b:?})");
    assert_eq!(prefix, jaro::common_prefix(a, b), "({a:?}, {b:?})");
    let (la, lb) = (a.len(), b.len());
    let bounds: [(&str, f64, f64); 4] = [
        (
            "levenshtein",
            edit::edit_similarity_bound_at(cap, la, lb, prefix),
            edit::levenshtein_similarity_with(scratch, a, b),
        ),
        (
            "damerau-levenshtein",
            edit::edit_similarity_bound_at(cap, la, lb, prefix),
            edit::damerau_levenshtein_similarity_with(scratch, a, b),
        ),
        (
            "jaro",
            jaro::jaro_bound_at(cap, la, lb, prefix),
            jaro::jaro_with(scratch, a, b),
        ),
        (
            "jaro-winkler",
            jaro::jaro_winkler_bound_at(cap, la, lb, prefix),
            jaro::jaro_winkler_with(scratch, a, b),
        ),
    ];
    for (name, bound, kernel) in bounds {
        assert!(
            bound >= kernel,
            "{name}: signature bound {bound} undercuts kernel {kernel} on ({a:?}, {b:?})"
        );
    }
    true
}

/// Assert that, wherever the pair has a bound, no string kernel exceeds
/// its own: a kernel the comparator skips on the bound's word can never
/// have scored higher. Returns whether the pair had a bound.
fn assert_bounds_hold(scratch: &mut SimScratch, a: &str, b: &str) -> bool {
    let Some(m) = shared(a, b) else {
        return false;
    };
    let expected = multiset_intersection(a, b);
    assert_eq!(m as usize, expected, "shared_symbols({a:?}, {b:?})");
    let bounds: [(&str, f64, f64); 4] = [
        (
            "levenshtein",
            edit::edit_similarity_bound(m, a, b),
            edit::levenshtein_similarity_with(scratch, a, b),
        ),
        (
            "damerau-levenshtein",
            edit::edit_similarity_bound(m, a, b),
            edit::damerau_levenshtein_similarity_with(scratch, a, b),
        ),
        (
            "jaro",
            jaro::jaro_bound(m, a, b),
            jaro::jaro_with(scratch, a, b),
        ),
        (
            "jaro-winkler",
            jaro::jaro_winkler_bound(m, a, b),
            jaro::jaro_winkler_with(scratch, a, b),
        ),
    ];
    for (name, bound, kernel) in bounds {
        assert!(
            bound >= kernel,
            "{name}: bound {bound} undercuts kernel {kernel} on ({a:?}, {b:?})"
        );
        assert!(bound <= 1.0, "{name}: bound {bound} on ({a:?}, {b:?})");
    }
    true
}

#[test]
fn bounds_hold_at_the_mask_boundary_and_on_repeats() {
    let mut scratch = SimScratch::new();
    let ascii: String = ('a'..='z').cycle().take(101).collect();
    // Left values of 63/64 bytes have a table, 65 does not; the right
    // value may be any length.
    for len_a in [0usize, 1, 12, 63, 64, 65] {
        for len_b in [0usize, 1, 12, 63, 64, 65, 100] {
            for skew in [0usize, 1] {
                let (a, b) = (&ascii[..len_a], &ascii[skew..skew + len_b]);
                assert_eq!(assert_bounds_hold(&mut scratch, a, b), len_a <= 64);
            }
        }
    }
    for (a, b) in [
        ("AAAA", "AA"),
        ("AA", "AAAA"),
        ("AAAA", "AAAA"),
        ("ABAB", "BABA"),
        ("MARTHA", "MARHTA"),
        ("CRCW0805-10K", "CRCW0806-10K"),
        ("CRCW0805-10K", "K01-5080WCRC"),
        ("ca", "ac"),
        ("abc", "xyz"),
        ("", ""),
        ("", "x"),
        ("x", ""),
    ] {
        assert!(assert_bounds_hold(&mut scratch, a, b), "({a:?}, {b:?})");
    }
    // Equal values must never be skippable: their bounds are exactly 1.0.
    for a in ["", "x", "CRCW0805-10K", &ascii[..64]] {
        let m = shared(a, a).expect("ASCII, at most 64 bytes");
        assert_eq!(edit::edit_similarity_bound(m, a, a), 1.0);
        assert_eq!(jaro::jaro_bound(m, a, a), 1.0);
        assert_eq!(jaro::jaro_winkler_bound(m, a, a), 1.0);
    }
    // Non-ASCII on either side, combining marks included: no bound at all
    // (the kernels count scalar values, the tables bytes).
    for (a, b) in [
        ("café", "cafe"),
        ("cafe", "café"),
        ("e\u{301}tude", "etude"),
        ("etude", "e\u{301}tude"),
        ("C)", "é"),
        ("😀", "😀"),
    ] {
        assert!(!assert_bounds_hold(&mut scratch, a, b), "({a:?}, {b:?})");
    }
}

#[test]
fn signature_boundary_table() {
    let mut scratch = SimScratch::new();
    // (a, b, cap on the shared symbols, common prefix).
    let x = |n: usize| "x".repeat(n);
    let ab = "ab".repeat(150);
    let table: Vec<(String, String, u32, u32)> = [
        ("", "", 0, 0),
        ("", "ABCD", 0, 0),
        ("AAAA", "AA", 2, 2),
        // One side repeats a symbol, the other holds it once.
        ("AAAA", "A", 1, 1),
        ("AABB", "AB", 2, 1),
        ("AABB", "ABC", 2, 1),
        // Each side's repeat is what makes that side's count the tight one.
        ("AAB", "ABBB", 2, 1),
        ("ABAB", "BABA", 4, 0),
        ("CRCW0805-10K", "CRCW0812-22K", 10, 4),
        ("CRCW0805-10K", "T83A225K", 3, 0),
        // '0' / 'p' and '-' / 'm' fold onto one class each: the cap counts
        // a pairing the exact count does not — looser, never lower.
        ("0", "p", 1, 0),
        ("-", "m", 1, 0),
        ("00", "pp", 2, 0),
        ("0-", "mp", 2, 0),
        // A value shorter than four bytes against one that extends it:
        // the zero padding is not a shared symbol.
        ("AB", "ABCD", 2, 2),
        ("AB", "AB", 2, 2),
        ("A", "A\0", 1, 1),
        ("A\0\0", "A", 1, 1),
        ("ABCDE", "ABCDF", 4, 4),
        ("ABC", "ABD", 2, 2),
    ]
    .into_iter()
    .map(|(a, b, cap, prefix)| (a.to_string(), b.to_string(), cap, prefix))
    .chain([
        // Lengths around the table's edge, and past a byte's range.
        (x(63), x(64), 63, 4),
        (x(64), x(64), 64, 4),
        (x(64), x(65), 64, 4),
        (x(65), x(300), 65, 4),
        (ab.clone(), ab.clone(), 300, 4),
        // Counts saturate at two: two classes cost "ab…" four symbols.
        (ab.clone(), x(300), 296, 0),
    ])
    .collect();
    for (a, b, cap, prefix) in &table {
        assert!(assert_signature_never_undercuts(&mut scratch, a, b));
        assert_eq!(
            signature_bound(a, b),
            Some((*cap, *prefix)),
            "({a:?}, {b:?})"
        );
    }
    for (len, bounded) in [(0, true), (63, true), (64, true), (65, false), (300, false)] {
        assert_eq!(Signature::of(&x(len)).is_bounded(), bounded, "{len} bytes");
        assert_eq!(Signature::of(&x(len)).byte_len(), Some(len));
    }
    // Non-ASCII on either side, combining marks included: no signature —
    // 'é' is C3 A9, whose low bits are those of 'C' and ')'.
    for (a, b) in [
        ("café", "cafe"),
        ("cafe", "café"),
        ("e\u{301}tude", "etude"),
        ("C)", "é"),
        ("😀", "😀"),
    ] {
        assert!(
            !assert_signature_never_undercuts(&mut scratch, a, b),
            "({a:?}, {b:?})"
        );
    }
    assert_eq!(Signature::of("é"), Signature::POISONED);
    assert!(!Signature::POISONED.is_bounded());
}

#[test]
fn non_ascii_regression_cases() {
    // Emoji (4-byte scalars), combining marks vs precomposed chars,
    // lowercase expansions ('İ' → "i̇", 'ß'), RTL text, CJK — the
    // inputs most likely to break an ASCII fast path or a byte/char
    // length confusion.
    let cases = [
        ("café", "cafe"),
        ("e\u{301}tude", "étude"),
        ("😀😀😀", "😀😀"),
        ("part😀number", "partnumber"),
        ("İstanbul", "istanbul"),
        ("STRASSE", "straße"),
        ("ß", "ss"),
        ("日本語テスト", "日本語テスト済"),
        ("מבחן", "מבחני"),
        ("Ωμέγα", "ωμεγα"),
        ("a\u{300}\u{301}", "a\u{301}\u{300}"),
        ("", "😀"),
        ("🇫🇷", "🇫"),
    ];
    let mut scratch = SimScratch::new();
    for (a, b) in cases {
        assert_kernels_match(&mut scratch, a, b);
        assert_kernels_match(&mut scratch, b, a);
        assert_score_matches_naive(&mut scratch, a, b);
    }
}

#[test]
fn jaro_strategy_boundary_at_64_symbols() {
    // Jaro takes one of two strategies by length and encoding: the
    // bit-parallel pass (both sides ASCII and at most 64 bytes; the block
    // path runs it against the hoisted masks) or the Vec<bool> scan over
    // decoded symbols (anything else). Pin pairs straddling the 63/64/65
    // boundary, in both argument orders, ASCII and not; an ASCII left value
    // against a non-ASCII or 65-byte right one must leave the block path's
    // pass for the kernel.
    let mut scratch = SimScratch::new();
    let ascii: String = ('a'..='z').cycle().take(101).collect();
    let unicode: String = "αβγδεζηθικλμνξ".chars().cycle().take(101).collect();
    for len_a in [1usize, 12, 63, 64, 65, 100] {
        for len_b in [1usize, 12, 63, 64, 65, 100] {
            let (a1, b1) = (&ascii[..len_a], &ascii[1..1 + len_b]);
            assert_kernels_match(&mut scratch, a1, b1);
            assert_score_matches_naive(&mut scratch, a1, b1);
            let a2: String = unicode.chars().take(len_a).collect();
            let b2: String = unicode.chars().skip(1).take(len_b).collect();
            assert_kernels_match(&mut scratch, &a2, &b2);
            // Mixed encodings straddling the fast-path dispatch.
            assert_kernels_match(&mut scratch, a1, &b2);
            assert_score_matches_naive(&mut scratch, a1, &b2);
        }
    }
}

#[test]
fn the_block_path_takes_a_right_records_best_value() {
    // The second value is the near one: the pass over the first must not
    // leave state that changes the second, nor its score stand for both.
    let (a, rights) = ("CRCW0805-10K", ["T83A225K", "CRCW0806-10K"]);
    let jw = |b| naive::jaro_winkler(a, b);
    assert!(jw(rights[1]) > jw(rights[0]));
    assert_best_score_matches_naive(&mut SimScratch::new(), a, &rights);
}

#[test]
fn ascii_and_unicode_paths_agree_on_the_boundary() {
    // Pairs straddling the fast-path condition (one side ASCII, one
    // not) plus pure-ASCII pairs of very different lengths.
    let mut scratch = SimScratch::new();
    for (a, b) in [
        ("CRCW0805-10K", "CRCW0805-10Ω"),
        ("resistor", "résistor"),
        ("", ""),
        ("x", ""),
        ("an extremely long part description with many tokens", "x"),
        ("AAAA", "aaaa"),
    ] {
        assert_kernels_match(&mut scratch, a, b);
        assert_score_matches_naive(&mut scratch, a, b);
    }
}

/// The two-popcount cap equals the four-popcount one on every pair of
/// three-letter strings of at most five letters, at the lengths around the
/// table's edge and past a byte's range, and on values whose symbols all
/// fold onto one or two classes (`'0'` / `'p'`, `'-'` / `'m'`).
#[test]
fn the_two_popcount_cap_is_the_four_popcount_one() {
    let strings = three_letter_strings(5);
    for a in &strings {
        for b in &strings {
            assert_two_popcount_form(a, b);
        }
    }
    let ascii: String = (' '..='~').cycle().take(300).collect();
    let mut values = Vec::new();
    for len in [0usize, 1, 63, 64, 65, 300] {
        values.push(ascii[..len].to_string());
        values.push(ascii[300 - len..].to_string());
        values.push("x".repeat(len));
        values.push("0p".repeat(len).split_off(len));
        values.push("0p-m".repeat(len).split_off(3 * len));
        values.push(format!("CRCW{}", "0805".repeat(len))[..len].to_string());
    }
    for a in &values {
        for b in &values {
            assert_two_popcount_form(a, b);
        }
    }
}

proptest! {
    /// Scratch kernels ≡ naive oracles on arbitrary printable input
    /// (the shim's `\PC` mixes ASCII and multi-byte characters, so both
    /// the byte and char paths are exercised in one run).
    #[test]
    fn prop_scratch_kernels_bit_identical(a in "\\PC{0,18}", b in "\\PC{0,18}") {
        let mut scratch = SimScratch::new();
        assert_kernels_match(&mut scratch, &a, &b);
    }

    /// No string kernel exceeds its shared-symbol bound, on arbitrary
    /// printable input (pairs with a non-ASCII side have no bound) and on
    /// ASCII-only input (every pair has one).
    #[test]
    fn prop_bounds_never_undercut_their_kernels(
        a in "\\PC{0,18}",
        b in "\\PC{0,18}",
        c in "[ -~]{0,18}",
        d in "[ -~]{0,18}",
    ) {
        let mut scratch = SimScratch::new();
        assert_bounds_hold(&mut scratch, &a, &b);
        prop_assert!(assert_bounds_hold(&mut scratch, &c, &d));
        // A small alphabet makes repeats and transpositions the rule.
        let fold = |s: &str| -> String {
            s.bytes().map(|x| char::from(b'A' + x % 3)).collect()
        };
        prop_assert!(assert_bounds_hold(&mut scratch, &fold(&c), &fold(&d)));
    }

    /// The signature tier never undercuts the exact count, and its prefix
    /// is Winkler's: on arbitrary printable input (a non-ASCII side has no
    /// signature), on ASCII input of up to 40 bytes (every pair has one)
    /// and on a three-letter alphabet (repeats are the rule).
    #[test]
    fn prop_signatures_never_undercut_the_count(
        a in "\\PC{0,18}",
        b in "\\PC{0,18}",
        c in "[ -~]{0,40}",
        d in "[ -~]{0,40}",
    ) {
        let mut scratch = SimScratch::new();
        assert_signature_never_undercuts(&mut scratch, &a, &b);
        prop_assert!(assert_signature_never_undercuts(&mut scratch, &c, &d));
        // A shared head exercises the prefix past its first byte.
        let headed = format!("{}{d}", &c[..c.len().min(3)]);
        prop_assert!(assert_signature_never_undercuts(&mut scratch, &c, &headed));
        let fold = |s: &str| -> String {
            s.bytes().map(|x| char::from(b'A' + x % 3)).collect()
        };
        prop_assert!(assert_signature_never_undercuts(&mut scratch, &fold(&c), &fold(&d)));
    }

    /// The token-indexed score path ≡ a naive scorer on arbitrary
    /// printable input.
    #[test]
    fn prop_score_path_bit_identical(a in "\\PC{0,16}", b in "\\PC{0,16}") {
        let mut scratch = SimScratch::new();
        assert_score_matches_naive(&mut scratch, &a, &b);
    }

    /// Scratch reuse across a *sequence* of pairs never changes results
    /// (catches kernels that forget to re-initialise buffer prefixes).
    #[test]
    fn prop_scratch_reuse_is_stateless(
        a in "\\PC{0,14}",
        b in "\\PC{0,14}",
        c in "\\PC{0,14}",
        d in "\\PC{0,14}",
    ) {
        let mut shared = SimScratch::new();
        for (x, y) in [(&a, &b), (&c, &d), (&a, &d), (&c, &b), (&a, &b)] {
            let with_shared = (
                edit::levenshtein_with(&mut shared, x, y),
                jaro::jaro_with(&mut shared, x, y).to_bits(),
                edit::damerau_levenshtein_with(&mut shared, x, y),
            );
            let mut fresh = SimScratch::new();
            let with_fresh = (
                edit::levenshtein_with(&mut fresh, x, y),
                jaro::jaro_with(&mut fresh, x, y).to_bits(),
                edit::damerau_levenshtein_with(&mut fresh, x, y),
            );
            prop_assert_eq!(with_shared, with_fresh);
        }
    }
}
