//! Edit-distance based similarities (Levenshtein, Damerau-Levenshtein).
//!
//! Each measure is a scratch-buffer kernel
//! (`levenshtein_with(scratch, a, b)`, …); a one-off call passes a fresh
//! [`SimScratch`]. The kernels borrow their DP rows and char buffers from
//! it, take an ASCII byte-slice fast path when both inputs
//! are ASCII (no char decode), trim common prefixes/suffixes, and
//! early-exit on equal or empty inputs — while staying **bit-identical**
//! to the naive reference implementations (asserted by the equivalence
//! property tests against [`crate::similarity::naive`]).

use super::scratch::SimScratch;

/// Drop the common prefix and suffix of two slices (edit operations can
/// only occur in the differing middle, so the Levenshtein distance of
/// the trimmed slices equals the distance of the originals).
fn trim_common<'s, T: PartialEq>(a: &'s [T], b: &'s [T]) -> (&'s [T], &'s [T]) {
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (&a[..a.len() - suffix], &b[..b.len() - suffix])
}

/// Two-row Levenshtein DP over already-trimmed, non-empty slices.
fn levenshtein_rows<T: PartialEq>(
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
    a: &[T],
    b: &[T],
) -> usize {
    prev.clear();
    prev.extend(0..=b.len());
    curr.clear();
    curr.resize(b.len() + 1, 0);
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution_cost = if ca == cb { 0 } else { 1 };
            curr[j + 1] = (prev[j + 1] + 1)
                .min(curr[j] + 1)
                .min(prev[j] + substitution_cost);
        }
        std::mem::swap(prev, curr);
    }
    prev[b.len()]
}

/// The Levenshtein edit distance between two strings (insertions,
/// deletions, substitutions each cost 1), computed over Unicode scalar
/// values, using `scratch` for all working memory.
pub fn levenshtein_with(scratch: &mut SimScratch, a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    let SimScratch {
        a_chars,
        b_chars,
        prev,
        curr,
        ..
    } = scratch;
    if a.is_ascii() && b.is_ascii() {
        let (a, b) = trim_common(a.as_bytes(), b.as_bytes());
        if a.is_empty() || b.is_empty() {
            return a.len().max(b.len());
        }
        levenshtein_rows(prev, curr, a, b)
    } else {
        a_chars.clear();
        a_chars.extend(a.chars());
        b_chars.clear();
        b_chars.extend(b.chars());
        let (a, b) = trim_common(a_chars.as_slice(), b_chars.as_slice());
        if a.is_empty() || b.is_empty() {
            return a.len().max(b.len());
        }
        levenshtein_rows(prev, curr, a, b)
    }
}

/// The number of Unicode scalar values of `s` (free for ASCII input).
fn scalar_len(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// Levenshtein similarity in `[0, 1]` (`1 − distance / max(|a|, |b|)`),
/// using `scratch` for all working memory. Two empty strings are fully
/// similar.
pub fn levenshtein_similarity_with(scratch: &mut SimScratch, a: &str, b: &str) -> f64 {
    let max_len = scalar_len(a).max(scalar_len(b));
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_with(scratch, a, b) as f64 / max_len as f64
}

/// Three-row Damerau (optimal string alignment) DP over non-empty
/// slices: row `i` needs rows `i − 1` and `i − 2` only.
fn damerau_rows<T: PartialEq>(
    prev2: &mut Vec<usize>,
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
    a: &[T],
    b: &[T],
) -> usize {
    prev.clear();
    prev.extend(0..=b.len());
    prev2.clear();
    prev2.resize(b.len() + 1, 0);
    curr.clear();
    curr.resize(b.len() + 1, 0);
    for i in 1..=a.len() {
        curr[0] = i;
        for j in 1..=b.len() {
            let cost = if a[i - 1] == b[j - 1] { 0 } else { 1 };
            let mut best = (prev[j] + 1).min(curr[j - 1] + 1).min(prev[j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(prev2[j - 2] + 1);
            }
            curr[j] = best;
        }
        // Rotate the rows: (i − 2, i − 1, i) ← (i − 1, i, scrap).
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, curr);
    }
    prev[b.len()]
}

/// The Damerau-Levenshtein distance (restricted / "optimal string
/// alignment" variant): like Levenshtein but a transposition of two
/// adjacent characters counts as a single edit. Uses `scratch` for all
/// working memory.
pub fn damerau_levenshtein_with(scratch: &mut SimScratch, a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    if a.is_empty() || b.is_empty() {
        return scalar_len(a).max(scalar_len(b));
    }
    let SimScratch {
        a_chars,
        b_chars,
        prev,
        curr,
        prev2,
        ..
    } = scratch;
    if a.is_ascii() && b.is_ascii() {
        damerau_rows(prev2, prev, curr, a.as_bytes(), b.as_bytes())
    } else {
        a_chars.clear();
        a_chars.extend(a.chars());
        b_chars.clear();
        b_chars.extend(b.chars());
        damerau_rows(prev2, prev, curr, a_chars.as_slice(), b_chars.as_slice())
    }
}

/// Damerau-Levenshtein similarity in `[0, 1]`, using `scratch` for all
/// working memory.
pub fn damerau_levenshtein_similarity_with(scratch: &mut SimScratch, a: &str, b: &str) -> f64 {
    let max_len = scalar_len(a).max(scalar_len(b));
    if max_len == 0 {
        return 1.0;
    }
    1.0 - damerau_levenshtein_with(scratch, a, b) as f64 / max_len as f64
}

/// An upper bound on [`levenshtein_similarity_with`] **and**
/// [`damerau_levenshtein_similarity_with`] for two ASCII strings of `a_len`
/// and `b_len` bytes sharing `shared` symbols (their multiset intersection,
/// see [`shared_symbols`](super::symbols::shared_symbols)); their common
/// prefix plays no part.
///
/// An edit script leaves some symbols of the longer string untouched (or,
/// for Damerau, swaps them with a neighbour); those are paired one to one
/// with equal symbols of the other string, so there are at most `shared`
/// of them, and every other symbol of the longer string costs at least
/// one edit (a transposition costs one and accounts for two): the distance
/// is at least `max(|a|, |b|) − shared`. The bound is the kernels' own
/// formula at that distance, so it is exactly `1.0` for equal strings.
pub fn edit_similarity_bound_at(shared: u32, a_len: usize, b_len: usize, _prefix: u32) -> f64 {
    let max_len = a_len.max(b_len);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - (max_len - shared as usize) as f64 / max_len as f64
}

/// [`edit_similarity_bound_at`] of the two strings themselves.
pub fn edit_similarity_bound(shared: u32, a: &str, b: &str) -> f64 {
    edit_similarity_bound_at(shared, a.len(), b.len(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lev(a: &str, b: &str) -> usize {
        levenshtein_with(&mut SimScratch::new(), a, b)
    }

    fn lev_sim(a: &str, b: &str) -> f64 {
        levenshtein_similarity_with(&mut SimScratch::new(), a, b)
    }

    fn dl(a: &str, b: &str) -> usize {
        damerau_levenshtein_with(&mut SimScratch::new(), a, b)
    }

    #[test]
    fn classic_levenshtein_cases() {
        assert_eq!(lev("kitten", "sitting"), 3);
        assert_eq!(lev("flaw", "lawn"), 2);
        assert_eq!(lev("", ""), 0);
        assert_eq!(lev("abc", ""), 3);
        assert_eq!(lev("", "abc"), 3);
        assert_eq!(lev("same", "same"), 0);
    }

    #[test]
    fn part_number_typo_distance() {
        assert_eq!(lev("CRCW0805", "CRCW0806"), 1);
        assert_eq!(lev("T83A225K", "T83A225"), 1);
        assert!(lev_sim("CRCW0805", "CRCW0806") > 0.85);
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(lev_sim("", ""), 1.0);
        assert_eq!(lev_sim("abc", "abc"), 1.0);
        assert_eq!(lev_sim("abc", "xyz"), 0.0);
        assert_eq!(
            damerau_levenshtein_similarity_with(&mut SimScratch::new(), "", ""),
            1.0
        );
    }

    #[test]
    fn damerau_counts_transposition_as_one() {
        assert_eq!(lev("ca", "ac"), 2);
        assert_eq!(dl("ca", "ac"), 1);
        assert_eq!(dl("CRCW0850", "CRCW0805"), 1);
        assert_eq!(dl("abc", "abc"), 0);
        assert_eq!(dl("", "ab"), 2);
    }

    #[test]
    fn unicode_is_counted_per_scalar() {
        assert_eq!(lev("café", "cafe"), 1);
        assert_eq!(lev("résistance", "resistance"), 1);
    }

    #[test]
    fn scratch_reuse_across_measures_and_lengths() {
        // One scratch, many calls of varying length and script: results
        // must not depend on what the previous call left in the buffers.
        let mut scratch = SimScratch::new();
        assert_eq!(levenshtein_with(&mut scratch, "kitten", "sitting"), 3);
        assert_eq!(levenshtein_with(&mut scratch, "a", "ab"), 1);
        assert_eq!(damerau_levenshtein_with(&mut scratch, "ca", "ac"), 1);
        assert_eq!(levenshtein_with(&mut scratch, "café", "cafe"), 1);
        assert_eq!(levenshtein_with(&mut scratch, "", ""), 0);
        assert_eq!(
            damerau_levenshtein_with(&mut scratch, "CRCW0850", "CRCW0805"),
            1
        );
        assert_eq!(levenshtein_with(&mut scratch, "kitten", "sitting"), 3);
    }

    proptest! {
        /// Distance axioms on random strings: identity, symmetry, triangle
        /// inequality, and the Damerau distance never exceeds Levenshtein.
        #[test]
        fn prop_distance_axioms(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
            prop_assert_eq!(lev(&a, &a), 0);
            prop_assert_eq!(lev(&a, &b), lev(&b, &a));
            prop_assert!(lev(&a, &c) <= lev(&a, &b) + lev(&b, &c));
            prop_assert!(dl(&a, &b) <= lev(&a, &b));
        }

        /// The distance is bounded by the length of the longer string.
        #[test]
        fn prop_distance_bounded(a in "[a-z]{0,15}", b in "[a-z]{0,15}") {
            let d = lev(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            prop_assert!(d >= a.len().abs_diff(b.len()));
        }
    }
}
