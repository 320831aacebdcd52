//! Jaro and Jaro-Winkler similarities.
//!
//! Jaro similarity is the classic record-linkage measure introduced by Jaro
//! for the 1985 Tampa census matching (reference \[5\] of the paper); the
//! Winkler variant boosts strings sharing a common prefix.
//!
//! The `*_with(scratch, a, b)` kernels reuse a [`SimScratch`]'s match
//! bitmap and buffers (plus an ASCII byte fast path and equal/empty
//! early exits) and are bit-identical to the naive reference versions in
//! [`crate::similarity::naive`].

use super::scratch::SimScratch;

/// The Jaro score formula, shared by the two bitmap strategies:
/// `matches` holds a's matched symbols, `mismatched` the number of
/// positions where a's and b's matched sequences disagree.
fn jaro_score(a_len: usize, b_len: usize, matches: &[u32], mismatched: usize) -> f64 {
    let transpositions = mismatched as f64 / 2.0;
    let m = matches.len() as f64;
    (m / a_len as f64 + m / b_len as f64 + (m - transpositions) / m) / 3.0
}

/// Bit-parallel Jaro matching for ASCII byte slices with `|b| ≤ 64`:
/// one pass over `b` builds per-byte position masks, then each `a[i]`
/// resolves its match with three bitwise ops — `positions[a[i]] ∧
/// window ∧ ¬matched` — and takes the **lowest** set bit, which is
/// exactly the naive scan's "first unmatched equal position in the
/// window" rule, so matches, their order, and the transposition count
/// are identical to the reference implementation.
fn jaro_ascii_bitparallel(
    positions: &mut Vec<u64>,
    matches: &mut Vec<u32>,
    a: &[u8],
    b: &[u8],
) -> f64 {
    debug_assert!(b.len() <= 64);
    if positions.is_empty() {
        positions.resize(256, 0);
    }
    for (j, &cb) in b.iter().enumerate() {
        positions[cb as usize] |= 1u64 << j;
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched: u64 = 0;
    matches.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        if lo >= hi {
            continue;
        }
        let window = (u64::MAX >> (64 - (hi - lo))) << lo;
        let available = positions[ca as usize] & window & !b_matched;
        if available != 0 {
            b_matched |= available & available.wrapping_neg(); // lowest bit
            matches.push(ca as u32);
        }
    }
    // Restore the zeroed-between-calls invariant (duplicates are fine:
    // zeroing is idempotent).
    for &cb in b {
        positions[cb as usize] = 0;
    }
    if matches.is_empty() {
        return 0.0;
    }
    let mut mismatched = 0usize;
    let mut next_match = 0usize;
    let mut mask = b_matched;
    while mask != 0 {
        let j = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        if u32::from(b[j]) != matches[next_match] {
            mismatched += 1;
        }
        next_match += 1;
    }
    jaro_score(a.len(), b.len(), matches, mismatched)
}

/// Jaro over symbol slices with the right side's "already matched"
/// bitmap packed into one `u64` — the fast path for `|b| ≤ 64`, which
/// covers essentially every attribute value. Bit-identical to the
/// `Vec<bool>` strategy: same window scan, same first-free-match rule,
/// same in-order transposition pairing.
fn jaro_symbols_bitmask<T: Copy + PartialEq + Into<u32>>(
    matches: &mut Vec<u32>,
    a: &[T],
    b: &[T],
) -> f64 {
    debug_assert!(b.len() <= 64);
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched: u64 = 0;
    matches.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        if lo >= hi {
            // a's tail lies beyond b's window entirely.
            continue;
        }
        for (offset, &cb) in b[lo..hi].iter().enumerate() {
            let j = lo + offset;
            if b_matched & (1u64 << j) == 0 && cb == ca {
                b_matched |= 1u64 << j;
                matches.push(ca.into());
                break;
            }
        }
    }
    if matches.is_empty() {
        return 0.0;
    }
    // Count transpositions: walk b's matched symbols in b order (set
    // bits, ascending) and compare against a's matches.
    let mut mismatched = 0usize;
    let mut next_match = 0usize;
    let mut mask = b_matched;
    while mask != 0 {
        let j = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        if b[j].into() != matches[next_match] {
            mismatched += 1;
        }
        next_match += 1;
    }
    jaro_score(a.len(), b.len(), matches, mismatched)
}

/// Jaro over decoded symbol slices, with the match bitmap and the
/// matched-symbol buffer borrowed from the scratch (the general path
/// for right strings longer than 64 symbols). Symbols are widened
/// to `u32` so byte and char inputs share one implementation.
fn jaro_symbols<T: Copy + PartialEq + Into<u32>>(
    b_matched: &mut Vec<bool>,
    matches: &mut Vec<u32>,
    a: &[T],
    b: &[T],
) -> f64 {
    if b.len() <= 64 {
        return jaro_symbols_bitmask(matches, a, b);
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    b_matched.clear();
    b_matched.resize(b.len(), false);
    matches.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                matches.push(ca.into());
                break;
            }
        }
    }
    if matches.is_empty() {
        return 0.0;
    }
    // Count transpositions: walk b's matched symbols in order and compare
    // against a's matches (the naive version materialises `b_matches`
    // first; pairing in place is the same zip).
    let mut mismatched = 0usize;
    let mut next_match = 0usize;
    for (j, &flag) in b_matched.iter().enumerate() {
        if flag {
            if b[j].into() != matches[next_match] {
                mismatched += 1;
            }
            next_match += 1;
        }
    }
    jaro_score(a.len(), b.len(), matches, mismatched)
}

/// The Jaro similarity between two strings, in `[0, 1]`, using `scratch`
/// for the match bitmap and buffers.
pub fn jaro_with(scratch: &mut SimScratch, a: &str, b: &str) -> f64 {
    if a == b {
        // Covers two empty strings (1.0 by convention) and the common
        // identical-value case without touching the buffers.
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let SimScratch {
        a_chars,
        b_chars,
        b_matched,
        matches,
        positions,
        ..
    } = scratch;
    if a.is_ascii() && b.is_ascii() {
        if b.len() <= 64 {
            jaro_ascii_bitparallel(positions, matches, a.as_bytes(), b.as_bytes())
        } else {
            jaro_symbols(b_matched, matches, a.as_bytes(), b.as_bytes())
        }
    } else {
        a_chars.clear();
        a_chars.extend(a.chars());
        b_chars.clear();
        b_chars.extend(b.chars());
        jaro_symbols(b_matched, matches, a_chars.as_slice(), b_chars.as_slice())
    }
}

/// The Jaro-Winkler similarity (standard 0.1 scale, 4-char maximum
/// prefix), using `scratch` for all working memory.
pub fn jaro_winkler_with(scratch: &mut SimScratch, a: &str, b: &str) -> f64 {
    winkler_boost(jaro_with(scratch, a, b), common_prefix(a, b))
}

/// The number of leading symbols `a` and `b` share, at most 4: the prefix
/// Winkler's boost counts.
pub fn common_prefix(a: &str, b: &str) -> u32 {
    let shared = a.chars().zip(b.chars()).take(4);
    shared.take_while(|(x, y)| x == y).count() as u32
}

/// Winkler's boost of a Jaro score `base` for a pair sharing `prefix`
/// leading symbols (0.1 per symbol) — one formula for the kernel and for
/// its bound.
fn winkler_boost(base: f64, prefix: u32) -> f64 {
    base + f64::from(prefix) * 0.1 * (1.0 - base)
}

/// An upper bound on [`jaro_with`] for two ASCII strings of `a_len` and
/// `b_len` bytes sharing `shared` symbols (their multiset intersection,
/// see [`shared_symbols`](super::symbols::shared_symbols)).
///
/// A Jaro match pairs equal symbols one to one, so the kernel finds at
/// most `shared` matches; with `shared` matches and no transposition the
/// Jaro formula gives `(shared/|a| + shared/|b| + 1) / 3`, and it grows
/// with the match count. Exactly `1.0` for equal strings.
pub fn jaro_bound_at(shared: u32, a_len: usize, b_len: usize, _prefix: u32) -> f64 {
    if shared == 0 {
        // No match is possible; two empty strings are equal.
        return if a_len == 0 && b_len == 0 { 1.0 } else { 0.0 };
    }
    let m = f64::from(shared);
    (m / a_len as f64 + m / b_len as f64 + 1.0) / 3.0
}

/// An upper bound on [`jaro_winkler_with`]: the boost of the pair's own
/// common `prefix` ([`common_prefix`]) on top of [`jaro_bound_at`] (the
/// boosted score grows with the Jaro score).
pub fn jaro_winkler_bound_at(shared: u32, a_len: usize, b_len: usize, prefix: u32) -> f64 {
    winkler_boost(jaro_bound_at(shared, a_len, b_len, prefix), prefix)
}

/// [`jaro_bound_at`] of the two strings themselves.
pub fn jaro_bound(shared: u32, a: &str, b: &str) -> f64 {
    jaro_bound_at(shared, a.len(), b.len(), 0)
}

/// [`jaro_winkler_bound_at`] of the two strings themselves.
pub fn jaro_winkler_bound(shared: u32, a: &str, b: &str) -> f64 {
    jaro_winkler_bound_at(shared, a.len(), b.len(), common_prefix(a, b))
}

/// The Jaro similarity between two strings, in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_with(&mut SimScratch::new(), a, b)
}

/// The Jaro-Winkler similarity: Jaro boosted by the length of the common
/// prefix (up to 4 characters) with the standard scaling factor 0.1.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(&mut SimScratch::new(), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn textbook_values() {
        // Classic examples from the record-linkage literature.
        assert!(close(jaro("MARTHA", "MARHTA"), 0.944));
        assert!(close(jaro("DIXON", "DICKSONX"), 0.767));
        assert!(close(jaro("JELLYFISH", "SMELLYFISH"), 0.896));
        assert!(close(jaro_winkler("MARTHA", "MARHTA"), 0.961));
        assert!(close(jaro_winkler("DIXON", "DICKSONX"), 0.813));
    }

    #[test]
    fn identity_and_disjoint() {
        assert_eq!(jaro("CRCW0805", "CRCW0805"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro_winkler("", ""), 1.0);
    }

    #[test]
    fn winkler_boosts_shared_prefix() {
        let j = jaro("CRCW0805", "CRCW0812");
        let jw = jaro_winkler("CRCW0805", "CRCW0812");
        assert!(jw > j);
        // No shared prefix → no boost.
        assert_eq!(jaro("XDELTA", "DELTAX"), jaro_winkler("XDELTA", "DELTAX"));
    }

    #[test]
    fn single_char_strings() {
        assert_eq!(jaro("a", "a"), 1.0);
        assert_eq!(jaro("a", "b"), 0.0);
    }

    #[test]
    fn scratch_reuse_does_not_leak_matches() {
        // A long pair followed by a short pair: stale bitmap/match state
        // from the first call must not affect the second.
        let mut scratch = SimScratch::new();
        assert!(jaro_with(&mut scratch, "JELLYFISH", "SMELLYFISH") > 0.8);
        assert_eq!(jaro_with(&mut scratch, "a", "b"), 0.0);
        assert_eq!(jaro_with(&mut scratch, "ab", "ab"), 1.0);
        assert!(close(jaro_with(&mut scratch, "MARTHA", "MARHTA"), 0.944));
    }

    proptest! {
        /// Jaro and Jaro-Winkler stay within [0, 1], are symmetric, and
        /// Winkler never decreases the Jaro score.
        #[test]
        fn prop_jaro_properties(a in "[a-zA-Z0-9]{0,15}", b in "[a-zA-Z0-9]{0,15}") {
            let j_ab = jaro(&a, &b);
            let j_ba = jaro(&b, &a);
            prop_assert!((0.0..=1.0).contains(&j_ab));
            prop_assert!((j_ab - j_ba).abs() < 1e-9);
            let jw = jaro_winkler(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&jw));
            prop_assert!(jw + 1e-9 >= j_ab);
            prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-9 || a.is_empty());
        }
    }
}
