//! Jaro and Jaro-Winkler similarities.
//!
//! Jaro similarity is the classic record-linkage measure introduced by Jaro
//! for the 1985 Tampa census matching (reference \[5\] of the paper); the
//! Winkler variant boosts strings sharing a common prefix.
//!
//! The `*_with(scratch, a, b)` kernels borrow their working memory from a
//! [`SimScratch`], exit early on equal or empty inputs and are
//! bit-identical to the naive reference versions in
//! [`crate::similarity::naive`]. Two ASCII strings of at most 64 bytes —
//! nearly every attribute value — take the one bit-parallel path: `a`'s
//! per-byte position masks, then a single pass over `b` (`JaroPass`). The
//! comparator's block path runs that same pass against the masks it
//! hoisted for the block's left value, where it also yields the
//! shared-symbol count the bound needs. Any other pair runs a scan over
//! decoded symbols.

use super::scratch::SimScratch;
use super::symbols::{SymbolTable, SIGNATURE_MAX_LEN};

/// The Jaro score formula: `m` matches, `mismatched` the number of
/// positions where a's and b's matched sequences disagree.
fn jaro_score(a_len: usize, b_len: usize, m: usize, mismatched: usize) -> f64 {
    let transpositions = mismatched as f64 / 2.0;
    let m = m as f64;
    (m / a_len as f64 + m / b_len as f64 + (m - transpositions) / m) / 3.0
}

/// One pass of a right string `b` over the [`SymbolTable`] of a left
/// string `a`, both ASCII and at most 64 bytes: per byte `b[j]`, with
/// `t = table[b[j]]`, two independent bit chains.
///
/// * **Shared symbols.** `b[j]` claims the lowest position of `t` not yet
///   claimed, anywhere in `a`: the count of claims is the multiset
///   intersection of the two strings' symbols, the count
///   [`shared_symbols`](super::symbols::shared_symbols) returns.
/// * **Jaro matches.** `b[j]` matches the lowest position of `t` inside
///   its window `[j − w, j + w]` not yet matched. This is the naive scan
///   with the roles turned around — there each `a[i]` takes the lowest
///   free `b` position in its window — and it picks the same matched
///   positions on both sides, so the match count and the transpositions
///   (the two matched sequences paired in order) are the reference's.
///
/// Nothing is written but the three words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JaroPass {
    /// The multiset intersection of the two strings' symbols.
    pub(crate) shared: u32,
    /// Bit `i` set iff `a[i]` is matched.
    a_matched: u64,
    /// Bit `j` set iff `b[j]` is matched.
    b_matched: u64,
}

impl JaroPass {
    /// `b`'s pass over `table`, the masks of an ASCII `a` of `a_len` bytes;
    /// `None` when `b` is not ASCII. Both lengths are at most 64.
    #[inline]
    pub(crate) fn run(table: &SymbolTable, a_len: usize, b: &[u8]) -> Option<JaroPass> {
        debug_assert!(a_len <= SIGNATURE_MAX_LEN && b.len() <= SIGNATURE_MAX_LEN);
        let w = (a_len.max(b.len()) / 2).saturating_sub(1);
        // `b[j]`'s window over `a` — positions `[j − w, j + w]` — slides up
        // one position a byte; its low end stays at 0 for the first `w`
        // bytes. `w ≤ 31`, and bits past `a`'s end meet no table bit.
        let mut window = (2u64 << w) - 1;
        let (mut claimed, mut a_matched, mut b_matched, mut seen) = (0u64, 0u64, 0u64, 0u8);
        for (j, &c) in b.iter().enumerate() {
            let t = table[(c & 0x7f) as usize];
            let free = t & !claimed;
            claimed |= free & free.wrapping_neg(); // lowest set bit, or 0
            let available = t & window & !a_matched;
            a_matched |= available & available.wrapping_neg();
            b_matched |= u64::from(available != 0) << j;
            window = window << 1 | u64::from(j < w);
            seen |= c;
        }
        seen.is_ascii().then_some(JaroPass {
            shared: claimed.count_ones(),
            a_matched,
            b_matched,
        })
    }

    /// The Jaro similarity of the pair the pass ran on: [`jaro_with`]'s
    /// value, bit for bit.
    pub(crate) fn jaro(&self, a: &str, b: &str) -> f64 {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        if self.a_matched == 0 {
            // No match; two empty strings are equal.
            return if a.is_empty() && b.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        // Pair the matched symbols in order: a's in a order, b's in b order.
        let (mut a_left, mut b_left, mut mismatched) = (self.a_matched, self.b_matched, 0);
        while a_left != 0 {
            let (i, j) = (a_left.trailing_zeros(), b_left.trailing_zeros());
            mismatched += usize::from(a[i as usize] != b[j as usize]);
            a_left &= a_left - 1;
            b_left &= b_left - 1;
        }
        let m = self.a_matched.count_ones() as usize;
        jaro_score(a.len(), b.len(), m, mismatched)
    }

    /// The Jaro-Winkler similarity of the pair the pass ran on:
    /// [`jaro_winkler_with`]'s value, bit for bit.
    pub(crate) fn jaro_winkler(&self, a: &str, b: &str) -> f64 {
        winkler_boost(self.jaro(a, b), common_prefix(a, b))
    }
}

/// Jaro over decoded symbol slices, with the match bitmap and the
/// matched-symbol buffer borrowed from the scratch: every pair the
/// bit-parallel pass does not take (a side that is not ASCII, or one over
/// 64 bytes). Symbols are widened to `u32` so byte and char inputs share
/// one implementation.
fn jaro_symbols<T: Copy + PartialEq + Into<u32>>(
    b_matched: &mut Vec<bool>,
    matches: &mut Vec<u32>,
    a: &[T],
    b: &[T],
) -> f64 {
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
    jaro_score(a.len(), b.len(), matches.len(), mismatched)
}

/// The Jaro similarity between two strings, in `[0, 1]`, using `scratch`
/// for the mask table, the match bitmap and buffers.
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
        table,
        ..
    } = scratch;
    if a.is_ascii() && b.is_ascii() {
        let (a_bytes, b_bytes) = (a.as_bytes(), b.as_bytes());
        if a.len().max(b.len()) > SIGNATURE_MAX_LEN {
            return jaro_symbols(b_matched, matches, a_bytes, b_bytes);
        }
        // The block path's pass, over masks of `a` built here and cleared
        // again (the scratch's table is zero between calls).
        for (i, &c) in a_bytes.iter().enumerate() {
            table[usize::from(c)] |= 1u64 << i;
        }
        let pass = JaroPass::run(table, a.len(), b_bytes);
        for &c in a_bytes {
            table[usize::from(c)] = 0;
        }
        pass.expect("both strings are ASCII").jaro(a, b)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn j(a: &str, b: &str) -> f64 {
        jaro_with(&mut SimScratch::new(), a, b)
    }

    fn jw(a: &str, b: &str) -> f64 {
        jaro_winkler_with(&mut SimScratch::new(), a, b)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn textbook_values() {
        // Classic examples from the record-linkage literature.
        assert!(close(j("MARTHA", "MARHTA"), 0.944));
        assert!(close(j("DIXON", "DICKSONX"), 0.767));
        assert!(close(j("JELLYFISH", "SMELLYFISH"), 0.896));
        assert!(close(jw("MARTHA", "MARHTA"), 0.961));
        assert!(close(jw("DIXON", "DICKSONX"), 0.813));
    }

    #[test]
    fn identity_and_disjoint() {
        assert_eq!(j("CRCW0805", "CRCW0805"), 1.0);
        assert_eq!(j("abc", "xyz"), 0.0);
        assert_eq!(j("", ""), 1.0);
        assert_eq!(j("abc", ""), 0.0);
        assert_eq!(jw("", ""), 1.0);
    }

    #[test]
    fn winkler_boosts_shared_prefix() {
        assert!(jw("CRCW0805", "CRCW0812") > j("CRCW0805", "CRCW0812"));
        // No shared prefix → no boost.
        assert_eq!(j("XDELTA", "DELTAX"), jw("XDELTA", "DELTAX"));
    }

    #[test]
    fn single_char_strings() {
        assert_eq!(j("a", "a"), 1.0);
        assert_eq!(j("a", "b"), 0.0);
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
        /// Jaro and Jaro-Winkler stay within [0, 1], are symmetric to the
        /// bit (either argument order finds the same matches), and Winkler
        /// never decreases the Jaro score.
        #[test]
        fn prop_jaro_properties(a in "[a-zA-Z0-9]{0,15}", b in "[a-zA-Z0-9]{0,15}") {
            // A three-letter alphabet makes repeats and transpositions the rule.
            let folded: String = b.bytes().map(|x| char::from(b'a' + x % 3)).collect();
            for b in [b.as_str(), &folded] {
                let j_ab = j(&a, b);
                prop_assert!((0.0..=1.0).contains(&j_ab));
                prop_assert_eq!(j_ab.to_bits(), j(b, &a).to_bits());
                let jw_ab = jw(&a, b);
                prop_assert_eq!(jw_ab.to_bits(), jw(b, &a).to_bits());
                prop_assert!((0.0..=1.0 + 1e-9).contains(&jw_ab));
                prop_assert!(jw_ab + 1e-9 >= j_ab);
            }
            prop_assert!((j(&a, &a) - 1.0).abs() < 1e-9 || a.is_empty());
        }
    }
}
