//! Naive reference implementations of the similarity measures.
//!
//! These are the textbook, allocation-heavy versions the optimised
//! scratch-buffer kernels in [`super::edit`] and [`mod@super::jaro`] (and the
//! token-index merge kernels in [`crate::token_index`]) are verified
//! against: the equivalence test suites assert the optimised paths are
//! **bit-identical** to these on arbitrary Unicode input. They are not
//! part of the supported API surface and are hidden from the docs; use
//! the public functions in [`crate::similarity`] instead.

use classilink_segment::{Normalizer, Segmenter, SeparatorSegmenter};
use std::collections::HashSet;

/// Reference Levenshtein distance: full char decode, fresh DP rows.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution_cost = if ca == cb { 0 } else { 1 };
            current[j + 1] = (prev[j + 1] + 1)
                .min(current[j] + 1)
                .min(prev[j] + substitution_cost);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Reference normalised Levenshtein similarity.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Reference Damerau-Levenshtein (optimal string alignment) distance:
/// the full `(|a|+1) × (|b|+1)` matrix.
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let width = b.len() + 1;
    let mut d = vec![0usize; (a.len() + 1) * width];
    for i in 0..=a.len() {
        d[i * width] = i;
    }
    for (j, cell) in d.iter_mut().enumerate().take(b.len() + 1) {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let cost = if a[i - 1] == b[j - 1] { 0 } else { 1 };
            let mut best = (d[(i - 1) * width + j] + 1)
                .min(d[i * width + j - 1] + 1)
                .min(d[(i - 1) * width + j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[(i - 2) * width + j - 2] + 1);
            }
            d[i * width + j] = best;
        }
    }
    d[a.len() * width + b.len()]
}

/// Reference normalised Damerau-Levenshtein similarity.
pub fn damerau_levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - damerau_levenshtein(a, b) as f64 / max_len as f64
}

/// Reference Jaro similarity: char decode, fresh match bitmap and match
/// vectors per call.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut matches: Vec<char> = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == *ca {
                b_matched[j] = true;
                matches.push(*ca);
                break;
            }
        }
    }
    if matches.is_empty() {
        return 0.0;
    }
    let b_matches: Vec<char> = b
        .iter()
        .zip(b_matched.iter())
        .filter_map(|(c, m)| m.then_some(*c))
        .collect();
    let transpositions = matches
        .iter()
        .zip(b_matches.iter())
        .filter(|(x, y)| x != y)
        .count() as f64
        / 2.0;
    let m = matches.len() as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions) / m) / 3.0
}

/// Reference Jaro-Winkler similarity (standard 0.1 scale, 4-char prefix).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let base = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    base + prefix * 0.1 * (1.0 - base)
}

/// The token measures' tokens, owned: the normalised value's separator
/// segments in order, duplicates kept.
fn tokens(s: &str) -> Vec<String> {
    SeparatorSegmenter::non_alphanumeric().split(&Normalizer.apply(s))
}

/// Reference Jaccard over normalised alphanumeric tokens, built with
/// per-pair `HashSet<String>`s.
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    let sa: HashSet<String> = tokens(a).into_iter().collect();
    let sb: HashSet<String> = tokens(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let intersection = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    intersection / union
}

/// Reference Jaccard over character bigrams (per-pair `HashSet`s; the
/// short-string convention of `similarity::token`).
pub fn jaccard_chars(a: &str, b: &str) -> f64 {
    let sa: HashSet<String> = super::token::char_bigrams(a).into_iter().collect();
    let sb: HashSet<String> = super::token::char_bigrams(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return if super::token::lowercase_eq(a, b) {
            1.0
        } else {
            0.0
        };
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    sa.intersection(&sb).count() as f64 / sa.union(&sb).count() as f64
}

/// Reference Dice coefficient over character bigrams.
pub fn dice_bigrams(a: &str, b: &str) -> f64 {
    let sa: HashSet<String> = super::token::char_bigrams(a).into_iter().collect();
    let sb: HashSet<String> = super::token::char_bigrams(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return if super::token::lowercase_eq(a, b) {
            1.0
        } else {
            0.0
        };
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let intersection = sa.intersection(&sb).count() as f64;
    2.0 * intersection / (sa.len() + sb.len()) as f64
}

/// Reference Monge-Elkan: fresh token vectors, naive Jaro-Winkler per
/// token pair.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    let ta = tokens(a);
    let tb = tokens(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let directed = |xs: &[String], ys: &[String]| -> f64 {
        xs.iter()
            .map(|x| ys.iter().map(|y| jaro_winkler(x, y)).fold(0.0f64, f64::max))
            .sum::<f64>()
            / xs.len() as f64
    };
    (directed(&ta, &tb) + directed(&tb, &ta)) / 2.0
}

/// Reference dispatch over [`super::SimilarityMeasure`].
pub fn compare(measure: super::SimilarityMeasure, a: &str, b: &str) -> f64 {
    use super::SimilarityMeasure as M;
    match measure {
        M::Levenshtein => levenshtein_similarity(a, b),
        M::DamerauLevenshtein => damerau_levenshtein_similarity(a, b),
        M::Jaro => jaro(a, b),
        M::JaroWinkler => jaro_winkler(a, b),
        M::JaccardTokens => jaccard_tokens(a, b),
        M::JaccardChars => jaccard_chars(a, b),
        M::DiceBigrams => dice_bigrams(a, b),
        M::MongeElkan => monge_elkan(a, b),
    }
}
