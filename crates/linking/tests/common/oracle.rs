//! The one naive oracle: what each built-in blocker must emit and what
//! the pipeline must link, written the obvious way.
//!
//! The candidate references are string- and hash-based and never touch
//! `stream_candidates`, `CandidateRuns`, the `KeyIndex` or a posting
//! structure of the engine, so a streaming regression cannot cancel out
//! of both sides. The scorer runs `similarity::naive` — no hoist, bound,
//! signature or token table — thresholds and full-text fallback included.

use classilink_core::RuleClassifier;
use classilink_datagen::scenario::GeneratedScenario;
use classilink_linking::blocking::BlockingKey;
use classilink_linking::pipeline::{Link, LinkageResult};
use classilink_linking::similarity::naive;
use classilink_linking::{AttributeRule, MatchDecision, RecordComparator, RecordStore};
use classilink_ontology::{InstanceStore, Ontology};
use classilink_segment::{CharNGramSegmenter, Segmenter};
use std::collections::{HashMap, HashSet};

/// Candidate pairs as `(external, local)` ids, sorted and duplicate-free.
pub type Pairs = Vec<(usize, usize)>;

/// `pairs` sorted and duplicate-free.
pub fn sorted(mut pairs: Pairs) -> Pairs {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Every external against every local.
pub fn cartesian(external: &RecordStore, local: &RecordStore) -> Pairs {
    (0..external.len())
        .flat_map(|e| (0..local.len()).map(move |l| (e, l)))
        .collect()
}

/// Equal non-empty keys, through a `HashMap` of blocks.
pub fn standard(key: &BlockingKey, external: &RecordStore, local: &RecordStore) -> Pairs {
    let external_side = key.external_side(external);
    let local_side = key.local_side(local);
    let mut blocks: HashMap<String, Vec<usize>> = HashMap::new();
    for l in 0..local.len() {
        let k = local_side.key(local, l);
        if !k.is_empty() {
            blocks.entry(k).or_default().push(l);
        }
    }
    let mut pairs = Vec::new();
    for e in 0..external.len() {
        let k = external_side.key(external, e);
        for &l in blocks.get(&k).map(Vec::as_slice).unwrap_or(&[]) {
            pairs.push((e, l));
        }
    }
    sorted(pairs)
}

/// The paper's sharing rule, counted exhaustively: the padded bigrams of
/// each key as distinct strings, a string-keyed inverted index over the
/// locals, one counter per local per external; a pair shares at least
/// `max(1, ⌈threshold × min(|E|, |L|)⌉)` grams. One candidate set per
/// threshold (the counts do not depend on it).
pub fn bigram(
    key: &BlockingKey,
    thresholds: &[f64],
    external: &RecordStore,
    local: &RecordStore,
) -> Vec<Pairs> {
    let segmenter = CharNGramSegmenter::padded_bigrams();
    let external_side = key.external_side(external);
    let local_side = key.local_side(local);
    let mut postings: HashMap<String, Vec<usize>> = HashMap::new();
    let mut sizes = Vec::with_capacity(local.len());
    for l in 0..local.len() {
        let grams = segmenter.split_distinct(&local_side.key(local, l));
        sizes.push(grams.len());
        for gram in grams {
            postings.entry(gram).or_default().push(l);
        }
    }
    let mut pairs = vec![Vec::new(); thresholds.len()];
    let mut counts = vec![0u32; local.len()];
    for e in 0..external.len() {
        let grams = segmenter.split_distinct(&external_side.key(external, e));
        counts.fill(0);
        for gram in &grams {
            for &l in postings.get(gram).map(Vec::as_slice).unwrap_or(&[]) {
                counts[l] += 1;
            }
        }
        for (l, &shared) in counts.iter().enumerate() {
            let smaller = grams.len().min(sizes[l]) as f64;
            for (threshold, pairs) in thresholds.iter().zip(&mut pairs) {
                if shared >= ((threshold * smaller).ceil() as u32).max(1) {
                    pairs.push((e, l));
                }
            }
        }
    }
    pairs
}

/// The locals-only ladder, ordered by (sort value, id); each external
/// inserts after every local whose sort value is ≤ its own and pairs with
/// the `window − 1` nearest locals on each side.
pub fn sorted_neighborhood(
    key: &BlockingKey,
    window: usize,
    external: &RecordStore,
    local: &RecordStore,
) -> Pairs {
    let external_side = key.external_side(external);
    let local_side = key.local_side(local);
    let mut ladder: Vec<(String, usize)> = (0..local.len())
        .map(|l| (local_side.sort_value(local, l), l))
        .collect();
    ladder.sort();
    let reach = window.max(1) - 1;
    let mut pairs = Vec::new();
    for e in 0..external.len() {
        let value = external_side.sort_value(external, e);
        let position = ladder.partition_point(|(v, _)| *v <= value);
        for (_, l) in &ladder[position.saturating_sub(reach)..position] {
            pairs.push((e, *l));
        }
        for (_, l) in ladder[position..].iter().take(reach) {
            pairs.push((e, *l));
        }
    }
    sorted(pairs)
}

/// What the rule blocker classifies with and resolves extents against.
#[derive(Clone, Copy)]
pub struct Rules<'a> {
    pub classifier: &'a RuleClassifier,
    pub instances: &'a InstanceStore,
    pub ontology: &'a Ontology,
}

impl<'a> Rules<'a> {
    /// `classifier` over a generated scenario's class model.
    pub fn of(scenario: &'a GeneratedScenario, classifier: &'a RuleClassifier) -> Self {
        let (instances, ontology) = (&scenario.instances, &scenario.ontology);
        Rules {
            classifier,
            instances,
            ontology,
        }
    }
}

/// The rule blocker's **per-shard emission sequence**: externals in
/// order, prediction-major, each predicted extent as owned terms in
/// `Term` order looked up in every shard, the first occurrence of a local
/// winning; an unclassified external under the fallback pairs with each
/// whole shard. Per shard of `local`: its shard-local pairs in order and
/// its block count (one block per external with any pair in the shard).
pub fn rule_sequences(
    rules: Rules<'_>,
    fallback: bool,
    external: &RecordStore,
    local: &[&RecordStore],
) -> Vec<(Pairs, usize)> {
    let shard_count = local.len();
    let mut shards = vec![(Vec::new(), 0usize); shard_count];
    for e in 0..external.len() {
        let predictions = rules.classifier.classify_fact_refs(external.facts(e));
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut emitted = vec![false; shard_count];
        if predictions.is_empty() && fallback {
            for (s, (pairs, _)) in shards.iter_mut().enumerate() {
                pairs.extend((0..local[s].len()).map(|l| (e, l)));
                emitted[s] = !local[s].is_empty();
            }
        }
        for prediction in &predictions {
            for item in rules.instances.extent(prediction.class, rules.ontology) {
                for (s, (pairs, _)) in shards.iter_mut().enumerate() {
                    if let Some(l) = local[s].index_of(&item) {
                        if seen.insert((s, l)) {
                            pairs.push((e, l));
                            emitted[s] = true;
                        }
                    }
                }
            }
        }
        for (s, (_, blocks)) in shards.iter_mut().enumerate() {
            *blocks += usize::from(emitted[s]);
        }
    }
    shards
}

/// One rule's naive similarity for a pair: the best `similarity::naive`
/// score over all value pairs, `None` when either side has no value.
pub fn rule_similarity(
    rule: &AttributeRule,
    external: &RecordStore,
    e: usize,
    local: &RecordStore,
    l: usize,
) -> Option<f64> {
    let left = external.property(&rule.left_property)?;
    let right = local.property(&rule.right_property)?;
    let right_values: Vec<&str> = local.values(l, right).collect();
    (external.values(e, left))
        .flat_map(|a| (right_values.iter()).map(move |b| naive::compare(rule.measure, a, b)))
        .reduce(f64::max)
}

/// One pair scored the naive way: `similarity` (the pair's
/// [`rule_similarity`], or a memo of it) per rule, a weighted mean over
/// the rules with values on both sides, else the full-text fallback, else
/// 0; then the thresholds.
pub fn score_pair_with(
    comparator: &RecordComparator,
    external: &RecordStore,
    e: usize,
    local: &RecordStore,
    l: usize,
    mut similarity: impl FnMut(&AttributeRule) -> Option<f64>,
) -> (f64, MatchDecision) {
    let mut weighted_sum = 0.0;
    let mut weight_total = 0.0;
    for rule in &comparator.rules {
        if let Some(best) = similarity(rule) {
            weighted_sum += best * rule.weight;
            weight_total += rule.weight;
        }
    }
    let score = if weight_total > 0.0 {
        weighted_sum / weight_total
    } else if let Some(fallback) = comparator.fallback {
        naive::compare(fallback, external.full_text(e), local.full_text(l))
    } else {
        0.0
    };
    let decision = if score >= comparator.match_threshold {
        MatchDecision::Match
    } else if score < comparator.non_match_threshold {
        MatchDecision::NonMatch
    } else {
        MatchDecision::Possible
    };
    (score, decision)
}

/// The result the pipeline must produce for `candidates` (in index
/// order): every pair scored by [`score_pair_with`], links sorted by
/// (external, local) index, `naive_pairs` as given.
pub fn score(
    comparator: &RecordComparator,
    external: &RecordStore,
    local: &RecordStore,
    candidates: impl IntoIterator<Item = (usize, usize)>,
    naive_pairs: u64,
) -> LinkageResult {
    result(external, local, candidates, naive_pairs, |e, l| {
        score_pair_with(comparator, external, e, local, l, |rule| {
            rule_similarity(rule, external, e, local, l)
        })
    })
}

/// [`score`] with the pair scores taken from `score`.
pub fn result(
    external: &RecordStore,
    local: &RecordStore,
    candidates: impl IntoIterator<Item = (usize, usize)>,
    naive_pairs: u64,
    mut score: impl FnMut(usize, usize) -> (f64, MatchDecision),
) -> LinkageResult {
    let mut matches = Vec::new();
    let mut possible = Vec::new();
    let mut comparisons = 0u64;
    for (e, l) in candidates {
        comparisons += 1;
        let (score, decision) = score(e, l);
        let link = || Link {
            external: external.id(e).clone(),
            local: local.id(l).clone(),
            score,
        };
        match decision {
            MatchDecision::Match => matches.push(link()),
            MatchDecision::Possible => possible.push(link()),
            MatchDecision::NonMatch => {}
        }
    }
    let reduction_ratio = if naive_pairs == 0 {
        0.0
    } else {
        1.0 - comparisons as f64 / naive_pairs as f64
    };
    LinkageResult {
        matches,
        possible,
        comparisons,
        naive_pairs,
        reduction_ratio,
    }
}
