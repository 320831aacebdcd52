//! Record-pair comparison and match decisions.
//!
//! Once blocking (or the paper's classification rules) has produced candidate
//! pairs, a linking method compares the two descriptions and decides whether
//! they refer to the same real-world object. [`RecordComparator`] implements
//! the standard weighted-average scheme: per-attribute similarities combined
//! with weights, then thresholded into Match / Possible / NonMatch.
//!
//! A comparator is a schema-level *configuration* (property IRIs, measures,
//! weights). Before comparing it is [`compile`](RecordComparator::compile)d
//! against the two [`RecordStore`]s, resolving each rule's property IRIs to
//! interned ids **once** and lowering each rule's measure to a *kernel*:
//! either a scratch-buffer string kernel
//! (see [`SimScratch`]) or a precomputed-token-set kernel (see
//! [`crate::token_index`]).
//!
//! What the kernels read beside the values is derived per column, and only
//! for the columns a rule compares: a set rule's token table, a filtered
//! string rule's signature column. The pipeline and the serving layer warm
//! the catalog side of each before the scoring loop can reach a cold shard;
//! the external side's token table is built by the first hoist of the
//! rule's values, and the full-text table only when a set-measure fallback
//! fires.
//!
//! Two per-pair entry points share one evaluation core and always compute
//! the exact score:
//!
//! * [`CompiledComparator::score`] — returns only `(score, decision)` and
//!   performs **zero heap allocations** in steady state (the caller owns
//!   the [`SimScratch`]; token sets come from the stores' per-column token
//!   tables). The oracle the
//!   hoisted path is tested against.
//! * [`CompiledComparator::compare`] — the eval/report path: same
//!   arithmetic, but also materialises the per-rule
//!   [`details`](Comparison::details) vector.
//!
//! The pipeline and the serving layer score a candidate *block* instead —
//! [`CompiledComparator::hoist_left`] once per external record,
//! [`CompiledComparator::survivors`] once over the block's run of locals,
//! then [`CompiledComparator::score_hoisted`] per surviving local — and
//! that path is **threshold-aware**: what a linker consumes of a rejected
//! pair is the rejection, not its similarity, so no kernel runs that cannot
//! lift its pair to "possible".
//!
//! * **Needed similarity.** Before rule `r`, with `S` the weighted sum and
//!   `W` the weight of the rules fired so far, `w` the rule's weight and
//!   `L` the weight of the later rules that can still fire, the pair's
//!   score is at most `(S + s·w + L) / (W + w + L)` — every later rule at
//!   1.0. It can only reach `non_match_threshold = T` if
//!   `s·w ≥ T·(W + w + L) − S − L`.
//! * **Bound.** The multiset intersection `m` of two strings' symbols
//!   bounds the four string kernels from above (Jaro ≤ `(m/|a| + m/|b| +
//!   1)/3`, Jaro-Winkler its own prefix boost on that, edit similarities
//!   ≤ `m / max(|a|, |b|)`; see [`crate::similarity::symbols`]), and `m` is
//!   had in two tiers. *Signatures*: 24 bytes per value cap `m` and give
//!   the common prefix from a few word operations and no value byte. For
//!   the first rule that can fire in a block `S = W = 0`, so every local
//!   needs the same similarity of it, and the run prefilter turns "bound ×
//!   weight < needed" into an integer compare of that cap against a
//!   memoised least count per (|a|, prefix, |b|); a local whose every value
//!   pairing fails it is dropped from the run before anything reads its
//!   value (nine in ten of a standard block under `jw95`). *Exact count*:
//!   for the pairs that remain, and for every later rule, the hoist's
//!   per-symbol position masks of each left value (built once per block)
//!   give `m` itself in one branch-free pass over the right value. Under a
//!   Jaro or Jaro-Winkler rule, when the right value is ASCII and at most
//!   64 bytes too, that pass is the Jaro kernel's own: it also finds the
//!   windowed matches, so a pair that passes its bound is scored from them
//!   with no second pass. Either way only ASCII values of at most 64 bytes
//!   are bounded; anything else runs its kernel. A value pair whose bound
//!   misses the needed similarity — or cannot beat the rule's best pairing
//!   so far — skips its kernel; a rule whose best pairing misses the need
//!   ends the pair as `NonMatch`.
//! * **What stays exact.** Every `Match`/`Possible` pair keeps its score
//!   bit for bit (a skipped value pair could not have been the best
//!   pairing of a pair that reaches the threshold); a filtered `NonMatch`
//!   reports `0.0`. Tests are strict by a margin (`BOUND_SLACK`) far above
//!   any rounding error, and the prefilter adds no float test of its own:
//!   its integer compare *is* `score_hoisted`'s test, tabulated. There is
//!   no switch: at a zero threshold nothing can be below it, and nothing
//!   is skipped.

use crate::blocking::LocalRun;
use crate::intern::PropertyId;
use crate::similarity::jaro::JaroPass;
use crate::similarity::scratch::SimScratch;
use crate::similarity::symbols::{
    shared_symbols, symbol_masks, Signature, SymbolTable, SIGNATURE_MAX_LEN,
};
use crate::similarity::{
    common_prefix, damerau_levenshtein_similarity_with, edit_similarity_bound_at, jaro_bound_at,
    jaro_winkler_bound_at, jaro_winkler_with, jaro_with, levenshtein_similarity_with,
    SimilarityMeasure,
};
use crate::store::{RecordStore, SignatureColumn, ValueList};
use crate::token_index::{
    dice_bigrams_kernel, jaccard_bigrams_kernel, jaccard_tokens_kernel, monge_elkan_kernel,
    ValueTokens,
};
use serde::{Deserialize, Serialize};

/// How one attribute pair contributes to the overall record similarity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeRule {
    /// Property IRI on the left (external) record.
    pub left_property: String,
    /// Property IRI on the right (local) record.
    pub right_property: String,
    /// Similarity measure for this attribute pair.
    pub measure: SimilarityMeasure,
    /// Relative weight (will be normalised over the rules that fired).
    pub weight: f64,
}

/// The outcome of comparing one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchDecision {
    /// The similarity exceeds the match threshold.
    Match,
    /// The similarity lies between the two thresholds.
    Possible,
    /// The similarity is below the non-match threshold.
    NonMatch,
}

/// The detailed result of one comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// The aggregated weighted similarity in `[0, 1]`.
    pub score: f64,
    /// The decision implied by the thresholds.
    pub decision: MatchDecision,
    /// Per-attribute-rule similarities (same order as the configured rules);
    /// `None` when one side had no value for the attribute.
    pub details: Vec<Option<f64>>,
}

/// Compares two records attribute by attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordComparator {
    /// The attribute comparison rules.
    pub rules: Vec<AttributeRule>,
    /// Score at or above which a pair is a [`MatchDecision::Match`].
    pub match_threshold: f64,
    /// Score below which a pair is a [`MatchDecision::NonMatch`].
    pub non_match_threshold: f64,
    /// When no configured attribute pair has values on both sides, fall back
    /// to comparing the records' full text with this measure.
    pub fallback: Option<SimilarityMeasure>,
}

impl RecordComparator {
    /// A comparator with the given attribute rules and default thresholds
    /// (match ≥ 0.85, non-match < 0.6).
    pub fn new(rules: Vec<AttributeRule>) -> Self {
        RecordComparator {
            rules,
            match_threshold: 0.85,
            non_match_threshold: 0.6,
            fallback: Some(SimilarityMeasure::MongeElkan),
        }
    }

    /// A single-attribute comparator (the common case for part numbers).
    pub fn single(
        left_property: impl Into<String>,
        right_property: impl Into<String>,
        measure: SimilarityMeasure,
    ) -> Self {
        Self::new(vec![AttributeRule {
            left_property: left_property.into(),
            right_property: right_property.into(),
            measure,
            weight: 1.0,
        }])
    }

    /// Set the decision thresholds (clamped so that `non_match ≤ match`).
    pub fn with_thresholds(mut self, match_threshold: f64, non_match_threshold: f64) -> Self {
        self.match_threshold = match_threshold.clamp(0.0, 1.0);
        self.non_match_threshold = non_match_threshold.clamp(0.0, self.match_threshold);
        self
    }

    /// Resolve every rule's property IRIs against the two stores. Ids are
    /// schema-local, so the compiled comparator is valid for this
    /// `(external, local)` store pair — and, when the stores were built on
    /// shared [`SchemaInterner`](crate::intern::SchemaInterner)s, for
    /// every other store on the same schemas.
    pub fn compile(&self, external: &RecordStore, local: &RecordStore) -> CompiledComparator<'_> {
        self.compile_schemas(external.interner(), local.interner())
    }

    /// Resolve every rule's property IRIs against two schemas directly —
    /// the sharded path: compiled once against
    /// [`ShardedStore::schema`](crate::shard::ShardedStore::schema), the
    /// comparator serves every shard. Each rule's measure (and the
    /// fallback, if any) is lowered to its kernel here, so the per-pair
    /// loop performs no dispatch set-up.
    pub fn compile_schemas(
        &self,
        external: &crate::intern::PropertyInterner,
        local: &crate::intern::PropertyInterner,
    ) -> CompiledComparator<'_> {
        let kernels: Vec<Kernel> = self.rules.iter().map(|r| Kernel::of(r.measure)).collect();
        let fallback_kernel = self.fallback.map(Kernel::of);
        // `NonMatch` is "below both thresholds" (the fields are public, so
        // they may be unordered). The filter's arithmetic assumes positive
        // finite weights; a NaN anywhere fails these comparisons and
        // leaves it off.
        let reject_below = self.non_match_threshold.min(self.match_threshold);
        let filter = (self.non_match_threshold > 0.0
            && reject_below > 0.0
            && self
                .rules
                .iter()
                .all(|r| r.weight > 0.0 && r.weight.is_finite()))
        .then(|| NonMatchFilter {
            reject_below,
            slack: BOUND_SLACK * self.rules.iter().map(|r| r.weight).sum::<f64>(),
        });
        CompiledComparator {
            comparator: self,
            properties: self
                .rules
                .iter()
                .map(|rule| {
                    (
                        external.get(&rule.left_property),
                        local.get(&rule.right_property),
                    )
                })
                .collect(),
            kernels,
            fallback_kernel,
            filter,
        }
    }

    /// Convenience: compile against the two stores and compare one pair.
    /// Re-resolves the property IRIs on every call — callers comparing
    /// many pairs should [`compile`](Self::compile) once instead.
    pub fn compare(
        &self,
        external: &RecordStore,
        left_index: usize,
        local: &RecordStore,
        right_index: usize,
    ) -> Comparison {
        self.compile(external, local)
            .compare(external, left_index, local, right_index)
    }
}

/// One attribute rule's measure, lowered to its execution strategy at
/// compile time.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    /// A scratch-buffer string kernel (edit/Jaro family) and its upper
    /// bound for two ASCII values given, in this order, how many symbols
    /// they share, their byte lengths and their common prefix. A Jaro
    /// kernel also reads its value off the [`JaroPass`] that counted those
    /// symbols (`eval`'s value, bit for bit); the edit kernels have no
    /// `from_pass`.
    Str {
        eval: fn(&mut SimScratch, &str, &str) -> f64,
        bound: fn(u32, usize, usize, u32) -> f64,
        from_pass: Option<fn(&JaroPass, &str, &str) -> f64>,
    },
    /// A precomputed-token-set kernel (Jaccard/Dice/Monge-Elkan family).
    Set(SetKernel),
}

/// The set-measure kernels backed by the stores' per-column token tables.
#[derive(Debug, Clone, Copy)]
enum SetKernel {
    /// Jaccard over token sets.
    JaccardTokens,
    /// Jaccard over bigram sets.
    JaccardBigrams,
    /// Dice over bigram sets.
    DiceBigrams,
    /// Monge-Elkan over token lists.
    MongeElkan,
}

impl Kernel {
    fn of(measure: SimilarityMeasure) -> Kernel {
        match measure {
            SimilarityMeasure::Levenshtein => Kernel::Str {
                eval: levenshtein_similarity_with,
                bound: edit_similarity_bound_at,
                from_pass: None,
            },
            SimilarityMeasure::DamerauLevenshtein => Kernel::Str {
                eval: damerau_levenshtein_similarity_with,
                bound: edit_similarity_bound_at,
                from_pass: None,
            },
            SimilarityMeasure::Jaro => Kernel::Str {
                eval: jaro_with,
                bound: jaro_bound_at,
                from_pass: Some(JaroPass::jaro),
            },
            SimilarityMeasure::JaroWinkler => Kernel::Str {
                eval: jaro_winkler_with,
                bound: jaro_winkler_bound_at,
                from_pass: Some(JaroPass::jaro_winkler),
            },
            SimilarityMeasure::JaccardTokens => Kernel::Set(SetKernel::JaccardTokens),
            SimilarityMeasure::JaccardChars => Kernel::Set(SetKernel::JaccardBigrams),
            SimilarityMeasure::DiceBigrams => Kernel::Set(SetKernel::DiceBigrams),
            SimilarityMeasure::MongeElkan => Kernel::Set(SetKernel::MongeElkan),
        }
    }
}

impl SetKernel {
    fn eval(
        self,
        a: &crate::token_index::ValueTokens<'_>,
        b: &crate::token_index::ValueTokens<'_>,
        scratch: &mut SimScratch,
    ) -> f64 {
        match self {
            SetKernel::JaccardTokens => jaccard_tokens_kernel(a, b),
            SetKernel::JaccardBigrams => jaccard_bigrams_kernel(a, b),
            SetKernel::DiceBigrams => dice_bigrams_kernel(a, b),
            SetKernel::MongeElkan => monge_elkan_kernel(a, b, scratch),
        }
    }
}

/// A [`RecordComparator`] with its property IRIs resolved to the interned
/// ids of one `(external, local)` store pair and its measures lowered to
/// kernels.
#[derive(Debug, Clone)]
pub struct CompiledComparator<'a> {
    comparator: &'a RecordComparator,
    /// `(left id on the external store, right id on the local store)` per
    /// attribute rule; `None` when a store never saw the IRI.
    properties: Vec<(Option<PropertyId>, Option<PropertyId>)>,
    /// The per-rule kernels, parallel to `properties`.
    kernels: Vec<Kernel>,
    /// The fallback measure's kernel, if a fallback is configured.
    fallback_kernel: Option<Kernel>,
    /// The constants of [`score_hoisted`](Self::score_hoisted)'s
    /// non-match filter; `None` when no pair can be a `NonMatch` (a zero
    /// threshold) or the weights are not all positive and finite.
    filter: Option<NonMatchFilter>,
}

/// What the non-match filter of
/// [`score_hoisted`](CompiledComparator::score_hoisted) compares against.
#[derive(Debug, Clone, Copy)]
struct NonMatchFilter {
    /// A score below this is a [`MatchDecision::NonMatch`].
    reject_below: f64,
    /// [`BOUND_SLACK`] scaled to the weighted-sum domain (× Σ weights).
    slack: f64,
}

impl NonMatchFilter {
    /// The least `similarity × weight` of a rule of weight `weight` that
    /// still lets its pair reach the threshold, `weighted_sum` over
    /// `weight_total` having fired before it and `later_weight` being open
    /// after it: with every later open rule at 1.0 — the most they can
    /// add, and since no similarity exceeds 1.0 the final quotient only
    /// grows with the weight that fires at 1.0 — the score is at most
    ///   (weighted_sum + s·w + later) / (weight_total + w + later),
    /// which is below `reject_below` exactly when `s·w` is below this.
    /// `slack` keeps the test strict by a margin that dwarfs every rounding
    /// error involved (see [`BOUND_SLACK`]).
    #[inline]
    fn needed(&self, weighted_sum: f64, weight_total: f64, weight: f64, later_weight: f64) -> f64 {
        self.reject_below * (weight_total + weight + later_weight)
            - weighted_sum
            - later_weight
            - self.slack
    }
}

/// The margin, as a fraction of the rules' total weight, by which a pair
/// must *provably* miss the non-match threshold before
/// [`score_hoisted`](CompiledComparator::score_hoisted) skips work on it.
///
/// The filter compares an upper bound on the pair's weighted sum with the
/// sum the threshold requires. Both sides, and the kernels and bounds
/// under them, are a handful of `f64` operations on values no larger than
/// the total weight, so each is within ~1e-15 × total weight of its exact
/// value; a bound is only ever *mathematically* ≥ its kernel, not
/// operation by operation. Demanding a 1e-9 margin makes the rounding
/// irrelevant in both directions: nothing within 1e-9 of the threshold is
/// ever skipped (it runs the exact kernels, as before), and every pair
/// that ends `Match`/`Possible` beats each value pair skipped on its way
/// by ~1e-9, so its per-rule maxima — hence its score — are bit-identical.
const BOUND_SLACK: f64 = 1e-9;

/// Reusable hoisted left-side scoring state: one external record's
/// per-rule resolved value lists and token views, extracted **once per
/// candidate block** by [`CompiledComparator::hoist_left`] and then
/// shared by every [`CompiledComparator::score_hoisted`] call of the
/// block — the left side of a run-length candidate block is constant by
/// construction, so re-resolving it per pair is pure waste.
///
/// The buffers grow to the comparator's rule/value counts on first use
/// and are reused for every subsequent block (a comparison worker owns
/// one hoist for its whole run, next to its
/// [`SimScratch`]).
#[derive(Debug, Default)]
pub struct LeftHoist<'e> {
    /// The hoisted external record.
    left: usize,
    /// Per rule: the left value list (empty when the left property is
    /// unresolved or the record carries no value — the rule cannot
    /// fire).
    lists: Vec<ValueList<'e>>,
    /// Flat hoisted token views for set-kernel rules: rule `r` owns
    /// `tokens[token_offsets[r] .. token_offsets[r + 1]]`, one view per
    /// left value (empty for string-kernel rules).
    tokens: Vec<ValueTokens<'e>>,
    /// Per-rule boundaries into `tokens`; `len = rules + 1`.
    token_offsets: Vec<u32>,
    /// One entry per left value of a string-kernel rule, in rule-then-value
    /// order: its shared-symbol mask table, or `None` when it has none (not
    /// ASCII, over 64 bytes, or the comparator filters nothing).
    masks: Vec<Option<SymbolTable>>,
    /// Per rule, the index in `masks` of its first left value.
    mask_offsets: Vec<u32>,
    /// Parallel to `masks`: each value's signature, poisoned where the
    /// value has no mask table.
    signatures: Vec<Signature>,
    /// The summed weight of the rules that can fire for this record (left
    /// values present, right property resolved).
    open_weight: f64,
    /// The run prefilter's memo; outlives the block (see [`LeastShared`]).
    least_shared: LeastShared,
}

/// The run prefilter's integer form of the non-match test: for two ASCII
/// values of `|a|` and `|b|` bytes (each at most [`SIGNATURE_MAX_LEN`])
/// with a common prefix of `p` symbols, the least shared-symbol count for
/// which `bound(shared, |a|, |b|, p) × weight < needed` is **false**.
///
/// An entry is found by bisecting on that very expression — the one
/// [`score_hoisted`](CompiledComparator::score_hoisted) evaluates, on the
/// same operands: a bound depends on the pair through these four numbers
/// only, and grows with `shared` (by at least 1/200 from one count to the
/// next, where rounding moves it by 1e-16). A pair whose signatures cap
/// its count *below* the entry is therefore a pair `score_hoisted` itself
/// would skip: the test, evaluated at the pair's exact count, is true. No
/// new float comparison enters, which is why the [`BOUND_SLACK`] argument
/// carries over unchanged; the per-pair test is an integer compare.
///
/// `needed` and `weight` are those of the block's first open rule, so the
/// table is keyed by their bits (and the rule's measure): it survives from
/// block to block and is forgotten when any of them changes. 65 × 5 × 65
/// bytes, of which a block touches the 325 of its left value's length.
#[derive(Debug, Default)]
struct LeastShared {
    /// `(needed, weight)` bits and the measure the entries were found for.
    key: Option<(u64, u64, SimilarityMeasure)>,
    /// Entry `(|a| × 5 + p) × 65 + |b|`: the count plus one; 0 = not yet
    /// found. Empty until the first block that filters.
    entries: Vec<u8>,
}

impl LeastShared {
    const LENGTHS: usize = SIGNATURE_MAX_LEN + 1;
    const PREFIXES: usize = 5;

    /// The table for this key, emptied if it was another's.
    fn keyed(&mut self, key: (u64, u64, SimilarityMeasure)) -> &mut [u8] {
        if self.key != Some(key) {
            self.key = Some(key);
            self.entries.clear();
            self.entries
                .resize(Self::LENGTHS * Self::PREFIXES * Self::LENGTHS, 0);
        }
        &mut self.entries
    }
}

impl LeftHoist<'_> {
    /// An empty hoist; the first [`CompiledComparator::hoist_left`]
    /// call sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the hoist and release its borrow of the external store,
    /// **keeping the buffers' capacity**. The serving layer parks a
    /// `LeftHoist<'static>` in its per-caller scratch between probes and
    /// re-borrows it for each call, so a warm probe never re-allocates
    /// the hoist.
    pub fn recycle<'b>(mut self) -> LeftHoist<'b> {
        self.token_offsets.clear();
        LeftHoist {
            left: 0,
            lists: recycle_vec(self.lists),
            tokens: recycle_vec(self.tokens),
            token_offsets: self.token_offsets,
            // The mask and signature buffers and the prefilter's memo
            // borrow nothing: they move across as they are (the next
            // hoist clears the buffers).
            masks: self.masks,
            mask_offsets: self.mask_offsets,
            signatures: self.signatures,
            open_weight: 0.0,
            least_shared: self.least_shared,
        }
    }
}

/// One block's run prefilter (see [`CompiledComparator::survivors`]): the
/// signatures of the first open rule's left values and of its right
/// column, and the rule's non-match test — bound, weight, the similarity ×
/// weight needed — with its [`LeastShared`] memo.
struct RunFilter<'h, 's> {
    lefts: &'h [Signature],
    rights: SignatureColumn<'s>,
    bound: fn(u32, usize, usize, u32) -> f64,
    weight: f64,
    needed: f64,
    least: &'h mut [u8],
}

impl RunFilter<'_, '_> {
    /// `false` when the value pair of these signatures is one
    /// `score_hoisted` would skip on its bound; `a` is bounded.
    #[inline]
    fn passes(&mut self, a: &Signature, b: &Signature) -> bool {
        if !b.is_bounded() {
            return true;
        }
        let prefix = a.common_prefix(b);
        let (a_len, b_len) = (a.len as usize, b.len as usize);
        let row = (a_len * LeastShared::PREFIXES + prefix as usize) * LeastShared::LENGTHS;
        let entry = &mut self.least[row + b_len];
        if *entry == 0 {
            // Bisect for the least count at which the test fails (the
            // bound grows with the count); `most + 1` if it never does.
            let (bound, weight, needed) = (self.bound, self.weight, self.needed);
            let most = a.len.min(b.len);
            let (mut least, mut end) = (0, most + 1);
            while least < end {
                let shared = (least + end) / 2;
                if bound(shared, a_len, b_len, prefix) * weight < needed {
                    least = shared + 1;
                } else {
                    end = shared;
                }
            }
            *entry = 1 + least as u8;
        }
        a.shared_upper(b) + 1 >= u32::from(*entry)
    }
}

/// A shard-local id as runs store it (a shard holds at most `u32::MAX`
/// records).
fn as_local(id: usize) -> u32 {
    id as u32
}

/// Convert an emptied `Vec<A>` into a `Vec<B>` keeping its allocation:
/// collecting a `vec::IntoIter` into a `Vec` of equal element size and
/// alignment reuses the source buffer (the standard library's in-place
/// collect). `A` and `B` are in practice two instantiations of one
/// generic type differing only in lifetime;
/// `zero_alloc::warm_probe_never_allocates` holds the reuse.
fn recycle_vec<A, B>(mut v: Vec<A>) -> Vec<B> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was just cleared"))
        .collect()
}

impl CompiledComparator<'_> {
    /// Build now what scoring will read of the local `shards`, per rule
    /// that can fire and only for the property it compares there: the
    /// token table of a set rule's column, the signature column of a
    /// filtered string rule's — what the pipeline and the serving layer
    /// run before the scoring loop can reach a cold shard. The external
    /// side's token tables are built by [`hoist_left`](Self::hoist_left),
    /// the full-text one only when a set-measure fallback fires.
    pub(crate) fn warm<'s>(&self, shards: impl IntoIterator<Item = &'s RecordStore>) {
        for shard in shards {
            for (properties, kernel) in self.properties.iter().zip(&self.kernels) {
                // A rule with either side unresolved never fires.
                let &(Some(_), Some(rp)) = properties else {
                    continue;
                };
                match kernel {
                    Kernel::Set(_) => {
                        shard.token_table(rp);
                    }
                    Kernel::Str { .. } if self.filter.is_some() => {
                        shard.signatures(rp);
                    }
                    Kernel::Str { .. } => {}
                }
            }
        }
    }

    /// Resolve the external record `left`'s per-rule value lists (and,
    /// for set-kernel rules, its token views; for string-kernel rules
    /// under a non-match filter, its values' shared-symbol mask tables)
    /// **once**, into the reusable `out` — the per-block half of the
    /// hoisted scoring path; [`score_hoisted`](Self::score_hoisted) runs
    /// the per-pair half. The first hoist of a set rule's values builds
    /// the external store's token table of that rule's column.
    pub fn hoist_left<'e>(&self, external: &'e RecordStore, left: usize, out: &mut LeftHoist<'e>) {
        out.left = left;
        out.lists.clear();
        out.tokens.clear();
        out.token_offsets.clear();
        out.token_offsets.push(0);
        out.masks.clear();
        out.mask_offsets.clear();
        out.signatures.clear();
        out.open_weight = 0.0;
        for ((&(left_property, right_property), kernel), rule) in self
            .properties
            .iter()
            .zip(&self.kernels)
            .zip(&self.comparator.rules)
        {
            // A rule with either side unresolved can never fire
            // ([`score_hoisted`](Self::score_hoisted) skips it), so
            // don't pay its value-list or token-view extraction.
            let list = match (left_property, right_property) {
                (Some(lp), Some(_)) => external.value_list(left, lp),
                _ => ValueList::empty(),
            };
            if let (Kernel::Set(_), Some(lp), false) = (kernel, left_property, list.is_empty()) {
                let table = external.token_table(lp);
                let table = table.expect("a value list implies a column");
                for i in 0..list.len() {
                    out.tokens
                        .push(table.value_tokens(list.value_index(i), list.get(i)));
                }
            }
            out.token_offsets
                .push(u32::try_from(out.tokens.len()).expect("hoisted more than u32::MAX views"));
            out.mask_offsets
                .push(u32::try_from(out.masks.len()).expect("hoisted more than u32::MAX values"));
            if let Kernel::Str { .. } = kernel {
                for i in 0..list.len() {
                    let table = self.filter.and_then(|_| symbol_masks(list.get(i)));
                    out.signatures.push(match table {
                        Some(_) => Signature::of(list.get(i)),
                        None => Signature::POISONED,
                    });
                    out.masks.push(table);
                }
            }
            if !list.is_empty() {
                out.open_weight += rule.weight;
            }
            out.lists.push(list);
        }
    }

    /// The run prefilter: replace `out` with the locals of `run` (ids of
    /// the shard `local`) that are **not provably**
    /// [`NonMatch`](MatchDecision::NonMatch) against the hoisted external
    /// record, in run order — the only ones a block's scoring loop need
    /// hand to [`score_hoisted`](Self::score_hoisted), which would end
    /// every other one as a filtered `NonMatch`.
    ///
    /// The first rule that can fire for the block needs the same
    /// similarity of every local it fires on (nothing has fired before it),
    /// so for a string rule the shared-symbol test becomes, per value pair,
    /// two [`Signature`]s and one entry of an integer table memoised in the
    /// hoist: no value byte, no float. A local is dropped when every
    /// pairing of the rule's left and right values fails that test. It
    /// stays when any pairing passes or has no bound (a poisoned or
    /// over-long signature), or when it has no value for the rule's
    /// property — the rule does not fire, later rules or the fallback
    /// decide. The whole run stays when that first rule is a set kernel,
    /// when one of its left values has no signature, or when the comparator
    /// filters nothing.
    ///
    /// Counts each value pair of a dropped local in `scratch`'s
    /// `signature_exits` and, being bound exits, in `bound_exits`.
    pub fn survivors(
        &self,
        hoist: &mut LeftHoist<'_>,
        local: &RecordStore,
        run: LocalRun<'_>,
        scratch: &mut SimScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let Some(mut filter) = self.run_filter(hoist, local) else {
            out.extend(run.iter().map(as_local));
            return;
        };
        // Branch-free compaction: every local is written, the cursor moves
        // past the survivors only.
        out.resize(run.len(), 0);
        let (mut kept, mut exits) = (0usize, 0u64);
        let (lefts, rights) = (filter.lefts, filter.rights);
        let sift = |l: u32| {
            let values = rights.of(l as usize);
            let mut survives = values.is_empty();
            for a in lefts {
                for b in values {
                    survives |= filter.passes(a, b);
                }
            }
            out[kept] = l;
            kept += usize::from(survives);
            exits += u64::from(!survives) * (lefts.len() * values.len()) as u64;
        };
        match run {
            LocalRun::Span { start, len } => (start..start + len).map(as_local).for_each(sift),
            LocalRun::Keyed(ids) | LocalRun::Explicit(ids) => ids.iter().copied().for_each(sift),
        }
        out.truncate(kept);
        scratch.signature_exits += exits;
        scratch.bound_exits += exits;
    }

    /// What [`survivors`](Self::survivors) filters a run of `local` with,
    /// or `None` when the block keeps its whole run.
    fn run_filter<'h, 's>(
        &self,
        hoist: &'h mut LeftHoist<'_>,
        local: &'s RecordStore,
    ) -> Option<RunFilter<'h, 's>> {
        let filter = self.filter?;
        let rule_index = hoist.lists.iter().position(|list| !list.is_empty())?;
        let Kernel::Str { bound, .. } = self.kernels[rule_index] else {
            return None;
        };
        let rule = &self.comparator.rules[rule_index];
        // What `score_hoisted` computes on reaching this rule: nothing has
        // fired, every other open rule is later.
        let needed = filter.needed(0.0, 0.0, rule.weight, hoist.open_weight - rule.weight);
        // No similarity is negative: only a positive need can be missed.
        if needed.is_nan() || needed <= 0.0 {
            return None;
        }
        let lefts = &hoist.signatures[hoist.mask_offsets[rule_index] as usize..]
            [..hoist.lists[rule_index].len()];
        if !lefts.iter().all(Signature::is_bounded) {
            return None;
        }
        let (_, right_property) = self.properties[rule_index];
        let rights = local.signatures(right_property?)?;
        let key = (needed.to_bits(), rule.weight.to_bits(), rule.measure);
        Some(RunFilter {
            lefts,
            rights,
            bound,
            weight: rule.weight,
            needed,
            least: hoist.least_shared.keyed(key),
        })
    }

    /// Score the hoisted external record (see
    /// [`hoist_left`](Self::hoist_left)) against local record `right`.
    ///
    /// For a pair decided [`Match`](MatchDecision::Match) or
    /// [`Possible`](MatchDecision::Possible) this is the arithmetic of
    /// [`score`](Self::score) — the per-rule best pairing walks values and
    /// token views in identical order and the aggregation shares
    /// `finish_score` — so score and decision are **bit-identical**, only
    /// the left-side resolution work is amortised across the block
    /// (the identity matrix, `crates/linking/tests/common/matrix.rs`, pins
    /// the equivalence end-to-end against a naive scorer).
    ///
    /// A [`NonMatch`](MatchDecision::NonMatch) is decided as early as it
    /// can be **proved** (the needed-similarity rule and the shared-symbol
    /// bound of the [module docs](self)): value pairs that cannot matter
    /// skip their kernel, and a rule whose best pairing falls short ends
    /// the pair at once. **The score returned with such a `NonMatch` is
    /// `0.0`, not the pair's similarity**; all a caller may rely on for a
    /// `NonMatch` is that its score is below the non-match threshold.
    /// `score`/`compare` never skip and stay the exact reference.
    ///
    /// Under a Jaro or Jaro-Winkler rule, a value pair whose left value
    /// has masks and whose right value is ASCII and at most 64 bytes is
    /// bounded and scored from one pass over the right value: the pass
    /// that counts the shared symbols also finds the Jaro matches. Its
    /// kernel is not called; its value is the kernel's, bit for bit.
    ///
    /// `scratch`'s `kernel_calls` / `bound_exits` count the value pairs
    /// that were scored / were skipped by the bound.
    pub fn score_hoisted(
        &self,
        hoist: &LeftHoist<'_>,
        external: &RecordStore,
        local: &RecordStore,
        right: usize,
        scratch: &mut SimScratch,
    ) -> (f64, MatchDecision) {
        let slack = self.filter.map_or(0.0, |filter| filter.slack);
        let mut weighted_sum = 0.0;
        let mut weight_total = 0.0;
        // The weight of this and every later rule that can still fire.
        let mut open_weight = hoist.open_weight;
        for (rule_index, ((rule, &(_, right_property)), kernel)) in self
            .comparator
            .rules
            .iter()
            .zip(&self.properties)
            .zip(&self.kernels)
            .enumerate()
        {
            let Some(rp) = right_property else {
                continue;
            };
            let left_values = hoist.lists[rule_index];
            if left_values.is_empty() {
                continue;
            }
            let later_weight = open_weight - rule.weight;
            open_weight = later_weight;
            let right_values = local.value_list(right, rp);
            if right_values.is_empty() {
                continue;
            }
            // Without a filter nothing is below −∞.
            let needed = self.filter.map_or(f64::NEG_INFINITY, |filter| {
                filter.needed(weighted_sum, weight_total, rule.weight, later_weight)
            });
            let mut best = 0.0f64;
            match *kernel {
                Kernel::Str {
                    eval,
                    bound,
                    from_pass,
                } => {
                    let tables = &hoist.masks[hoist.mask_offsets[rule_index] as usize..]
                        [..left_values.len()];
                    for (i, table) in tables.iter().enumerate() {
                        let lv = left_values.get(i);
                        // No similarity is negative: only a positive need
                        // can be missed, so only then is the bound worth
                        // its pass over the right value.
                        let table = table.as_ref().filter(|_| needed > 0.0);
                        for j in 0..right_values.len() {
                            let rv = right_values.get(j);
                            // One pass over the right value counts the
                            // shared symbols; under a Jaro rule, when the
                            // right value fits a table too, the same pass
                            // finds the matches its kernel would.
                            let (shared, pass) = match (table, from_pass) {
                                (Some(t), Some(score)) if rv.len() <= SIGNATURE_MAX_LEN => {
                                    let pass = JaroPass::run(t, lv.len(), rv.as_bytes());
                                    (pass.map(|p| p.shared), pass.map(|p| (p, score)))
                                }
                                (Some(t), _) => (shared_symbols(t, rv), None),
                                (None, _) => (None, None),
                            };
                            if let Some(shared) = shared {
                                // Not worth its kernel either: a value pair
                                // that cannot beat the best pairing so far —
                                // by the same margin, so that rounding can
                                // never change the rule's maximum.
                                let worth = needed.max(best * rule.weight - slack);
                                let prefix = common_prefix(lv, rv);
                                if bound(shared, lv.len(), rv.len(), prefix) * rule.weight < worth {
                                    scratch.bound_exits += 1;
                                    continue;
                                }
                            }
                            scratch.kernel_calls += 1;
                            best = best.max(match pass {
                                Some((pass, score)) => score(&pass, lv, rv),
                                None => eval(scratch, lv, rv),
                            });
                        }
                    }
                }
                Kernel::Set(kernel) => {
                    let table = local.token_table(rp);
                    let table = table.expect("a value list implies a column");
                    let views = &hoist.tokens[hoist.token_offsets[rule_index] as usize
                        ..hoist.token_offsets[rule_index + 1] as usize];
                    for lv in views {
                        for j in 0..right_values.len() {
                            let rv = table
                                .value_tokens(right_values.value_index(j), right_values.get(j));
                            scratch.kernel_calls += 1;
                            best = best.max(kernel.eval(lv, &rv, scratch));
                        }
                    }
                }
            }
            let contribution = best * rule.weight;
            if contribution < needed {
                return (0.0, MatchDecision::NonMatch);
            }
            weighted_sum += contribution;
            weight_total += rule.weight;
        }
        self.finish_score(
            weighted_sum,
            weight_total,
            external,
            hoist.left,
            local,
            right,
            scratch,
        )
    }

    /// Score one candidate pair: the aggregated similarity and its
    /// threshold decision, nothing else.
    ///
    /// This is the exact pair-by-pair oracle the block path is tested
    /// against: a run is scored by [`hoist_left`](Self::hoist_left) →
    /// [`survivors`](Self::survivors) → [`score_hoisted`](Self::score_hoisted),
    /// whose `Match` / `Possible` scores must equal this one's bit for bit.
    /// All working memory comes from `scratch` and the stores' per-column
    /// token tables, so the call performs **no heap allocation** in steady
    /// state. Bit-identical to [`compare`](Self::compare)'s score and
    /// decision.
    pub fn score(
        &self,
        external: &RecordStore,
        left: usize,
        local: &RecordStore,
        right: usize,
        scratch: &mut SimScratch,
    ) -> (f64, MatchDecision) {
        self.eval(external, left, local, right, scratch, |_| {})
    }

    /// Compare one candidate pair, given as record indexes into the stores
    /// this comparator was compiled against, materialising per-rule
    /// details.
    pub fn compare(
        &self,
        external: &RecordStore,
        left: usize,
        local: &RecordStore,
        right: usize,
    ) -> Comparison {
        let mut details = Vec::with_capacity(self.comparator.rules.len());
        let mut scratch = SimScratch::new();
        let (score, decision) = self.eval(external, left, local, right, &mut scratch, |detail| {
            details.push(detail)
        });
        Comparison {
            score,
            decision,
            details,
        }
    }

    /// The shared evaluation core of [`score`](Self::score) and
    /// [`compare`](Self::compare): `detail` observes each rule's
    /// similarity (`score` passes a no-op, which inlines away).
    #[inline]
    fn eval(
        &self,
        external: &RecordStore,
        left: usize,
        local: &RecordStore,
        right: usize,
        scratch: &mut SimScratch,
        mut detail: impl FnMut(Option<f64>),
    ) -> (f64, MatchDecision) {
        let comparator = self.comparator;
        let mut weighted_sum = 0.0;
        let mut weight_total = 0.0;
        for ((rule, &(left_property, right_property)), kernel) in comparator
            .rules
            .iter()
            .zip(&self.properties)
            .zip(&self.kernels)
        {
            let (Some(lp), Some(rp)) = (left_property, right_property) else {
                detail(None);
                continue;
            };
            let left_values = external.value_list(left, lp);
            let right_values = local.value_list(right, rp);
            if left_values.is_empty() || right_values.is_empty() {
                detail(None);
                continue;
            }
            // Best pairing across multi-valued attributes, indexing the
            // column slices directly (no per-left iterator clone).
            let mut best = 0.0f64;
            match *kernel {
                Kernel::Str { eval, .. } => {
                    for i in 0..left_values.len() {
                        let lv = left_values.get(i);
                        for j in 0..right_values.len() {
                            best = best.max(eval(scratch, lv, right_values.get(j)));
                        }
                    }
                }
                Kernel::Set(kernel) => {
                    // Each an atomic load once the column's table exists.
                    let columns = (external.token_table(lp)).zip(local.token_table(rp));
                    let (left_table, right_table) = columns.expect("a value list implies a column");
                    for i in 0..left_values.len() {
                        let lv =
                            left_table.value_tokens(left_values.value_index(i), left_values.get(i));
                        for j in 0..right_values.len() {
                            let rv = right_table
                                .value_tokens(right_values.value_index(j), right_values.get(j));
                            best = best.max(kernel.eval(&lv, &rv, scratch));
                        }
                    }
                }
            }
            detail(Some(best));
            weighted_sum += best * rule.weight;
            weight_total += rule.weight;
        }
        self.finish_score(
            weighted_sum,
            weight_total,
            external,
            left,
            local,
            right,
            scratch,
        )
    }

    /// The shared tail of every scoring path: fold the weighted rule
    /// similarities (or the full-text fallback when no rule fired) into
    /// the aggregated score and its threshold decision. Keeping this in
    /// one place is what makes the hoisted block path bit-identical to
    /// [`eval`](Self::eval).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn finish_score(
        &self,
        weighted_sum: f64,
        weight_total: f64,
        external: &RecordStore,
        left: usize,
        local: &RecordStore,
        right: usize,
        scratch: &mut SimScratch,
    ) -> (f64, MatchDecision) {
        let comparator = self.comparator;
        let score = if weight_total > 0.0 {
            weighted_sum / weight_total
        } else {
            match self.fallback_kernel {
                Some(Kernel::Str { eval, .. }) => {
                    eval(scratch, external.full_text(left), local.full_text(right))
                }
                Some(Kernel::Set(kernel)) => {
                    // The fallback rarely fires: the full-text tables are
                    // built here, the first time it does.
                    let lv =
                        (external.full_text_tokens()).value_tokens(left, external.full_text(left));
                    let rv = (local.full_text_tokens()).value_tokens(right, local.full_text(right));
                    kernel.eval(&lv, &rv, scratch)
                }
                None => 0.0,
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use classilink_rdf::Term;

    const EXT_PN: &str = "http://provider.e.org/v#ref";
    const LOC_PN: &str = "http://local.e.org/v#partNumber";
    const LOC_LABEL: &str = "http://local.e.org/v#label";

    fn ext(pn: &str) -> RecordStore {
        let mut r = Record::new(Term::iri("http://provider.e.org/item/1"));
        r.add(EXT_PN, pn);
        RecordStore::from_records(&[r])
    }

    fn loc(pn: &str, label: &str) -> RecordStore {
        let mut r = Record::new(Term::iri("http://local.e.org/prod/1"));
        r.add(LOC_PN, pn);
        r.add(LOC_LABEL, label);
        RecordStore::from_records(&[r])
    }

    fn compare_single(
        cmp: &RecordComparator,
        external: &RecordStore,
        local: &RecordStore,
    ) -> Comparison {
        cmp.compile(external, local).compare(external, 0, local, 0)
    }

    #[test]
    fn identical_part_numbers_match() {
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::JaroWinkler);
        let (e, l) = (ext("CRCW0805-10K"), loc("CRCW0805-10K", "resistor"));
        let c = compare_single(&cmp, &e, &l);
        assert_eq!(c.decision, MatchDecision::Match);
        assert_eq!(c.score, 1.0);
        assert_eq!(c.details, vec![Some(1.0)]);
    }

    #[test]
    fn small_typo_is_still_a_match_large_difference_is_not() {
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::JaroWinkler);
        let e = ext("CRCW0805-10K");
        let typo = compare_single(&cmp, &e, &loc("CRCW0806-10K", "resistor"));
        assert_eq!(typo.decision, MatchDecision::Match);
        let different = compare_single(&cmp, &e, &loc("T83A225K", "capacitor"));
        assert_eq!(different.decision, MatchDecision::NonMatch);
    }

    #[test]
    fn thresholds_partition_scores() {
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Levenshtein)
            .with_thresholds(0.9, 0.5);
        let possible = compare_single(&cmp, &ext("CRCW0805"), &loc("CRCW0899", "x"));
        assert_eq!(possible.decision, MatchDecision::Possible);
        assert!(possible.score < 0.9 && possible.score >= 0.5);
    }

    #[test]
    fn threshold_clamping() {
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Jaro)
            .with_thresholds(0.7, 0.9);
        assert!(cmp.non_match_threshold <= cmp.match_threshold);
        let cmp2 = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Jaro)
            .with_thresholds(5.0, -1.0);
        assert_eq!(cmp2.match_threshold, 1.0);
        assert_eq!(cmp2.non_match_threshold, 0.0);
    }

    #[test]
    fn multi_attribute_weighting() {
        let cmp = RecordComparator::new(vec![
            AttributeRule {
                left_property: EXT_PN.to_string(),
                right_property: LOC_PN.to_string(),
                measure: SimilarityMeasure::JaroWinkler,
                weight: 3.0,
            },
            AttributeRule {
                left_property: EXT_PN.to_string(),
                right_property: LOC_LABEL.to_string(),
                measure: SimilarityMeasure::JaccardTokens,
                weight: 1.0,
            },
        ]);
        let c = compare_single(
            &cmp,
            &ext("CRCW0805-10K"),
            &loc("CRCW0805-10K", "unrelated text"),
        );
        // pn similarity 1.0 (weight 3), label similarity 0 (weight 1) → 0.75.
        assert!((c.score - 0.75).abs() < 1e-9);
        assert_eq!(c.details.len(), 2);
    }

    #[test]
    fn missing_attributes_use_fallback() {
        let cmp =
            RecordComparator::single("http://nowhere.org/v#x", LOC_PN, SimilarityMeasure::Jaro);
        let (e, l) = (ext("CRCW0805-10K"), loc("CRCW0805-10K", "resistor"));
        let c = compare_single(&cmp, &e, &l);
        assert_eq!(c.details, vec![None]);
        // Fallback Monge-Elkan over full text still sees the identical part number.
        assert!(c.score > 0.5);
        let strict = RecordComparator {
            fallback: None,
            ..cmp
        };
        let c2 = compare_single(&strict, &e, &l);
        assert_eq!(c2.score, 0.0);
        assert_eq!(c2.decision, MatchDecision::NonMatch);
    }

    #[test]
    fn multi_valued_attributes_take_best_pairing() {
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Levenshtein);
        let mut left = Record::new(Term::iri("http://provider.e.org/item/2"));
        left.add(EXT_PN, "completely different");
        left.add(EXT_PN, "CRCW0805-10K");
        let e = RecordStore::from_records(&[left]);
        let l = loc("CRCW0805-10K", "resistor");
        let c = compare_single(&cmp, &e, &l);
        assert_eq!(c.score, 1.0);
    }

    #[test]
    fn compiled_once_serves_many_pairs() {
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Levenshtein);
        let external = RecordStore::from_records(&[
            {
                let mut r = Record::new(Term::iri("http://provider.e.org/item/1"));
                r.add(EXT_PN, "AAA");
                r
            },
            {
                let mut r = Record::new(Term::iri("http://provider.e.org/item/2"));
                r.add(EXT_PN, "BBB");
                r
            },
        ]);
        let local = RecordStore::from_records(&[{
            let mut r = Record::new(Term::iri("http://local.e.org/prod/1"));
            r.add(LOC_PN, "AAA");
            r
        }]);
        let compiled = cmp.compile(&external, &local);
        assert_eq!(compiled.compare(&external, 0, &local, 0).score, 1.0);
        assert_eq!(compiled.compare(&external, 1, &local, 0).score, 0.0);
        // The one-shot convenience agrees with the compiled path.
        assert_eq!(cmp.compare(&external, 1, &local, 0).score, 0.0);
    }

    #[test]
    fn score_agrees_with_compare_for_every_measure() {
        let mut scratch = SimScratch::new();
        for &measure in SimilarityMeasure::all() {
            let cmp = RecordComparator::single(EXT_PN, LOC_PN, measure);
            for (a, b) in [
                ("CRCW0805-10K", "CRCW0806-10K"),
                ("fixed film resistor", "film resistor"),
                ("", "x"),
                ("café", "cafe"),
            ] {
                let (e, l) = (ext(a), loc(b, "label"));
                let compiled = cmp.compile(&e, &l);
                let full = compiled.compare(&e, 0, &l, 0);
                let (score, decision) = compiled.score(&e, 0, &l, 0, &mut scratch);
                assert_eq!(full.score.to_bits(), score.to_bits(), "{}", measure.name());
                assert_eq!(full.decision, decision, "{}", measure.name());
            }
        }
    }

    /// Two left records with two part numbers each (one of the four
    /// non-ASCII, so the first record's blocks have no run prefilter)
    /// against locals from identical to unrelated — single-valued,
    /// multi-valued, without a part number, with one no signature bounds —
    /// under a string + set rule pair.
    fn filter_fixture() -> (RecordStore, RecordStore) {
        let lefts: Vec<Record> = [
            ["CRCW0805-10K", "CRCW0805-10Ω"],
            ["CRCW0805-10K", "T83A225M"],
        ]
        .iter()
        .enumerate()
        .map(|(i, pns)| {
            let mut r = Record::new(Term::iri(format!("http://provider.e.org/item/{i}")));
            r.add(EXT_PN, pns[0]).add(EXT_PN, pns[1]);
            r
        })
        .collect();
        let long = "CRCW0805-10K".repeat(6);
        let locals: Vec<Record> = [
            (&["CRCW0805-10K"][..], "CRCW0805-10K"),
            (&["CRCW0805-10Ω"], "thick film"),
            (&["CRCW0806-10K"], "CRCW0805 10K"),
            (&["CRCW0812-22K"], "CRCW0805-10K"),
            (&["T83A225K"], "CRCW0805-10K"),
            (&["K01-5080WCRC"], "unrelated"),
            (&[""], "CRCW0805-10K"),
            (&[], "CRCW0805-10K"),
            (&[long.as_str()], "longer than a signature bounds"),
            (&["CRCW0805-10K", "CRCW0812-22K"], "the first is it"),
            (&["T83A225K", "CRCW0806-10K"], "the second is near"),
            (&["K01-5080WCRC", "X7R"], "neither"),
            (&["CRCW9999-99Z"], "within JW 0.4, not JW 0.9"),
            (&["C0KXYZXYZXYZ"], "within JW 0.4, not Levenshtein 0.4"),
            (&["CRC"], "all of it shared, still too short"),
        ]
        .iter()
        .enumerate()
        .map(|(i, (pns, label))| {
            let mut r = Record::new(Term::iri(format!("http://local.e.org/prod/{i}")));
            for pn in *pns {
                r.add(LOC_PN, *pn);
            }
            r.add(LOC_LABEL, *label);
            r
        })
        .collect();
        (
            RecordStore::from_records(&lefts),
            RecordStore::from_records(&locals),
        )
    }

    fn two_rules(measure: SimilarityMeasure, weights: (f64, f64)) -> RecordComparator {
        RecordComparator::new(vec![
            AttributeRule {
                left_property: EXT_PN.to_string(),
                right_property: LOC_PN.to_string(),
                measure,
                weight: weights.0,
            },
            AttributeRule {
                left_property: EXT_PN.to_string(),
                right_property: LOC_LABEL.to_string(),
                measure: SimilarityMeasure::JaccardTokens,
                weight: weights.1,
            },
        ])
    }

    /// Score every local against every left record through the hoisted
    /// path, pair by pair, and check it against `score`: same decision;
    /// same bits unless `NonMatch`, whose score need only be below the
    /// threshold. Then again the way `score_block` does — the run
    /// prefilter, from a span and from an id slice, then `score_hoisted`
    /// on the survivors: it may only drop locals `score` rejects, and must
    /// account for the same value pairs. Returns the block pass's scratch
    /// (counters).
    fn assert_hoisted_agrees(
        cmp: &RecordComparator,
        e: &RecordStore,
        l: &RecordStore,
    ) -> SimScratch {
        let compiled = cmp.compile(e, l);
        let (mut exact, mut paired, mut blocked) =
            (SimScratch::new(), SimScratch::new(), SimScratch::new());
        let mut hoist = LeftHoist::new();
        let (mut survivors, mut from_slice) = (Vec::new(), Vec::new());
        let ids: Vec<u32> = (0..l.len() as u32).collect();
        for left in 0..e.len() {
            compiled.hoist_left(e, left, &mut hoist);
            let mut decisions = Vec::new();
            for right in 0..l.len() {
                let (want, decision) = compiled.score(e, left, l, right, &mut exact);
                let (got, hoisted) = compiled.score_hoisted(&hoist, e, l, right, &mut paired);
                assert_eq!(decision, hoisted, "pair ({left}, {right}): {cmp:?}");
                if decision == MatchDecision::NonMatch {
                    assert!(
                        got < cmp.non_match_threshold,
                        "pair ({left}, {right}): {cmp:?}"
                    );
                } else {
                    assert_eq!(
                        want.to_bits(),
                        got.to_bits(),
                        "pair ({left}, {right}): {cmp:?}"
                    );
                }
                decisions.push((got.to_bits(), hoisted));
            }
            let span = LocalRun::Span {
                start: 0,
                len: l.len(),
            };
            compiled.survivors(&mut hoist, l, span, &mut blocked, &mut survivors);
            let mut again = SimScratch::new();
            let slice = LocalRun::Explicit(&ids);
            compiled.survivors(&mut hoist, l, slice, &mut again, &mut from_slice);
            assert_eq!(survivors, from_slice, "left {left}: {cmp:?}");
            assert_eq!(again.signature_exits, again.bound_exits);
            for (right, &decided) in decisions.iter().enumerate() {
                if survivors.contains(&(right as u32)) {
                    let (got, hoisted) = compiled.score_hoisted(&hoist, e, l, right, &mut blocked);
                    assert_eq!((got.to_bits(), hoisted), decided);
                } else {
                    assert_eq!(
                        decided.1,
                        MatchDecision::NonMatch,
                        "pair ({left}, {right}) dropped: {cmp:?}"
                    );
                }
            }
        }
        assert_eq!(
            (blocked.kernel_calls, blocked.bound_exits),
            (paired.kernel_calls, paired.bound_exits),
            "{cmp:?}"
        );
        assert!(blocked.signature_exits <= blocked.bound_exits);
        assert_eq!(paired.signature_exits, 0);
        blocked
    }

    #[test]
    fn hoisted_filter_never_changes_a_decision_or_a_link_score() {
        let (e, l) = filter_fixture();
        let (mut exits, mut signature_exits) = (0, 0);
        for measure in [
            SimilarityMeasure::Levenshtein,
            SimilarityMeasure::DamerauLevenshtein,
            SimilarityMeasure::Jaro,
            SimilarityMeasure::JaroWinkler,
        ] {
            for weights in [(1.0, 1.0), (0.8, 0.2), (1e-6, 1e6), (3e9, 1e-9)] {
                for (m, n) in [(0.95, 0.9), (0.85, 0.6), (1.0, 1.0), (0.3, 0.1), (0.5, 0.0)] {
                    let cmp = two_rules(measure, weights).with_thresholds(m, n);
                    let scratch = assert_hoisted_agrees(&cmp, &e, &l);
                    exits += scratch.bound_exits;
                    signature_exits += scratch.signature_exits;
                    if n == 0.0 {
                        assert_eq!(scratch.bound_exits, 0, "nothing is below a zero threshold");
                    }
                }
            }
        }
        assert!(
            exits > signature_exits && signature_exits > 0,
            "{signature_exits} of {exits} exits on signatures — a tier never fired, the guard \
             would be vacuous"
        );
    }

    /// One hoist serves blocks of different needs: the memo of the integer
    /// test must follow `needed`, the weight and the measure, or a table
    /// found for a lax comparator would let a strict one's pairs through
    /// (and the other way round, drop links).
    #[test]
    fn one_hoist_serves_comparators_of_different_needs() {
        let (e, l) = filter_fixture();
        let span = LocalRun::Span {
            start: 0,
            len: l.len(),
        };
        let mut hoist = LeftHoist::new();
        let mut scratch = SimScratch::new();
        let mut survivors = Vec::new();
        let mut kept = Vec::new();
        let jw = SimilarityMeasure::JaroWinkler;
        // The last two need the same similarity × weight, 1 − 2e-9, of
        // rules of different weight: half of 2.0, all of 1.0 (the second
        // rule cannot fire, its property is nowhere).
        let mut heavy = RecordComparator::single(EXT_PN, LOC_PN, jw).with_thresholds(0.5, 0.5);
        heavy.rules[0].weight = 2.0;
        let mut exacting = two_rules(jw, (1.0, 1.0)).with_thresholds(1.0, 1.0);
        exacting.rules[1].right_property = "http://nowhere.org/v#x".to_string();
        let comparators = [
            RecordComparator::single(EXT_PN, LOC_PN, jw).with_thresholds(0.95, 0.9),
            RecordComparator::single(EXT_PN, LOC_PN, jw).with_thresholds(0.95, 0.4),
            RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::Levenshtein)
                .with_thresholds(0.95, 0.4),
            two_rules(jw, (8.0, 0.5)).with_thresholds(0.95, 0.9),
            heavy,
            exacting,
        ];
        for _ in 0..2 {
            for cmp in &comparators {
                let compiled = cmp.compile(&e, &l);
                compiled.hoist_left(&e, 1, &mut hoist);
                compiled.survivors(&mut hoist, &l, span, &mut scratch, &mut survivors);
                let mut fresh = LeftHoist::new();
                compiled.hoist_left(&e, 1, &mut fresh);
                compiled.survivors(&mut fresh, &l, span, &mut scratch, &mut kept);
                assert_eq!(survivors, kept, "{cmp:?}");
            }
        }
        assert!(kept.len() < l.len(), "the last comparator filtered nothing");
        // And the prefilter is as tight as its table allows. Under `jw95`
        // the second left record keeps the identical, the near, the anagram
        // (locals 5 and 11: every symbol shared), the unbounded (1, 8) and
        // the valueless (7); it drops "", the two far ones and "CRC", whose
        // three symbols are all shared and still too few.
        let compiled = comparators[0].compile(&e, &l);
        compiled.hoist_left(&e, 1, &mut hoist);
        compiled.survivors(&mut hoist, &l, span, &mut scratch, &mut survivors);
        assert_eq!(survivors, [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn later_value_pairs_that_cannot_beat_the_best_skip_their_kernel() {
        let (e, l) = filter_fixture();
        let cmp = RecordComparator::single(EXT_PN, LOC_PN, SimilarityMeasure::JaroWinkler)
            .with_thresholds(0.3, 0.1);
        let compiled = cmp.compile(&e, &l);
        let mut hoist = LeftHoist::new();
        compiled.hoist_left(&e, 0, &mut hoist);
        // Local 9 is "CRCW0805-10K", "CRCW0812-22K": the first pairing is
        // exact, the second is bounded by 0.9 — above the 0.1 the pair
        // needs, below the 1.0 in hand. The non-ASCII left value has no
        // bound: both its kernels run.
        let mut scratch = SimScratch::new();
        let scored = compiled.score_hoisted(&hoist, &e, &l, 9, &mut scratch);
        assert_eq!(scored, (1.0, MatchDecision::Match));
        assert_eq!((scratch.kernel_calls, scratch.bound_exits), (3, 1));
        // Local 10 holds the near value second: nothing in hand yet when
        // "T83A225K" is bounded (0.47 ≥ 0.1), so every kernel runs.
        let mut scratch = SimScratch::new();
        let (score, _) = compiled.score_hoisted(&hoist, &e, &l, 10, &mut scratch);
        assert_eq!(score, compiled.score(&e, 0, &l, 10, &mut scratch).0);
        assert_eq!((scratch.kernel_calls, scratch.bound_exits), (4, 0));

        // The margin is on the safe side. A rule that cannot fire brings
        // the slack to 1e-3 of this rule's weight; the second pairing
        // (62/63 ≈ 0.98413, then 63/64 ≈ 0.98438) beats the first by less,
        // and must still run.
        let base = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789".repeat(2);
        let left = &base[..63];
        let mut local = Record::new(Term::iri("http://local.e.org/prod/1"));
        local
            .add(LOC_PN, format!("{}_", &left[..62]))
            .add(LOC_PN, format!("{left}_"));
        let (e, l) = (ext(left), RecordStore::from_records(&[local]));
        let mut cmp = two_rules(SimilarityMeasure::Levenshtein, (1.0, 1e6));
        cmp.rules[1].right_property = "http://nowhere.org/v#x".to_string();
        let cmp = cmp.with_thresholds(0.99, 0.9);
        let compiled = cmp.compile(&e, &l);
        compiled.hoist_left(&e, 0, &mut hoist);
        let mut scratch = SimScratch::new();
        let scored = compiled.score_hoisted(&hoist, &e, &l, 0, &mut scratch);
        assert_eq!(scored, (63.0 / 64.0, MatchDecision::Possible));
        assert_eq!(scored, compiled.score(&e, 0, &l, 0, &mut scratch));
        assert_eq!((scratch.kernel_calls, scratch.bound_exits), (2, 0));
    }

    #[test]
    fn filter_is_off_for_weights_and_thresholds_it_cannot_reason_about() {
        let (e, l) = filter_fixture();
        for weights in [
            (1.0, -1.0),
            (1.0, 0.0),
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
        ] {
            let cmp = two_rules(SimilarityMeasure::JaroWinkler, weights).with_thresholds(0.95, 0.9);
            assert!(cmp.compile(&e, &l).filter.is_none(), "{weights:?}");
        }
        // Public fields can be set past `with_thresholds`' clamping: a pair
        // is a `NonMatch` only below *both* thresholds, never below NaN.
        let mut cmp = two_rules(SimilarityMeasure::JaroWinkler, (1.0, 1.0));
        (cmp.match_threshold, cmp.non_match_threshold) = (0.2, 0.9);
        assert_eq!(cmp.compile(&e, &l).filter.unwrap().reject_below, 0.2);
        assert_hoisted_agrees(&cmp, &e, &l);
        cmp.non_match_threshold = f64::NAN;
        assert!(cmp.compile(&e, &l).filter.is_none());
        let compiled = {
            cmp.non_match_threshold = 0.9;
            cmp.match_threshold = f64::NAN;
            cmp.compile(&e, &l)
        };
        assert_eq!(compiled.filter.unwrap().reject_below, 0.9);
    }
}
