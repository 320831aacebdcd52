//! Reusable scratch buffers for the allocation-free similarity kernels.
//!
//! Every `*_with(scratch, a, b)` kernel variant (see
//! [`crate::similarity::edit`] and [`mod@crate::similarity::jaro`]) borrows
//! its working memory — char buffers, DP rows, match bitmaps — from a
//! [`SimScratch`] instead of heap-allocating per call. One scratch is
//! owned per comparison worker thread and amortises to zero allocations
//! once the buffers have grown to the longest strings seen, which is
//! what makes the pipeline's per-pair loop allocation-free in steady
//! state.
//!
//! A `SimScratch` carries no result state between calls: every kernel
//! fully re-initialises the prefix of each buffer it reads, so reusing
//! one scratch across measures, pairs and stores is always safe. (Its
//! public counters only ever count; nothing reads them back.)

use super::symbols::{SymbolTable, SYMBOL_TABLE_LEN};

/// Reusable working memory for the scratch-buffer similarity kernels.
///
/// Create one per worker thread ([`SimScratch::new`] performs no
/// allocation; buffers grow on first use) and thread it through the
/// `*_with` kernel variants and
/// [`CompiledComparator::score`](crate::comparator::CompiledComparator::score).
#[derive(Debug, Clone)]
pub struct SimScratch {
    /// Decoded scalar values of the left string (non-ASCII paths only).
    pub(crate) a_chars: Vec<char>,
    /// Decoded scalar values of the right string (non-ASCII paths only).
    pub(crate) b_chars: Vec<char>,
    /// DP row `i − 1` (edit-distance kernels).
    pub(crate) prev: Vec<usize>,
    /// DP row `i` (edit-distance kernels).
    pub(crate) curr: Vec<usize>,
    /// DP row `i − 2` (the Damerau transposition lookback).
    pub(crate) prev2: Vec<usize>,
    /// Per-position "already matched" bitmap over the right string (Jaro).
    pub(crate) b_matched: Vec<bool>,
    /// Matched scalar values of the left string, in match order (Jaro).
    pub(crate) matches: Vec<u32>,
    /// Per-byte position masks over the left string, the shape
    /// `hoist_left` builds per block (the bit-parallel ASCII Jaro path):
    /// `table[c]` has bit `i` set iff `a[i] == c`. Held inline, so it never
    /// allocates. Invariant: zeroed between calls (each kernel invocation
    /// clears exactly the entries it set).
    pub(crate) table: SymbolTable,
    /// Attribute-value pairs
    /// [`CompiledComparator::score_hoisted`](crate::comparator::CompiledComparator::score_hoisted)
    /// scored with this scratch — through their kernel, or for a Jaro rule
    /// from the pass that bounded them (a running total; plain,
    /// per-worker).
    pub kernel_calls: u64,
    /// Attribute-value pairs visited **without** running their kernel,
    /// because a shared-symbol bound showed the pair could not reach the
    /// non-match threshold (or beat its rule's best pairing so far).
    /// `kernel_calls + bound_exits` is the number of value pairs visited.
    pub bound_exits: u64,
    /// The part of `bound_exits` the run prefilter
    /// ([`CompiledComparator::survivors`](crate::comparator::CompiledComparator::survivors))
    /// settled on two signatures, before `score_hoisted` saw the pair.
    pub signature_exits: u64,
}

impl SimScratch {
    /// An empty scratch; buffers are lazily grown by the kernels.
    pub fn new() -> Self {
        SimScratch {
            a_chars: Vec::new(),
            b_chars: Vec::new(),
            prev: Vec::new(),
            curr: Vec::new(),
            prev2: Vec::new(),
            b_matched: Vec::new(),
            matches: Vec::new(),
            table: [0; SYMBOL_TABLE_LEN],
            kernel_calls: 0,
            bound_exits: 0,
            signature_exits: 0,
        }
    }
}

impl Default for SimScratch {
    fn default() -> Self {
        Self::new()
    }
}
