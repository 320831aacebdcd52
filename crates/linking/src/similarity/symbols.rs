//! Shared-symbol counting: the cheap upper bounds under the string kernels.
//!
//! The **multiset intersection** `m` of two strings' symbols — how many
//! symbols can be paired off one to one with an equal symbol of the other
//! string — bounds every edit/Jaro similarity from above, because each of
//! those kernels only ever credits pairs of equal symbols (the per-measure
//! formulas sit next to their kernels:
//! [`edit_similarity_bound`](super::edit::edit_similarity_bound),
//! [`jaro_bound`](super::jaro::jaro_bound),
//! [`jaro_winkler_bound`](super::jaro::jaro_winkler_bound)). It is
//! obtained in two tiers, the cheaper one first:
//!
//! 1. **Signature** ([`Signature`]): 32 bytes per value — which of 64
//!    symbol classes occur, which occur at least twice, the length, the
//!    length's *excess* over those two counts and the first four bytes —
//!    computed once per value (the local side's as a derived column of the
//!    store, the external side's by
//!    [`CompiledComparator::hoist_left`](crate::comparator::CompiledComparator::hoist_left)).
//!    Two signatures give an **upper bound on `m`**
//!    ([`Signature::shared_upper`]: two popcounts of the classes both hold,
//!    on top of the smaller excess) and the exact Winkler prefix
//!    ([`Signature::common_prefix`]) from a handful of word operations and
//!    no value byte; the comparator's run prefilter rejects most pairs of a
//!    candidate block on them alone.
//! 2. **Exact count** ([`shared_symbols`]): one pass over one string
//!    against a [`SymbolTable`] of the other, built **once per left value**
//!    by `hoist_left` and read by every pair of the block the signatures
//!    let through. Under a Jaro rule it is literally the Jaro kernel's
//!    table and pass: the pass over a right value of at most 64 bytes
//!    (`jaro::JaroPass`) claims symbols for this count and, in the same
//!    loop, the windowed Jaro matches, so a pair that passes its bound is
//!    scored without a second look at its bytes.
//!
//! A table or a usable signature exists only for ASCII strings of at most
//! 64 bytes (one bit per position, one word per byte value) and only ASCII
//! right strings are counted; any other pair simply has no bound and runs
//! its kernel.

/// Words in one mask table: one per ASCII byte value.
pub const SYMBOL_TABLE_LEN: usize = 128;

/// The longest value a [`Signature`] or a [`SymbolTable`] bounds: one bit
/// of a `u64` per position.
pub const SIGNATURE_MAX_LEN: usize = 64;

/// One string's per-symbol position masks: the shared-symbol count's table
/// and the bit-parallel Jaro kernel's.
pub type SymbolTable = [u64; SYMBOL_TABLE_LEN];

/// `a`'s position masks — bit `i` of `table[c]` is set iff `a[i] == c` —
/// or `None` when `a` cannot have a table (non-ASCII, or longer than 64
/// bytes).
pub fn symbol_masks(a: &str) -> Option<SymbolTable> {
    if a.len() > SIGNATURE_MAX_LEN || !a.is_ascii() {
        return None;
    }
    let mut table = [0u64; SYMBOL_TABLE_LEN];
    for (i, &c) in a.as_bytes().iter().enumerate() {
        table[c as usize] |= 1u64 << i;
    }
    Some(table)
}

/// The multiset intersection of `b`'s symbols with those of the string
/// `table` was built from ([`symbol_masks`]); `None` when `b` is not
/// ASCII.
///
/// Each byte of `b` claims the lowest still-free position of the table's
/// string holding the same byte, so a symbol occurring `x` times on one
/// side and `y` times on the other is counted `min(x, y)` times. The loop
/// is branch-free: a byte with no free position contributes the zero word.
pub fn shared_symbols(table: &SymbolTable, b: &str) -> Option<u32> {
    let mut claimed = 0u64;
    let mut seen = 0u8;
    for &c in b.as_bytes() {
        let free = table[(c & 0x7f) as usize] & !claimed;
        claimed |= free & free.wrapping_neg(); // lowest set bit, or 0
        seen |= c;
    }
    seen.is_ascii().then(|| claimed.count_ones())
}

/// A value's symbol signature: what the run prefilter knows of a string
/// without reading it. Byte `c` belongs to class `c & 63`, so the 128 ASCII
/// symbols fold onto 64 classes (`'0'` and `'p'` share one); a value that
/// is not ASCII is **poisoned** and bounds nothing, as [`symbol_masks`]
/// returning `None`. 32 bytes: two words, three `u32`s and the padding
/// that aligns the next signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Bit `k` set iff some byte of class `k` occurs.
    present: u64,
    /// Bit `k` set iff bytes of class `k` occur at least twice.
    repeated: u64,
    /// The first four bytes, little-endian, zero-padded.
    prefix: u32,
    /// Byte length; [`Self::POISON`] for a value that is not ASCII (or
    /// whose length does not fit).
    pub(crate) len: u32,
    /// `len − popcnt(present) − popcnt(repeated)`: the bytes no class
    /// bit accounts for. It never underflows — a class present takes one
    /// byte, a class repeated at least one more. 0 when poisoned.
    excess: u32,
}

impl Signature {
    const POISON: u32 = u32::MAX;

    /// The signature of a value that bounds nothing.
    pub const POISONED: Signature = Signature {
        present: 0,
        repeated: 0,
        prefix: 0,
        len: Self::POISON,
        excess: 0,
    };

    /// `value`'s signature: one pass over its bytes.
    pub fn of(value: &str) -> Signature {
        let bytes = value.as_bytes();
        let (mut present, mut repeated, mut seen) = (0u64, 0u64, 0u8);
        for &c in bytes {
            let class = 1u64 << (c & 63);
            repeated |= present & class;
            present |= class;
            seen |= c;
        }
        let prefix = match bytes.first_chunk::<4>() {
            Some(head) => u32::from_le_bytes(*head),
            None => (bytes.iter().rev()).fold(0, |word, &c| word << 8 | u32::from(c)),
        };
        match u32::try_from(bytes.len()) {
            Ok(len) if seen.is_ascii() && len != Self::POISON => Signature {
                present,
                repeated,
                prefix,
                len,
                excess: len - present.count_ones() - repeated.count_ones(),
            },
            _ => Self::POISONED,
        }
    }

    /// The value's byte length, or `None` for a poisoned signature.
    pub fn byte_len(&self) -> Option<usize> {
        (self.len != Self::POISON).then_some(self.len as usize)
    }

    /// `true` when the signature is of an ASCII value of at most
    /// [`SIGNATURE_MAX_LEN`] bytes — what the prefilter's table covers.
    #[inline(always)]
    pub fn is_bounded(&self) -> bool {
        self.len as usize <= SIGNATURE_MAX_LEN
    }

    /// An **upper bound** on the multiset intersection of the two values'
    /// symbols ([`shared_symbols`] never exceeds it). Neither side may be
    /// poisoned.
    ///
    /// A class `self` holds and `other` lacks leaves at least one symbol of
    /// `self` unpaired; a class `self` holds at least twice and `other` at
    /// most once leaves at least one more. So at most `|self|` minus those
    /// two counts of `self`'s symbols are paired, likewise for `other`, and
    /// the intersection is at most the smaller. Folding symbols onto classes
    /// and saturating counts at two only ever pairs *more* — the bound
    /// loosens, it never breaks.
    ///
    /// Computed in two popcounts: since `popcnt(x & !y) = popcnt(x) −
    /// popcnt(x & y)`, each side's count is its `excess` plus the classes
    /// both sides hold once and twice, a term the two sides share — so the
    /// smaller side is the one of smaller excess.
    #[inline(always)]
    pub fn shared_upper(&self, other: &Signature) -> u32 {
        self.excess.min(other.excess)
            + (self.present & other.present).count_ones()
            + (self.repeated & other.repeated).count_ones()
    }

    /// The number of leading symbols the two values share, at most 4 — the
    /// prefix Winkler's boost counts
    /// ([`common_prefix`](super::jaro::common_prefix)). Neither side may be
    /// poisoned.
    #[inline(always)]
    pub fn common_prefix(&self, other: &Signature) -> u32 {
        // Equal zero padding is not a shared symbol: cap by both lengths.
        ((self.prefix ^ other.prefix).trailing_zeros() / 8)
            .min(self.len)
            .min(other.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(a: &str, b: &str) -> Option<u32> {
        shared_symbols(&symbol_masks(a)?, b)
    }

    #[test]
    fn counts_each_symbol_min_of_both_sides() {
        assert_eq!(shared("AAAA", "AA"), Some(2));
        assert_eq!(shared("AA", "AAAA"), Some(2));
        assert_eq!(shared("CRCW0805", "CRCW0812"), Some(6));
        assert_eq!(shared("abc", "xyz"), Some(0));
        assert_eq!(shared("", "abc"), Some(0));
        assert_eq!(shared("abc", ""), Some(0));
        // Order is irrelevant: it is a multiset intersection.
        assert_eq!(shared("MARTHA", "AHTRAM"), Some(6));
    }

    #[test]
    fn only_short_ascii_strings_have_a_table() {
        let long = "x".repeat(65);
        assert_eq!(shared(&"x".repeat(64), &long), Some(64));
        assert_eq!(shared(&long, "x"), None);
        assert_eq!(shared("café", "cafe"), None);
        assert_eq!(shared("cafe", "café"), None);
        // A non-ASCII byte must not alias the ASCII byte it shares its low
        // seven bits with ('é' is C3 A9; 0x43 is 'C', 0x29 is ')').
        assert_eq!(shared("C)", "é"), None);
    }
}
