//! Shared-symbol counting: the cheap upper bound under the string kernels.
//!
//! The **multiset intersection** `m` of two strings' symbols — how many
//! symbols can be paired off one to one with an equal symbol of the other
//! string — bounds every edit/Jaro similarity from above, because each of
//! those kernels only ever credits pairs of equal symbols (the per-measure
//! formulas sit next to their kernels:
//! [`edit_similarity_bound`](super::edit::edit_similarity_bound),
//! [`jaro_bound`](super::jaro::jaro_bound),
//! [`jaro_winkler_bound`](super::jaro::jaro_winkler_bound)). Counting it
//! is one pass over one string against a precomputed table of the other:
//! the same per-byte `u64` position masks the bit-parallel Jaro path uses,
//! built **once per left value** by
//! [`CompiledComparator::hoist_left`](crate::comparator::CompiledComparator::hoist_left)
//! and read by every pair of the candidate block.
//!
//! A table exists only for ASCII strings of at most 64 bytes (one bit per
//! position, one word per byte value) and only ASCII right strings are
//! counted; any other pair simply has no bound and runs its kernel.

/// Words in one mask table: one per ASCII byte value.
pub const SYMBOL_TABLE_LEN: usize = 128;

/// One string's per-symbol position masks.
pub type SymbolTable = [u64; SYMBOL_TABLE_LEN];

/// `a`'s position masks — bit `i` of `table[c]` is set iff `a[i] == c` —
/// or `None` when `a` cannot have a table (non-ASCII, or longer than 64
/// bytes).
pub fn symbol_masks(a: &str) -> Option<SymbolTable> {
    if a.len() > 64 || !a.is_ascii() {
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
