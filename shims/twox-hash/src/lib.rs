//! Minimal offline stand-in for the `twox-hash` 2.x crate: the XXH64
//! hash, nothing else.
//!
//! The persistence layer (`classilink-linking`'s `persist` module)
//! names every snapshot file by its XXH64 because it is fast, seedable,
//! and has a fixed 8-byte digest that detects the torn
//! writes and bit flips the chaos suite injects. This shim implements
//! the real XXH64 algorithm (Yann Collet's specification) so digests
//! written today remain verifiable byte-for-byte after swapping in the
//! upstream crate — the API mirrors `twox_hash::XxHash64` from
//! twox-hash 2.x: [`XxHash64::with_seed`], the [`std::hash::Hasher`]
//! impl for streaming use, and the [`XxHash64::oneshot`] convenience.
//!
//! Pinned against the reference test vectors (empty input, short
//! tails, multi-stripe input) in the tests below.

/// Streaming XXH64 hasher.
///
/// Construct with [`XxHash64::with_seed`], feed bytes through
/// [`std::hash::Hasher::write`], read the digest with
/// [`std::hash::Hasher::finish`] (which does not consume the hasher —
/// more bytes may follow). `Default` is seed 0.
#[derive(Debug, Clone)]
pub struct XxHash64 {
    seed: u64,
    acc: [u64; 4],
    buffer: [u8; 32],
    buffered: usize,
    total: u64,
}

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn merge_round(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

impl XxHash64 {
    /// A hasher whose digest is `XXH64(bytes, seed)`.
    pub fn with_seed(seed: u64) -> Self {
        XxHash64 {
            seed,
            acc: [
                seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
                seed.wrapping_add(PRIME_2),
                seed,
                seed.wrapping_sub(PRIME_1),
            ],
            buffer: [0; 32],
            buffered: 0,
            total: 0,
        }
    }

    /// `XXH64(data, seed)` in one call — the common non-streaming case.
    pub fn oneshot(seed: u64, data: &[u8]) -> u64 {
        use std::hash::Hasher;
        let mut hasher = Self::with_seed(seed);
        hasher.write(data);
        hasher.finish()
    }

    #[inline]
    fn consume_stripe(acc: &mut [u64; 4], stripe: &[u8]) {
        debug_assert_eq!(stripe.len(), 32);
        for (lane, chunk) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
    }
}

impl Default for XxHash64 {
    fn default() -> Self {
        Self::with_seed(0)
    }
}

impl std::hash::Hasher for XxHash64 {
    fn write(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        // Top up a partially filled buffer first.
        if self.buffered > 0 {
            let take = (32 - self.buffered).min(bytes.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 32 {
                return;
            }
            let stripe = self.buffer;
            Self::consume_stripe(&mut self.acc, &stripe);
            self.buffered = 0;
        }
        // Whole stripes straight from the input; the tail waits in the
        // buffer for the next write (or for `finish`).
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            Self::consume_stripe(&mut self.acc, stripe);
        }
        let tail = stripes.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    fn finish(&self) -> u64 {
        let mut hash = if self.total >= 32 {
            let [v1, v2, v3, v4] = self.acc;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            h = merge_round(h, v1);
            h = merge_round(h, v2);
            h = merge_round(h, v3);
            merge_round(h, v4)
        } else {
            self.seed.wrapping_add(PRIME_5)
        };
        hash = hash.wrapping_add(self.total);
        let mut rest = &self.buffer[..self.buffered];
        while let Some(chunk) = rest.first_chunk::<8>() {
            hash = (hash ^ round(0, u64::from_le_bytes(*chunk)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            rest = &rest[8..];
        }
        if let Some(chunk) = rest.first_chunk::<4>() {
            hash = (hash ^ u64::from(u32::from_le_bytes(*chunk)).wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            rest = &rest[4..];
        }
        for &byte in rest {
            hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME_3);
        hash ^ (hash >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::XxHash64;
    use std::hash::Hasher;

    #[test]
    fn reference_vectors() {
        // Published XXH64 vectors (xxhash sanity suite and ports).
        assert_eq!(XxHash64::oneshot(0, b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(XxHash64::oneshot(0, b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(XxHash64::oneshot(0, b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            XxHash64::oneshot(0, b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC,
        );
    }

    #[test]
    fn seed_changes_the_digest() {
        assert_ne!(XxHash64::oneshot(0, b"abc"), XxHash64::oneshot(1, b"abc"));
        assert_ne!(XxHash64::oneshot(0, b""), XxHash64::oneshot(7, b""));
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        // 67 bytes: exercises the 32-byte stripe path, the 8/4/1-byte
        // tails, and buffer top-up across every split point.
        let data: Vec<u8> = (0u8..67)
            .map(|i| i.wrapping_mul(31).wrapping_add(7))
            .collect();
        let expected = XxHash64::oneshot(0x9E37, &data);
        for split in 0..=data.len() {
            let mut hasher = XxHash64::with_seed(0x9E37);
            hasher.write(&data[..split]);
            hasher.write(&data[split..]);
            assert_eq!(hasher.finish(), expected, "split at {split}");
        }
        // Byte-at-a-time.
        let mut hasher = XxHash64::with_seed(0x9E37);
        for &b in &data {
            hasher.write(&[b]);
        }
        assert_eq!(hasher.finish(), expected);
    }

    #[test]
    fn finish_does_not_consume() {
        let mut hasher = XxHash64::with_seed(0);
        hasher.write(b"abc");
        assert_eq!(hasher.finish(), XxHash64::oneshot(0, b"abc"));
        hasher.write(b"def");
        assert_eq!(hasher.finish(), XxHash64::oneshot(0, b"abcdef"));
    }
}
