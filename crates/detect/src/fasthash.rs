//! A minimal multiply-mix hasher for small counting maps.
//!
//! Its users are the exact [`ValueDist`](crate::interval::ValueDist)
//! maps — four entry operations per record, kept only when an entropy
//! detector is registered (KL-only pipelines count records into fixed
//! bins and hash nothing) — and the per-alarm value counts KL builds
//! when it names the values inside its flagged bins. Feature values
//! are plain `u32`s under no adversarial control worth paying SipHash
//! for (a flood of colliding feature values is itself the anomaly the
//! pipeline exists to report), so these maps use this FxHash-style
//! multiply-mix instead: one multiply plus an xorshift finalizer,
//! ~5 ns per operation.
//!
//! Not DoS-hardened — keep it for small-key counting maps on hot
//! paths, not for maps keyed by attacker-supplied byte strings.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-shot multiply-mix hasher (see the [module docs](self)).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Xorshift-multiply finalizer: spreads the multiply's
        // high-bit entropy back into the low bits hashbrown uses for
        // bucket selection.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn hash_u32(v: u32) -> u64 {
        let mut h = FxBuildHasher::default().build_hasher();
        h.write_u32(v);
        h.finish()
    }

    #[test]
    fn sequential_keys_spread_across_low_bits() {
        // Hashbrown indexes buckets with the LOW bits: sequential port
        // numbers (the classic scan workload) must not cluster there.
        let mut low7 = HashSet::new();
        for v in 0..1_024u32 {
            low7.insert(hash_u32(v) & 0x7f);
        }
        assert_eq!(low7.len(), 128, "all 128 low-7-bit patterns must occur");
    }

    #[test]
    fn equal_keys_hash_equal_and_distinct_keys_rarely_collide() {
        assert_eq!(hash_u32(0xDEAD_BEEF), hash_u32(0xDEAD_BEEF));
        let mut seen = HashSet::new();
        for v in (0..100_000u32).step_by(7) {
            seen.insert(hash_u32(v));
        }
        assert_eq!(seen.len(), (0..100_000u32).step_by(7).count(), "no 64-bit collisions");
    }

    #[test]
    fn byte_stream_matches_word_writes_for_padding_free_input() {
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
