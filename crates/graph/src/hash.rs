//! The workspace's deterministic, dependency-free hashes: FNV-1a for values
//! that must be stable (checksums, placement, cache signatures) and a
//! multiply-mix [`MixBuildHasher`] for in-memory maps keyed by the program's
//! own integers.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a over `bytes`.
///
/// Stable across runs, platforms and versions by construction, which is
/// what its callers need: the binary container's header checksum
/// ([`crate::binfmt`]), the router's shard / whole-line placement, and the
/// column / node-set signatures of `dht-walks`' caches — so a file written
/// today validates tomorrow and a rebuilt cluster routes identically.  Not
/// a defence against crafted collisions.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes:
/// `fnv1a_fold(fnv1a(a), b) == fnv1a(a ++ b)`, so a value made of several
/// fields is hashed without concatenating them first.
#[inline]
pub fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `BuildHasher` of the hot-path maps whose keys the program makes itself —
/// node ids, cache signatures, answer tuples — and never client bytes: one
/// rotate-xor-multiply per word instead of SipHash's rounds.  Keeps none of
/// SipHash's protection against keys crafted to collide.
pub type MixBuildHasher = BuildHasherDefault<MixHasher>;

/// The hasher behind [`MixBuildHasher`].
#[derive(Debug, Default, Clone, Copy)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; tables index by the low.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn folding_equals_hashing_the_concatenation() {
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b""), fnv1a(b"foo"));
    }

    #[test]
    fn mix_hasher_is_deterministic_and_spreads_small_integers() {
        let build = MixBuildHasher::default();
        assert_eq!(build.hash_one((7u64, 3u32)), build.hash_one((7u64, 3u32)));
        assert_ne!(build.hash_one((7u64, 3u32)), build.hash_one((3u64, 7u32)));
        // Consecutive node ids must not pile into a few buckets of a
        // power-of-two table (which indexes by the low bits) …
        let low: HashSet<u64> = (0u32..4096).map(|n| build.hash_one(n) & 0xfff).collect();
        assert!(
            low.len() > 2048,
            "only {} of 4096 low-bit values",
            low.len()
        );
        // … nor share a control byte (taken from the top seven bits).
        let top: HashSet<u64> = (0u32..4096).map(|n| build.hash_one(n) >> 57).collect();
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn mix_hasher_reads_every_byte_of_a_slice() {
        let build = MixBuildHasher::default();
        let a = build.hash_one([1u32, 2, 3, 4, 5, 6, 7, 8, 9]);
        let b = build.hash_one([1u32, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a, b);
    }
}
