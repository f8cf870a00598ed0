//! The workspace's one deterministic, dependency-free byte hash.

/// 64-bit FNV-1a over `bytes`.
///
/// Stable across runs, platforms and versions by construction, which is
/// what its callers need: the binary container's header checksum
/// ([`crate::binfmt`]) and the router's shard / whole-line placement, so a
/// file written today validates tomorrow and a rebuilt cluster routes
/// identically.  Not a defence against crafted collisions.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
