//! FNV-1a 64-bit hashing, shared by the artefact envelopes and
//! checkpoints (`dnnspmv-nn`) and the feedback journal's record frames
//! (`dnnspmv-feedback`).
//!
//! Not cryptographic; catches truncation and bit rot, which is all its
//! users need (the decision-cache key in `dnnspmv-core` is a hash of
//! its own). The digest for a given byte
//! sequence is **pinned by tests** below: persisted envelopes store
//! these checksums, so a behavioural change here would invalidate every
//! artefact ever written.

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a64 reference vectors — a refactor that changes
    /// any of these digests would silently orphan every persisted
    /// artefact, so they are pinned here byte for byte.
    #[test]
    fn digests_match_published_fnv1a64_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_depends_on_byte_order() {
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"a\0"));
    }
}
