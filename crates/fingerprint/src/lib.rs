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
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a64 hasher for callers that fold in several fields
/// without materialising one contiguous buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
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
    fn streaming_hasher_matches_one_shot_hash() {
        let mut h = Fnv1a64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn integer_writes_are_little_endian_byte_folds() {
        let mut a = Fnv1a64::new();
        a.write_u32(0x0403_0201);
        a.write_u64(0x0807_0605_0403_0201);
        let mut b = Fnv1a64::new();
        b.write(&[1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn digest_depends_on_byte_order() {
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"a\0"));
    }
}
