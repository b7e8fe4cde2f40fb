//! Shared FNV-1a hashing.
//!
//! One 64-bit FNV-1a implementation for everything in the workspace that
//! needs a stable, dependency-free, cross-process hash: the serve layer's
//! content-addressed cache keys (`bwb_serve::key`) and the apps' golden
//! hashes of field bits. Keeping one copy of the constants here guarantees
//! the byte-wise and word-wise variants can never drift apart silently.
//!
//! The hash is deliberately *not* cryptographic — callers need stability
//! and dispersion (cache addressing, change detection), not preimage
//! resistance.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step folding a full 64-bit word into the state. Used where
/// the input is a stream of words (bit patterns of floats in a golden
/// hash) rather than bytes.
#[inline]
pub fn step_u64(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// 64-bit FNV-1a over a byte string, starting from the standard offset
/// basis. This is the exact published FNV-1a 64 and the function the serve
/// layer's cache keys are pinned to — changing it invalidates every
/// persisted cache key.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = step_u64(h, b as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_wise_matches_published_vectors() {
        // Reference values for FNV-1a 64 from the specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_step_composes_from_offset() {
        // The word-wise variant shares constants with the byte-wise one.
        let h = step_u64(FNV_OFFSET, 0x1234_5678_9abc_def0);
        assert_eq!(
            h,
            (FNV_OFFSET ^ 0x1234_5678_9abc_def0).wrapping_mul(FNV_PRIME)
        );
    }
}
