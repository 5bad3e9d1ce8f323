//! The repo's one pinned hash: 64-bit FNV-1a.
//!
//! Cache entries, trace stores, fault plans and metric baselines are all
//! named or checked by it, so it is spelled out here rather than borrowed
//! from the standard library — `DefaultHasher`'s algorithm may change
//! across Rust releases, which would orphan every persisted artifact.

/// FNV-1a 64 offset basis: the hash of the empty string, and the state
/// an incremental hash starts from.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a 64 state (start from
/// [`FNV1A_BASIS`]). Hashing a string in pieces gives the same value as
/// hashing it whole.
#[inline]
#[must_use]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV1A_PRIME);
    }
    hash
}

/// FNV-1a 64 of `bytes`.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // From the FNV reference test suite.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_whole() {
        let split = fnv1a_extend(fnv1a_extend(FNV1A_BASIS, b"foo"), b"bar");
        assert_eq!(split, fnv1a(b"foobar"));
    }
}
