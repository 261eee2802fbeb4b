//! The workspace's two stable, non-cryptographic hash primitives.
//!
//! Both are fixed functions of their input — no `RandomState`, no
//! per-process salt — so values agree across processes, builds and
//! machines. Bundle fingerprints, the cluster's hash ring, pipeline
//! fragment ids, generated-robot seeds and the fault schedule all depend
//! on that, which is why there is exactly one copy of each here.

/// FNV-1a 64-bit offset basis.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string.
///
/// # Examples
///
/// ```
/// assert_eq!(roboshape_obs::hash::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV1A64_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV1A64_PRIME)
    })
}

/// SplitMix64: one step of the standard generator, used as a stateless
/// 64-bit mixer (seed derivation, per-key fault and jitter rolls).
///
/// # Examples
///
/// ```
/// // The generator's first output from seed 0.
/// assert_eq!(roboshape_obs::hash::splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), FNV1A64_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // Successive outputs of the reference generator seeded at 0: the
        // state advances by the golden gamma, so output k is the mixer at
        // (k - 1) * gamma.
        let gamma = 0x9e37_79b9_7f4a_7c15_u64;
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(gamma), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(gamma.wrapping_mul(2)), 0x06c4_5d18_8009_454f);
    }
}
