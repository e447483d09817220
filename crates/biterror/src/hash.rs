//! Counter-based hashing for storage-free random bit error patterns.
//!
//! The paper's error model (Sec. 3) draws `u ~ U(0,1)^(W×m)` per simulated
//! chip and flips bit `j` of weight `i` iff `u_ij <= p`. Materializing that
//! tensor for every chip is wasteful; instead we define
//! `u_ij = hash(seed, i, j) ∈ [0,1)` with a strong 64-bit mixer. Because
//! `u_ij` is a pure function of `(seed, i, j)`, the flipped set at a lower
//! rate `p' <= p` is automatically a subset of the flipped set at `p` — the
//! persistence-across-voltages axiom holds by construction.

/// Weyl increment of the mixer; also the multiplier of the first index.
pub(crate) const K1: u64 = 0x9E37_79B9_7F4A_7C15;
/// Multiplier of the second index; also the first finalizer multiplier.
pub(crate) const K2: u64 = 0xBF58_476D_1CE4_E5B9;
const K3: u64 = 0x94D0_49BB_1331_11EB;

/// Scale of the 53-bit fraction behind [`hash_unit`]: `2^53`.
pub(crate) const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// Mixes a seed and two indices into a uniform 64-bit value.
///
/// SplitMix64-style finalization over a Weyl-sequence combination of the
/// inputs; passes the usual avalanche sanity checks for this use case
/// (distinct `(seed, a, b)` triples decorrelate).
pub fn hash_u64(seed: u64, a: u64, b: u64) -> u64 {
    finalize(seed ^ a.wrapping_mul(K1) ^ b.wrapping_mul(K2))
}

/// The SplitMix64 finalizer shared by [`hash_u64`] and the uniform
/// injector's per-word kernel, which hoists the `seed ^ a·K1` term out of
/// its bit loop.
#[inline(always)]
pub(crate) fn finalize(mut z: u64) -> u64 {
    z = z.wrapping_add(K1);
    z = (z ^ (z >> 30)).wrapping_mul(K2);
    z = (z ^ (z >> 27)).wrapping_mul(K3);
    z ^ (z >> 31)
}

/// Maps the hash to a double in `[0, 1)`.
///
/// The value is exactly `x · 2^-53` for the integer `x = hash_u64(..) >> 11`
/// (every `x < 2^53` is representable and the scaling is a power of two),
/// so for any `p >= 0`, `hash_unit(..) <= p` holds exactly when
/// `x <= floor(p · 2^53)`. The uniform injector decides flips with that
/// one integer compare.
pub fn hash_unit(seed: u64, a: u64, b: u64) -> f64 {
    // 53 high-quality bits -> [0, 1).
    (hash_u64(seed, a, b) >> 11) as f64 * (1.0 / UNIT_SCALE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(1, 2, 3), hash_u64(1, 2, 3));
        assert_eq!(hash_unit(9, 8, 7), hash_unit(9, 8, 7));
    }

    #[test]
    fn distinct_inputs_decorrelate() {
        let h0 = hash_u64(1, 0, 0);
        assert_ne!(h0, hash_u64(1, 1, 0));
        assert_ne!(h0, hash_u64(1, 0, 1));
        assert_ne!(h0, hash_u64(2, 0, 0));
    }

    #[test]
    fn unit_values_are_uniform_in_aggregate() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| hash_unit(42, i, i % 8)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let below: usize = (0..n).filter(|&i| hash_unit(42, i, 0) < 0.01).count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.01).abs() < 0.005, "tail fraction {frac}");
    }

    #[test]
    fn unit_values_in_range() {
        for i in 0..1000 {
            let u = hash_unit(7, i, i / 3);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
