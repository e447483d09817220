//! The paper's uniform random bit error model (`BErr_p`, Sec. 3).

use crate::hash::{finalize, hash_unit, K1, K2, UNIT_SCALE};
use crate::ErrorInjector;

/// A virtual chip with uniformly random, voltage-persistent bit errors.
///
/// The chip is identified by a seed; its error pattern is a pure function of
/// `(seed, weight index, bit index)`. Evaluating at a lower rate `p' <= p`
/// yields a subset of the flips at `p`, exactly matching the paper's error
/// model: *"bit errors at probability p' ≤ p also occur at probability p"*.
///
/// [`UniformChip::latent`] and [`UniformChip::flips`] are the reference
/// definition. The injector decides the same flips without floating point:
/// the latent is exactly `x · 2^-53` for the integer `x = hash_u64(..) >> 11`,
/// so `latent <= p` holds exactly when `x <= floor(p · 2^53)`, a threshold
/// computed once per [`ErrorInjector::inject`] call.
///
/// # Examples
///
/// ```
/// use bitrobust_biterror::{ErrorInjector, UniformChip};
/// use bitrobust_quant::QuantScheme;
///
/// let chip = UniformChip::new(7);
/// let scheme = QuantScheme::rquant(8);
/// let mut q = scheme.quantize(&vec![0.01f32; 1000]);
/// let clean = q.clone();
/// chip.at_rate(0.05).inject(q.words_mut(), 8, 0);
/// let flipped = clean.hamming_distance(&q);
/// assert!(flipped > 250 && flipped < 550); // ~ p*m*W = 400
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformChip {
    seed: u64,
}

impl UniformChip {
    /// Creates a chip with the given identity seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The chip's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The latent uniform variable `u_ij` deciding whether bit `bit` of
    /// weight `weight_index` flips (it flips iff `u_ij <= p`).
    pub fn latent(&self, weight_index: usize, bit: u8) -> f64 {
        hash_unit(self.seed, weight_index as u64, bit as u64)
    }

    /// Whether the given bit flips at error rate `p`.
    pub fn flips(&self, p: f64, weight_index: usize, bit: u8) -> bool {
        self.latent(weight_index, bit) <= p
    }

    /// Binds the chip to an error rate, producing an [`ErrorInjector`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn at_rate(&self, p: f64) -> UniformInjector {
        assert!((0.0..=1.0).contains(&p), "error rate must be in [0, 1]");
        UniformInjector { chip: *self, p }
    }
}

/// A [`UniformChip`] bound to an error rate.
#[derive(Debug, Clone, Copy)]
pub struct UniformInjector {
    chip: UniformChip,
    p: f64,
}

impl UniformInjector {
    /// The bound error rate.
    pub fn rate(&self) -> f64 {
        self.p
    }
}

impl ErrorInjector for UniformInjector {
    fn inject(&self, words: &mut [u8], bits: u8, word_offset: usize) {
        if self.p <= 0.0 {
            return;
        }
        // One hash and one integer compare per bit (see `UniformChip`): the
        // word term `seed ^ wi·K1` is hoisted, the `bits` hashes of a word
        // are independent, and the mask is built without branches.
        let threshold = (self.p * UNIT_SCALE).floor() as u64;
        let bit_terms: [u64; 8] = std::array::from_fn(|bit| (bit as u64).wrapping_mul(K2));
        let bit_terms = &bit_terms[..usize::from(bits)];
        for (i, word) in words.iter_mut().enumerate() {
            let base = self.chip.seed ^ ((word_offset + i) as u64).wrapping_mul(K1);
            let mut flip_mask = 0u8;
            for (bit, &term) in bit_terms.iter().enumerate() {
                flip_mask |= u8::from(finalize(base ^ term) >> 11 <= threshold) << bit;
            }
            *word ^= flip_mask;
        }
    }
}

/// Expected number of bit errors for rate `p`, `W` weights and `m` bits —
/// the paper's `p·m·W` (Tab. 6 right).
pub fn expected_bit_errors(p: f64, n_weights: usize, bits: u8) -> f64 {
    p * n_weights as f64 * bits as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_property_across_rates() {
        let chip = UniformChip::new(3);
        let (p_low, p_high) = (0.01, 0.05);
        for wi in 0..5000 {
            for bit in 0..8 {
                if chip.flips(p_low, wi, bit) {
                    assert!(
                        chip.flips(p_high, wi, bit),
                        "low-rate flips must persist at high rate"
                    );
                }
            }
        }
    }

    #[test]
    fn different_chips_have_different_patterns() {
        let a = UniformChip::new(1).at_rate(0.05);
        let b = UniformChip::new(2).at_rate(0.05);
        let mut wa = vec![0u8; 4000];
        let mut wb = vec![0u8; 4000];
        a.inject(&mut wa, 8, 0);
        b.inject(&mut wb, 8, 0);
        assert_ne!(wa, wb);
        // Overlap should be near p^2 per bit, i.e. tiny.
        let both: u32 = wa.iter().zip(&wb).map(|(&x, &y)| (x & y).count_ones()).sum();
        let either: u32 = wa.iter().map(|&x| x.count_ones()).sum();
        assert!((both as f64) < 0.2 * either as f64);
    }

    #[test]
    fn flip_count_matches_expectation() {
        let chip = UniformChip::new(11);
        let mut words = vec![0u8; 20_000];
        chip.at_rate(0.01).inject(&mut words, 8, 0);
        let flips: u32 = words.iter().map(|w| w.count_ones()).sum();
        let expected = expected_bit_errors(0.01, 20_000, 8);
        assert!((flips as f64 - expected).abs() < expected * 0.15, "{flips} vs {expected}");
    }

    #[test]
    fn respects_bit_width() {
        let chip = UniformChip::new(4);
        let mut words = vec![0u8; 10_000];
        chip.at_rate(0.5).inject(&mut words, 4, 0);
        assert!(words.iter().all(|&w| w & 0xF0 == 0), "must not touch dead bits");
        assert!(words.iter().any(|&w| w != 0));
    }

    #[test]
    fn zero_rate_is_identity() {
        let chip = UniformChip::new(5);
        let mut words = vec![0xAAu8; 100];
        chip.at_rate(0.0).inject(&mut words, 8, 0);
        assert!(words.iter().all(|&w| w == 0xAA));
    }

    #[test]
    fn offset_shifts_the_pattern() {
        let chip = UniformChip::new(6);
        let mut a = vec![0u8; 1000];
        let mut b = vec![0u8; 1000];
        chip.at_rate(0.05).inject(&mut a, 8, 0);
        chip.at_rate(0.05).inject(&mut b, 8, 500);
        assert_eq!(&a[500..], &b[..500], "offset mapping must align patterns");
        assert_ne!(&a[..500], &b[..500]);
    }

    #[test]
    fn injection_is_an_involution() {
        // Injecting the same pattern twice restores the original words.
        let chip = UniformChip::new(8).at_rate(0.1);
        let orig: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        let mut words = orig.clone();
        chip.inject(&mut words, 8, 0);
        chip.inject(&mut words, 8, 0);
        assert_eq!(words, orig);
    }
}
