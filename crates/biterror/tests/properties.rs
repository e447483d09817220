//! Property-based tests of the bit error models.

use bitrobust_biterror::{ErrorInjector, UniformChip};
use proptest::prelude::*;

/// The per-bit reference the uniform injector must match: the chip's
/// `flips` on every live bit, and no flips at all at rate 0.
fn reference_inject(chip: UniformChip, p: f64, words: &mut [u8], bits: u8, word_offset: usize) {
    if p <= 0.0 {
        return;
    }
    for (i, word) in words.iter_mut().enumerate() {
        for bit in 0..bits {
            if chip.flips(p, word_offset + i, bit) {
                *word ^= 1 << bit;
            }
        }
    }
}

/// Injects at `p` through the injector and through the reference.
fn both_ways(
    chip: UniformChip,
    p: f64,
    words: &[u8],
    bits: u8,
    offset: usize,
) -> (Vec<u8>, Vec<u8>) {
    let mut fast = words.to_vec();
    chip.at_rate(p).inject(&mut fast, bits, offset);
    let mut reference = words.to_vec();
    reference_inject(chip, p, &mut reference, bits, offset);
    (fast, reference)
}

proptest! {
    /// The paper's persistence axiom: flips at rate p' <= p are a subset of
    /// flips at rate p, for any chip and any pair of rates.
    #[test]
    fn flips_are_nested_across_rates(seed in any::<u64>(), p1 in 0.0f64..0.5, p2 in 0.0f64..0.5) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let chip = UniformChip::new(seed);
        for wi in 0..200usize {
            for bit in 0..8u8 {
                if chip.flips(lo, wi, bit) {
                    prop_assert!(chip.flips(hi, wi, bit));
                }
            }
        }
    }

    /// Injection is an involution: applying the same pattern twice restores
    /// the original words.
    #[test]
    fn double_injection_restores(seed in any::<u64>(), p in 0.0f64..0.3,
                                 words in prop::collection::vec(any::<u8>(), 1..256)) {
        let orig: Vec<u8> = words.iter().map(|w| w & 0x0F).collect(); // 4-bit live
        let mut buf = orig.clone();
        let inj = UniformChip::new(seed).at_rate(p);
        inj.inject(&mut buf, 4, 0);
        inj.inject(&mut buf, 4, 0);
        prop_assert_eq!(buf, orig);
    }

    /// Injection never touches bits above the precision.
    #[test]
    fn dead_bits_untouched(seed in any::<u64>(), bits in 2u8..8) {
        let mask = (1u8 << bits) - 1;
        let mut words = vec![0u8; 2048];
        UniformChip::new(seed).at_rate(0.5).inject(&mut words, bits, 0);
        prop_assert!(words.iter().all(|&w| w & !mask == 0));
    }

    /// The empirical flip rate concentrates around p (law of large numbers;
    /// 5-sigma tolerance keeps this deterministic in practice).
    #[test]
    fn flip_rate_concentrates(seed in any::<u64>(), p in 0.01f64..0.3) {
        let n_words = 8192usize;
        let mut words = vec![0u8; n_words];
        UniformChip::new(seed).at_rate(p).inject(&mut words, 8, 0);
        let flips: u32 = words.iter().map(|w| w.count_ones()).sum();
        let n_bits = (n_words * 8) as f64;
        let expected = p * n_bits;
        let sigma = (n_bits * p * (1.0 - p)).sqrt();
        prop_assert!((flips as f64 - expected).abs() < 5.0 * sigma + 1.0,
            "{} flips vs {} expected", flips, expected);
    }

    /// The word offset behaves like a linear memory mapping: injecting a
    /// window at offset k equals the corresponding window of a full-buffer
    /// injection.
    #[test]
    fn offset_windows_are_consistent(seed in any::<u64>(), offset in 0usize..512) {
        let chip = UniformChip::new(seed);
        let mut full = vec![0u8; 1024];
        chip.at_rate(0.1).inject(&mut full, 8, 0);
        let mut window = vec![0u8; 256];
        chip.at_rate(0.1).inject(&mut window, 8, offset);
        prop_assert_eq!(&window[..], &full[offset..offset + 256]);
    }

    /// The integer-threshold injector flips exactly the bits the per-bit
    /// `flips` reference does, for rates spread over many magnitudes.
    #[test]
    fn inject_matches_per_bit_reference(seed in any::<u64>(), offset in 0usize..1 << 40,
                                        bits in 1u8..9, mantissa in 0.0f64..1.0,
                                        scale in 0i32..60,
                                        words in prop::collection::vec(any::<u8>(), 1..64)) {
        let p = mantissa * 2f64.powi(-scale);
        let (fast, reference) = both_ways(UniformChip::new(seed), p, &words, bits, offset);
        prop_assert_eq!(fast, reference, "p = {:e}", p);
    }

    /// The extreme rates: none flip at 0, all live bits flip at 1, and the
    /// smallest positive rate flips only bits whose latent is exactly 0.
    #[test]
    fn inject_matches_reference_at_extreme_rates(seed in any::<u64>(), offset in 0usize..1 << 40,
                                                 bits in 1u8..9,
                                                 words in prop::collection::vec(any::<u8>(), 1..64)) {
        let chip = UniformChip::new(seed);
        for p in [0.0, 1.0, f64::from_bits(1)] {
            let (fast, reference) = both_ways(chip, p, &words, bits, offset);
            prop_assert_eq!(fast, reference, "p = {:e}", p);
        }
        let mask = ((1u16 << bits) - 1) as u8;
        let (flipped, _) = both_ways(chip, 1.0, &words, bits, offset);
        prop_assert!(flipped.iter().zip(&words).all(|(f, w)| f ^ w == mask));
    }

    /// A rate equal to a bit's latent `k·2^-53` flips that bit, and the
    /// next f64 below it does not: the threshold sits exactly on the
    /// latent, with no rounding slack either way.
    #[test]
    fn boundary_rates_flip_exactly_at_the_latent(seed in any::<u64>(), wi in 0usize..1 << 40,
                                                 bit in 0u8..8) {
        let chip = UniformChip::new(seed);
        let p = chip.latent(wi, bit);
        if p == 0.0 {
            return; // rate 0 flips nothing by definition
        }
        let below = f64::from_bits(p.to_bits() - 1);
        for (rate, flips) in [(p, true), (below, false)] {
            let (fast, reference) = both_ways(chip, rate, &[0], 8, wi);
            prop_assert_eq!(&fast, &reference, "p = {:e}", rate);
            prop_assert_eq!(fast[0] >> bit & 1 == 1, flips, "p = {:e}", rate);
        }
    }
}
