//! Uniform fixed-point quantisation.
//!
//! The memory-reduction strategies Theorem 5 explains (Proteus, paper ref. 31) store
//! weights and activations at reduced precision. The model here is the
//! standard symmetric fixed-point quantiser: values are rounded to the
//! nearest multiple of `step = 2^(−frac_bits)` and clamped to
//! `±(2^int_bits − step)`. Inside the representable range the rounding
//! error is at most `step / 2` — the `λ` that Theorem 5 propagates.

/// A symmetric fixed-point format `Q(int_bits).(frac_bits)` (plus sign).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPoint {
    /// Integer bits (range `±2^int_bits`).
    pub int_bits: u32,
    /// Fractional bits (resolution `2^(−frac_bits)`).
    pub frac_bits: u32,
}

impl FixedPoint {
    /// A pure-fractional format for values in `[−1, 1]` (activations).
    pub fn unit(frac_bits: u32) -> Self {
        FixedPoint {
            int_bits: 0,
            frac_bits,
        }
    }

    /// The quantisation step `2^(−frac_bits)`.
    pub fn step(&self) -> f64 {
        (2.0f64).powi(-(self.frac_bits as i32))
    }

    /// Worst-case rounding error for in-range values: `step / 2`.
    pub fn max_error(&self) -> f64 {
        self.step() / 2.0
    }

    /// Largest representable magnitude.
    pub fn max_value(&self) -> f64 {
        (2.0f64).powi(self.int_bits as i32) - self.step()
    }

    /// Total storage bits per value (sign + integer + fraction).
    pub fn bits(&self) -> u32 {
        1 + self.int_bits + self.frac_bits
    }

    /// Quantise one value (round-to-nearest-even, clamp to range).
    pub fn quantize(&self, x: f64) -> f64 {
        let step = self.step();
        let clamped = x.clamp(-self.max_value(), self.max_value());
        let q = (clamped / step).round_ties_even() * step;
        // Rounding may step just past the clamp edge; re-clamp.
        q.clamp(-self.max_value(), self.max_value())
    }

    /// Quantise a slice in place.
    pub fn quantize_slice(&self, xs: &mut [f64]) {
        for x in xs {
            *x = self.quantize(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn step_and_bits() {
        let q = FixedPoint::unit(8);
        assert_eq!(q.step(), 1.0 / 256.0);
        assert_eq!(q.bits(), 9);
        assert_eq!(q.max_error(), 1.0 / 512.0);
        let q2 = FixedPoint {
            int_bits: 3,
            frac_bits: 4,
        };
        assert_eq!(q2.bits(), 8);
        assert_eq!(q2.max_value(), 8.0 - 1.0 / 16.0);
    }

    #[test]
    fn quantize_known_values() {
        let q = FixedPoint::unit(2); // step 0.25
        assert_eq!(q.quantize(0.3), 0.25);
        assert_eq!(q.quantize(0.4), 0.5);
        assert_eq!(q.quantize(-0.3), -0.25);
        assert_eq!(q.quantize(0.0), 0.0);
        // Ties round to even multiples.
        assert_eq!(q.quantize(0.125), 0.0);
        assert_eq!(q.quantize(0.375), 0.5);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let q = FixedPoint::unit(4);
        assert_eq!(q.quantize(5.0), q.max_value());
        assert_eq!(q.quantize(-5.0), -q.max_value());
    }

    proptest! {
        /// In-range rounding error never exceeds step/2 (Theorem 5's λ).
        #[test]
        fn error_bounded_by_half_step(x in -0.9f64..0.9, bits in 1u32..16) {
            let q = FixedPoint::unit(bits);
            // The guarantee holds inside the representable range only
            // (unit(1) cannot represent 0.9 — clamping dominates there).
            prop_assume!(x.abs() <= q.max_value());
            prop_assert!((q.quantize(x) - x).abs() <= q.max_error() + 1e-15);
        }

        /// Quantisation is idempotent.
        #[test]
        fn idempotent(x in -100.0f64..100.0, bits in 1u32..12, int_bits in 0u32..5) {
            let q = FixedPoint { int_bits, frac_bits: bits };
            let once = q.quantize(x);
            prop_assert_eq!(q.quantize(once), once);
        }

        /// Monotone: x ≤ y ⇒ q(x) ≤ q(y).
        #[test]
        fn monotone(x in -2.0f64..2.0, dx in 0.0f64..2.0, bits in 1u32..12) {
            let q = FixedPoint { int_bits: 2, frac_bits: bits };
            prop_assert!(q.quantize(x) <= q.quantize(x + dx));
        }
    }
}
