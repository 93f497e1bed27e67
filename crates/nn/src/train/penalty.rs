//! Fep-aware weight penalty — the paper's concluding research direction.
//!
//! Section VI: "An appealing research direction is to consider a specific
//! learning scheme taking the forward error propagation as an additional
//! minimization target." The Fep of Theorem 2 depends on the weights only
//! through the per-layer maxima `w_m^(l)`, which are not differentiable.
//! This module minimises the standard smooth surrogate: the log-sum-exp
//! soft-max of |w| per layer,
//!
//! `smax_s(w) = (1/s) · ln Σ_i exp(s·|w_i|)  →  max_i |w_i|  as s → ∞`,
//!
//! whose gradient concentrates on the largest-magnitude weights — SGD then
//! actively shaves the exact quantity the robustness bound multiplies.
//! Experiment E15 measures the robustness gained versus plain training.

/// Configuration of the Fep-aware penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FepPenalty {
    /// Penalty strength λ (0 disables).
    pub strength: f64,
    /// Soft-max sharpness `s`; larger values track `w_m` more closely but
    /// concentrate the gradient on fewer weights.
    pub sharpness: f64,
}

impl FepPenalty {
    /// A moderate default (λ = 1e-3, s = 16).
    pub fn moderate() -> Self {
        FepPenalty {
            strength: 1e-3,
            sharpness: 16.0,
        }
    }

    /// Penalty value for one layer's weights: `λ · smax_s(|w|)`.
    ///
    /// Stable evaluation: `smax_s(w) = m + (1/s)·ln Σ exp(s(|w_i| − m))`
    /// with `m = max |w_i|`.
    pub fn value(&self, weights: &[f64]) -> f64 {
        if weights.is_empty() || self.strength == 0.0 {
            return 0.0;
        }
        let m = weights.iter().fold(0.0f64, |a, &w| a.max(w.abs()));
        let z: f64 = weights
            .iter()
            .map(|&w| (self.sharpness * (w.abs() - m)).exp())
            .sum();
        self.strength * (m + z.ln() / self.sharpness)
    }

    /// Add `λ · ∂smax_s/∂w_i` to each gradient entry.
    ///
    /// `∂smax_s/∂w_i = softmax(s|w|)_i · sign(w_i)`.
    ///
    /// # Panics
    /// If `grad.len() != weights.len()`.
    pub fn add_grad(&self, weights: &[f64], grad: &mut [f64]) {
        assert_eq!(weights.len(), grad.len(), "FepPenalty: shape mismatch");
        if weights.is_empty() || self.strength == 0.0 {
            return;
        }
        let m = weights.iter().fold(0.0f64, |a, &w| a.max(w.abs()));
        let mut z = 0.0;
        for &w in weights {
            z += (self.sharpness * (w.abs() - m)).exp();
        }
        for (g, &w) in grad.iter_mut().zip(weights) {
            let p = (self.sharpness * (w.abs() - m)).exp() / z;
            *g += self.strength * p * w.signum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn value_approaches_max_abs_for_large_sharpness() {
        let w = [0.1, -0.9, 0.5];
        let p = FepPenalty {
            strength: 1.0,
            sharpness: 200.0,
        };
        assert!((p.value(&w) - 0.9).abs() < 0.01);
    }

    #[test]
    fn value_is_upper_bound_of_max_abs() {
        // log-sum-exp soft-max ≥ hard max, always.
        let w = [0.3, 0.3, -0.3];
        let p = FepPenalty {
            strength: 1.0,
            sharpness: 4.0,
        };
        assert!(p.value(&w) >= 0.3);
    }

    #[test]
    fn gradient_concentrates_on_dominant_weight() {
        let w = [0.05, 0.9, -0.1];
        let p = FepPenalty {
            strength: 1.0,
            sharpness: 50.0,
        };
        let mut g = vec![0.0; 3];
        p.add_grad(&w, &mut g);
        assert!(g[1] > 0.95, "dominant weight gets ~all the gradient: {g:?}");
        assert!(g[0].abs() < 0.05 && g[2].abs() < 0.05);
    }

    #[test]
    fn gradient_respects_sign() {
        let w = [-0.9, 0.9];
        let p = FepPenalty {
            strength: 1.0,
            sharpness: 8.0,
        };
        let mut g = vec![0.0; 2];
        p.add_grad(&w, &mut g);
        assert!(g[0] < 0.0 && g[1] > 0.0);
        assert!((g[0] + g[1]).abs() < 1e-12); // symmetric magnitudes
    }

    #[test]
    fn zero_strength_is_inert() {
        let p = FepPenalty {
            strength: 0.0,
            sharpness: 8.0,
        };
        assert_eq!(p.value(&[1.0, 2.0]), 0.0);
        let mut g = vec![0.5, -0.5];
        p.add_grad(&[1.0, 2.0], &mut g);
        assert_eq!(g, vec![0.5, -0.5]);
    }

    #[test]
    fn empty_weights_are_benign() {
        let p = FepPenalty::moderate();
        assert_eq!(p.value(&[]), 0.0);
        p.add_grad(&[], &mut []);
    }

    proptest! {
        /// The penalty gradient matches finite differences of the value.
        #[test]
        fn grad_matches_finite_difference(
            w in proptest::collection::vec(-2.0f64..2.0, 1..8),
            idx in 0usize..8,
        ) {
            let idx = idx % w.len();
            // Keep away from the non-differentiable point w_i = 0.
            prop_assume!(w[idx].abs() > 1e-3);
            let p = FepPenalty { strength: 0.7, sharpness: 6.0 };
            let mut g = vec![0.0; w.len()];
            p.add_grad(&w, &mut g);
            let h = 1e-6;
            let mut wp = w.clone();
            wp[idx] += h;
            let mut wm = w.clone();
            wm[idx] -= h;
            let fd = (p.value(&wp) - p.value(&wm)) / (2.0 * h);
            prop_assert!((g[idx] - fd).abs() < 1e-4, "{} vs {}", g[idx], fd);
        }

        /// Minimising the surrogate can only lower (never raise) w_m's bound.
        #[test]
        fn value_dominates_hard_max(
            w in proptest::collection::vec(-3.0f64..3.0, 1..16),
        ) {
            let p = FepPenalty { strength: 1.0, sharpness: 10.0 };
            let hard = w.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
            prop_assert!(p.value(&w) + 1e-12 >= hard);
        }
    }
}
