//! Squashing activation functions with explicit Lipschitz constants.
//!
//! The paper's bounds hinge on two analytic properties of the activation ϕ
//! (Section II-A): it is *bounded* (`sup |ϕ| ≤ 1` for the squashing
//! functions of the universality theorem) and *K-Lipschitz*. Both constants
//! are first-class here: [`Activation::lipschitz`] is the `K` that enters
//! every bound, and [`Activation::sup_abs`] is the `C` substitute for crash
//! faults (a crashed neuron's lost contribution is at most `sup |ϕ|`).
//!
//! The paper tunes K by composing the logistic function with a gain:
//! `x ↦ sigmoid(4Kx)` is exactly K-Lipschitz (Figure 2). That family is
//! [`Activation::Sigmoid`]; the same construction for `tanh` is
//! [`Activation::Tanh`]. [`Activation::Relu`] and [`Activation::Identity`]
//! are deliberately *outside* the paper's assumptions (unbounded), included
//! so experiments can show which bounds break without boundedness.

/// An elementwise activation function ϕ with known analytic constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// K-tuned logistic squashing function `ϕ(x) = 1 / (1 + e^(−4Kx))`.
    ///
    /// Strictly increasing, range `(0,1)`, limits 0 and 1, exactly
    /// `K`-Lipschitz (the plain logistic is ¼-Lipschitz; the gain `4K`
    /// retunes it — paper Section II-A and Figure 2).
    Sigmoid {
        /// The Lipschitz constant K (> 0).
        k: f64,
    },
    /// K-tuned hyperbolic tangent `ϕ(x) = tanh(Kx)`.
    ///
    /// Range `(−1,1)`, `K`-Lipschitz, `sup |ϕ| = 1`. The second popular
    /// squashing choice named by the paper.
    Tanh {
        /// The Lipschitz constant K (> 0).
        k: f64,
    },
    /// Rectified linear unit `max(0, x)`: 1-Lipschitz but **unbounded**, so
    /// the crash-fault substitution `C = sup ϕ` is unavailable
    /// ([`Activation::sup_abs`] returns `None`). Outside the paper's model.
    Relu,
    /// Identity (linear "activation"): 1-Lipschitz, unbounded. Used for
    /// linear layers in tests and ablations.
    Identity,
}

impl Activation {
    /// Evaluate ϕ(x).
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        match *self {
            Activation::Sigmoid { k } => sigmoid(4.0 * k * x),
            Activation::Tanh { k } => (k * x).tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
        }
    }

    /// Evaluate ϕ over a whole buffer: `out[i] = ϕ(xs[i])`.
    ///
    /// The batched engine's elementwise stage: squashing activations route
    /// through `neurofail-tensor`'s vectorisable polynomial kernels
    /// ([`neurofail_tensor::ops::vsigmoid`] / [`neurofail_tensor::ops::vtanh`]),
    /// which agree with the scalar [`Activation::apply`] path to ~1 ulp —
    /// far inside the batched engine's 1e-12 batch/scalar equivalence
    /// budget. Unbounded activations are exact in both paths.
    ///
    /// # Panics
    /// If `xs.len() != out.len()`.
    pub fn apply_slice(&self, xs: &[f64], out: &mut [f64]) {
        match *self {
            Activation::Sigmoid { k } => neurofail_tensor::ops::vsigmoid(4.0 * k, xs, out),
            Activation::Tanh { k } => neurofail_tensor::ops::vtanh(k, xs, out),
            Activation::Relu => neurofail_tensor::ops::map_into(xs, out, |x| x.max(0.0)),
            Activation::Identity => out.copy_from_slice(xs),
        }
    }

    /// Evaluate ϕ′ over a whole buffer: `out[i] = ϕ′(sums[i])`, given both
    /// the pre-activation `sums` and the already-computed activations `ys`
    /// (`ys[i] = ϕ(sums[i])`).
    ///
    /// The batched backward pass's elementwise stage. For the squashing
    /// activations ϕ′ is an algebraic function of ϕ — `4K·y(1−y)` for the
    /// K-tuned sigmoid, `K(1−y²)` for tanh — so reusing the forward pass's
    /// stored outputs eliminates every transcendental call from the
    /// backward sweep (the scalar path re-enters `libm` per neuron per
    /// example). Agreement with the scalar [`Activation::derivative`] is
    /// within ~1 ulp, inherited from the `vsigmoid`/`vtanh` forward
    /// kernels. `sums` is consulted only where ϕ′ genuinely needs the
    /// pre-activation (ReLU's kink). Saturated derivatives below
    /// [`neurofail_tensor::ops::SATURATION_FLUSH`] snap to exact 0, so dead
    /// neurons contribute exact-zero deltas instead of sub-`1e−150` noise
    /// that would drag the backward GEMMs into subnormal-assist stalls.
    ///
    /// # Panics
    /// If the three slice lengths differ.
    pub fn derivative_slice(&self, sums: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(sums.len(), out.len(), "derivative_slice: length mismatch");
        assert_eq!(ys.len(), out.len(), "derivative_slice: length mismatch");
        match *self {
            Activation::Sigmoid { k } => neurofail_tensor::ops::vsigmoid_deriv(4.0 * k, ys, out),
            Activation::Tanh { k } => neurofail_tensor::ops::vtanh_deriv(k, ys, out),
            Activation::Relu => {
                neurofail_tensor::ops::map_into(sums, out, |s| if s > 0.0 { 1.0 } else { 0.0 })
            }
            Activation::Identity => out.fill(1.0),
        }
    }

    /// Evaluate ϕ′(x) (for backpropagation), as a function of the
    /// *pre-activation* input x.
    #[inline]
    pub fn derivative(&self, x: f64) -> f64 {
        match *self {
            Activation::Sigmoid { k } => {
                let s = sigmoid(4.0 * k * x);
                4.0 * k * s * (1.0 - s)
            }
            Activation::Tanh { k } => {
                let t = (k * x).tanh();
                k * (1.0 - t * t)
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }

    /// The Lipschitz constant K of ϕ — the `K` in every bound of the paper.
    #[inline]
    pub fn lipschitz(&self) -> f64 {
        match *self {
            Activation::Sigmoid { k } | Activation::Tanh { k } => k,
            Activation::Relu | Activation::Identity => 1.0,
        }
    }

    /// `sup_x |ϕ(x)|` if ϕ is bounded, else `None`.
    ///
    /// For crash faults the paper replaces the transmission capacity `C` by
    /// this value ("C can be replaced by the maximum of the activation
    /// function (1 in case of sigmoid)", Section IV-B).
    #[inline]
    pub fn sup_abs(&self) -> Option<f64> {
        match *self {
            Activation::Sigmoid { .. } | Activation::Tanh { .. } => Some(1.0),
            Activation::Relu | Activation::Identity => None,
        }
    }

    /// Return the same activation family retuned to Lipschitz constant `k`.
    ///
    /// This is the paper's K-tuning knob (Figure 2; the robustness/learning
    /// trade-off of Section V-C sweeps it). No-op for the non-tunable
    /// unbounded activations.
    #[must_use]
    pub fn with_lipschitz(&self, k: f64) -> Activation {
        assert!(k > 0.0, "with_lipschitz: K must be positive, got {k}");
        match *self {
            Activation::Sigmoid { .. } => Activation::Sigmoid { k },
            Activation::Tanh { .. } => Activation::Tanh { k },
            other => other,
        }
    }

    /// Whether ϕ satisfies the universality-theorem hypotheses used by the
    /// paper (bounded, strictly increasing squashing function).
    pub fn is_squashing(&self) -> bool {
        matches!(self, Activation::Sigmoid { .. } | Activation::Tanh { .. })
    }

    /// Short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Sigmoid { .. } => "sigmoid",
            Activation::Tanh { .. } => "tanh",
            Activation::Relu => "relu",
            Activation::Identity => "identity",
        }
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    // Branch keeps exp() argument non-positive: no overflow for any x.
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sigmoid_basic_shape() {
        let a = Activation::Sigmoid { k: 0.25 }; // the plain logistic
        assert!((a.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(a.apply(10.0) > 0.99);
        assert!(a.apply(-10.0) < 0.01);
        // Plain logistic slope at 0 is 1/4.
        assert!((a.derivative(0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_k_tuning_slope_at_origin() {
        // The K-tuned sigmoid has slope exactly K at the origin (Figure 2).
        for k in [0.25, 0.5, 1.0, 2.0, 8.0] {
            let a = Activation::Sigmoid { k };
            assert!((a.derivative(0.0) - k).abs() < 1e-12, "k = {k}");
            assert_eq!(a.lipschitz(), k);
        }
    }

    #[test]
    fn sigmoid_no_overflow_at_extremes() {
        let a = Activation::Sigmoid { k: 100.0 };
        assert_eq!(a.apply(1e6), 1.0);
        assert_eq!(a.apply(-1e6), 0.0);
        assert!(a.apply(f64::MAX).is_finite());
        assert!(a.apply(f64::MIN).is_finite());
    }

    #[test]
    fn tanh_constants() {
        let a = Activation::Tanh { k: 2.0 };
        assert_eq!(a.apply(0.0), 0.0);
        assert!((a.derivative(0.0) - 2.0).abs() < 1e-12);
        assert_eq!(a.sup_abs(), Some(1.0));
    }

    #[test]
    fn relu_and_identity_are_unbounded() {
        assert_eq!(Activation::Relu.sup_abs(), None);
        assert_eq!(Activation::Identity.sup_abs(), None);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Identity.apply(-3.0), -3.0);
    }

    #[test]
    fn with_lipschitz_retunes_family() {
        let a = Activation::Sigmoid { k: 1.0 }.with_lipschitz(4.0);
        assert_eq!(a, Activation::Sigmoid { k: 4.0 });
        let r = Activation::Relu.with_lipschitz(4.0);
        assert_eq!(r, Activation::Relu);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn with_lipschitz_rejects_nonpositive() {
        let _ = Activation::Sigmoid { k: 1.0 }.with_lipschitz(0.0);
    }

    #[test]
    fn is_squashing_partition() {
        assert!(Activation::Sigmoid { k: 1.0 }.is_squashing());
        assert!(Activation::Tanh { k: 1.0 }.is_squashing());
        assert!(!Activation::Relu.is_squashing());
        assert!(!Activation::Identity.is_squashing());
    }

    #[test]
    fn apply_slice_matches_scalar_apply() {
        let xs: Vec<f64> = (-200..=200).map(|i| i as f64 * 0.07).collect();
        let mut out = vec![0.0; xs.len()];
        for a in [
            Activation::Sigmoid { k: 0.25 },
            Activation::Sigmoid { k: 2.0 },
            Activation::Tanh { k: 0.8 },
            Activation::Relu,
            Activation::Identity,
        ] {
            a.apply_slice(&xs, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                let want = a.apply(x);
                assert!((got - want).abs() <= 1e-14, "{a:?} at {x}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn derivative_slice_matches_scalar_derivative() {
        let sums: Vec<f64> = (-150..=150).map(|i| i as f64 * 0.09).collect();
        let mut ys = vec![0.0; sums.len()];
        let mut ds = vec![0.0; sums.len()];
        for a in [
            Activation::Sigmoid { k: 0.25 },
            Activation::Sigmoid { k: 3.0 },
            Activation::Tanh { k: 1.4 },
            Activation::Relu,
            Activation::Identity,
        ] {
            a.apply_slice(&sums, &mut ys);
            a.derivative_slice(&sums, &ys, &mut ds);
            for (&s, &got) in sums.iter().zip(&ds) {
                let want = a.derivative(s);
                assert!((got - want).abs() <= 1e-13, "{a:?} at {s}: {got} vs {want}");
            }
        }
    }

    proptest! {
        /// The defining property the bounds rely on: |ϕ(x) − ϕ(y)| ≤ K|x−y|.
        #[test]
        fn lipschitz_constant_is_respected(
            x in -50.0f64..50.0,
            y in -50.0f64..50.0,
            k in 0.1f64..8.0,
        ) {
            for a in [Activation::Sigmoid { k }, Activation::Tanh { k }] {
                let lhs = (a.apply(x) - a.apply(y)).abs();
                let rhs = a.lipschitz() * (x - y).abs();
                prop_assert!(lhs <= rhs + 1e-12, "{a:?}: {lhs} > {rhs}");
            }
        }

        /// Squashing activations stay within their advertised sup.
        #[test]
        fn boundedness(x in -1e6f64..1e6, k in 0.1f64..8.0) {
            for a in [Activation::Sigmoid { k }, Activation::Tanh { k }] {
                prop_assert!(a.apply(x).abs() <= a.sup_abs().unwrap());
            }
        }

        /// Strict monotonicity (hypothesis of the universality theorem).
        /// Domain kept where tanh/sigmoid have not saturated to the nearest
        /// representable double (|Kx| ≲ 8), where strictness is observable.
        #[test]
        fn strictly_increasing(x in -3.0f64..3.0, dx in 0.01f64..1.0, k in 0.1f64..2.0) {
            for a in [Activation::Sigmoid { k }, Activation::Tanh { k }] {
                prop_assert!(a.apply(x + dx) > a.apply(x));
            }
        }

        /// ϕ′ matches a central finite difference.
        #[test]
        fn derivative_matches_finite_difference(x in -5.0f64..5.0, k in 0.25f64..4.0) {
            let h = 1e-6;
            for a in [Activation::Sigmoid { k }, Activation::Tanh { k }] {
                let fd = (a.apply(x + h) - a.apply(x - h)) / (2.0 * h);
                prop_assert!((a.derivative(x) - fd).abs() < 1e-5, "{a:?} at {x}");
            }
        }
    }
}
