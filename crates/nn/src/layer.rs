//! Fully-connected (dense) layer — the paper's Equation 3.
//!
//! Neuron `j` of layer `l` receives `s_j = Σ_i w_ji · y_i` from the layer on
//! its left and outputs `y_j = ϕ(s_j)`. Biases follow the paper's footnote 4:
//! a bias is the weight given to a *constant neuron* (value 1) of the
//! previous layer, so bias values are synaptic weights for the purposes of
//! the synapse-failure bounds, but constant neurons never fail and never
//! propagate upstream error.

use neurofail_tensor::{init::Init, Matrix};
use rand::Rng;

use crate::activation::Activation;

/// A dense layer: `out = ϕ(W·in + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    /// Weight matrix, `out_dim × in_dim` (`w_ji` at row `j`, column `i`).
    pub(crate) weights: Matrix,
    /// Bias per output neuron; empty when the layer has no biases.
    pub(crate) bias: Vec<f64>,
    /// The squashing function ϕ.
    pub(crate) activation: Activation,
}

impl DenseLayer {
    /// Create with explicit parameters.
    ///
    /// # Panics
    /// If `bias` is non-empty and its length differs from `weights.rows()`.
    pub fn new(weights: Matrix, bias: Vec<f64>, activation: Activation) -> Self {
        assert!(
            bias.is_empty() || bias.len() == weights.rows(),
            "DenseLayer: bias length {} != {} output neurons",
            bias.len(),
            weights.rows()
        );
        DenseLayer {
            weights,
            bias,
            activation,
        }
    }

    /// Random layer: `out_dim` neurons over `in_dim` inputs.
    pub fn random(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: Init,
        with_bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = init.matrix(out_dim, in_dim, rng);
        let bias = if with_bias {
            init.bias(out_dim, in_dim, rng)
        } else {
            Vec::new()
        };
        DenseLayer {
            weights,
            bias,
            activation,
        }
    }

    /// Input dimension (`N_{l-1}`, the number of left-layer neurons).
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension (`N_l`, the number of neurons in this layer).
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The activation ϕ.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutably borrow the weight matrix.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Borrow the bias vector (empty when bias-free).
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Synaptic weight from left-neuron `i` to neuron `j` of this layer.
    pub fn weight(&self, j: usize, i: usize) -> f64 {
        self.weights.get(j, i)
    }

    /// Whether this layer carries bias weights (a constant neuron on its
    /// left, in the paper's convention).
    pub fn has_bias(&self) -> bool {
        !self.bias.is_empty()
    }

    /// Compute only the pre-activation sums `s = W·in + b` (no allocation).
    ///
    /// # Panics
    /// If buffer lengths do not match the layer shape.
    pub fn sums_into(&self, input: &[f64], sums: &mut [f64]) {
        self.weights.gemv_into(input, sums);
        if !self.bias.is_empty() {
            for (s, b) in sums.iter_mut().zip(&self.bias) {
                *s += b;
            }
        }
    }

    /// Forward pass, writing pre-activation sums and outputs into
    /// caller-provided buffers (no allocation).
    ///
    /// # Panics
    /// If buffer lengths do not match the layer shape.
    pub fn forward_into(&self, input: &[f64], sums: &mut [f64], out: &mut [f64]) {
        self.sums_into(input, sums);
        assert_eq!(
            out.len(),
            sums.len(),
            "forward_into: output buffer mismatch"
        );
        for (o, &s) in out.iter_mut().zip(sums.iter()) {
            *o = self.activation.apply(s);
        }
    }

    /// Backward pass. Given this layer's `input`, its pre-activation `sums`,
    /// and the loss gradient `dout` w.r.t. its outputs:
    ///
    /// * accumulates `∂L/∂W` into `grad_w` and `∂L/∂b` into `grad_b`,
    /// * writes `∂L/∂input` into `dinput` (pass an empty slice to skip, e.g.
    ///   for the first layer).
    ///
    /// # Panics
    /// If buffer shapes do not match.
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        input: &[f64],
        sums: &[f64],
        dout: &[f64],
        grad_w: &mut Matrix,
        grad_b: &mut [f64],
        dsum_scratch: &mut [f64],
        dinput: &mut [f64],
    ) {
        let n = self.out_dim();
        assert_eq!(dout.len(), n, "backward: dout length mismatch");
        assert_eq!(dsum_scratch.len(), n, "backward: scratch length mismatch");
        for ((d, &g), &s) in dsum_scratch.iter_mut().zip(dout).zip(sums) {
            *d = g * self.activation.derivative(s);
        }
        grad_w.ger(1.0, dsum_scratch, input);
        if !grad_b.is_empty() {
            for (gb, &d) in grad_b.iter_mut().zip(dsum_scratch.iter()) {
                *gb += d;
            }
        }
        if !dinput.is_empty() {
            self.weights.gemv_t_into(dsum_scratch, dinput);
        }
    }

    /// Maximum absolute weight including bias weights — the paper's
    /// `w_m^(l)` over *all* synapses entering this layer (bias weights are
    /// synapses from the constant neuron).
    pub fn max_abs_weight(&self) -> f64 {
        self.weights
            .max_abs()
            .max(neurofail_tensor::ops::max_abs(&self.bias))
    }

    /// Maximum absolute weight excluding bias weights — `w_m^(l)` over
    /// synapses from *failable* (non-constant) neurons, which is the factor
    /// that multiplies propagated errors.
    pub fn max_abs_weight_nonbias(&self) -> f64 {
        self.weights.max_abs()
    }

    /// Scale all weights (and biases) by `factor` — the weight-magnitude
    /// knob of the Section V-C robustness/learning trade-off.
    pub fn scale_weights(&mut self, factor: f64) {
        self.weights.map_inplace(|w| w * factor);
        for b in &mut self.bias {
            *b *= factor;
        }
    }

    /// Retune the activation's Lipschitz constant (Figure 2 / Figure 3 knob).
    pub fn set_lipschitz(&mut self, k: f64) {
        self.activation = self.activation.with_lipschitz(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DenseLayer {
        // 2 neurons over 3 inputs, identity activation for exact arithmetic.
        DenseLayer::new(
            Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]),
            vec![0.25, -0.25],
            Activation::Identity,
        )
    }

    #[test]
    fn forward_matches_hand_computation() {
        let l = tiny();
        let mut sums = vec![0.0; 2];
        let mut out = vec![0.0; 2];
        l.forward_into(&[1.0, 2.0, 3.0], &mut sums, &mut out);
        assert_eq!(sums, vec![1.0 - 3.0 + 0.25, 3.0 - 0.25]);
        assert_eq!(out, sums); // identity activation
    }

    #[test]
    fn forward_applies_activation() {
        let mut l = tiny();
        l.activation = Activation::Sigmoid { k: 0.25 };
        let mut sums = vec![0.0; 2];
        let mut out = vec![0.0; 2];
        l.forward_into(&[0.0, 0.0, 0.0], &mut sums, &mut out);
        // sums = biases; sigmoid(bias) each.
        assert!((out[0] - 1.0 / (1.0 + (-0.25f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn dimensions_and_accessors() {
        let l = tiny();
        assert_eq!(l.in_dim(), 3);
        assert_eq!(l.out_dim(), 2);
        assert!(l.has_bias());
        assert_eq!(l.weight(1, 2), 0.5);
        assert_eq!(l.max_abs_weight_nonbias(), 1.0);
        assert_eq!(l.max_abs_weight(), 1.0);
    }

    #[test]
    fn bias_dominates_wm_when_larger() {
        let l = DenseLayer::new(
            Matrix::from_vec(1, 1, vec![0.5]),
            vec![-2.0],
            Activation::Identity,
        );
        assert_eq!(l.max_abs_weight(), 2.0);
        assert_eq!(l.max_abs_weight_nonbias(), 0.5);
    }

    #[test]
    fn scale_weights_scales_everything() {
        let mut l = tiny();
        l.scale_weights(2.0);
        assert_eq!(l.weight(0, 0), 2.0);
        assert_eq!(l.bias()[0], 0.5);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (j, i) index the layer, not just slices
    fn backward_gradients_match_finite_differences() {
        let mut l = tiny();
        l.activation = Activation::Sigmoid { k: 1.0 };
        let x = [0.3, -0.2, 0.7];
        // Loss: L = out[0] + 2*out[1] (linear, so dout = [1,2]).
        let loss = |l: &DenseLayer| {
            let mut s = vec![0.0; 2];
            let mut o = vec![0.0; 2];
            l.forward_into(&x, &mut s, &mut o);
            o[0] + 2.0 * o[1]
        };
        let mut sums = vec![0.0; 2];
        let mut out = vec![0.0; 2];
        l.forward_into(&x, &mut sums, &mut out);

        let mut gw = Matrix::zeros(2, 3);
        let mut gb = vec![0.0; 2];
        let mut scratch = vec![0.0; 2];
        let mut dx = vec![0.0; 3];
        l.backward(
            &x,
            &sums,
            &[1.0, 2.0],
            &mut gw,
            &mut gb,
            &mut scratch,
            &mut dx,
        );

        let h = 1e-6;
        for j in 0..2 {
            for i in 0..3 {
                let mut lp = l.clone();
                lp.weights_mut().set(j, i, l.weight(j, i) + h);
                let mut lm = l.clone();
                lm.weights_mut().set(j, i, l.weight(j, i) - h);
                let fd = (loss(&lp) - loss(&lm)) / (2.0 * h);
                assert!(
                    (gw.get(j, i) - fd).abs() < 1e-5,
                    "dW[{j}][{i}]: {} vs {fd}",
                    gw.get(j, i)
                );
            }
            let mut lp = l.clone();
            lp.bias[j] += h;
            let mut lm = l.clone();
            lm.bias[j] -= h;
            let fd = (loss(&lp) - loss(&lm)) / (2.0 * h);
            assert!((gb[j] - fd).abs() < 1e-5, "db[{j}]: {} vs {fd}", gb[j]);
        }
    }

    #[test]
    fn backward_dinput_matches_finite_differences() {
        let mut l = tiny();
        l.activation = Activation::Tanh { k: 1.5 };
        let x = [0.1, 0.2, -0.3];
        let mut sums = vec![0.0; 2];
        let mut out = vec![0.0; 2];
        l.forward_into(&x, &mut sums, &mut out);
        let mut gw = Matrix::zeros(2, 3);
        let mut gb = vec![0.0; 2];
        let mut scratch = vec![0.0; 2];
        let mut dx = vec![0.0; 3];
        l.backward(
            &x,
            &sums,
            &[1.0, -1.0],
            &mut gw,
            &mut gb,
            &mut scratch,
            &mut dx,
        );

        let h = 1e-6;
        let eval = |x: &[f64]| {
            let mut s = vec![0.0; 2];
            let mut o = vec![0.0; 2];
            l.forward_into(x, &mut s, &mut o);
            o[0] - o[1]
        };
        for i in 0..3 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (eval(&xp) - eval(&xm)) / (2.0 * h);
            assert!((dx[i] - fd).abs() < 1e-5, "dx[{i}]: {} vs {fd}", dx[i]);
        }
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn mismatched_bias_panics() {
        let _ = DenseLayer::new(Matrix::zeros(2, 2), vec![0.0; 3], Activation::Identity);
    }
}
