//! Convolutional layers — the Section VI extension.
//!
//! The paper closes by noting that convolutional networks have *limited
//! receptive fields* and *shared (periodic) weights*, so the `w_m^(l)`
//! factor in Theorems 2–3 "will run only on the R(l)-different values of the
//! weights from layer l−1 to layer l". These layers implement exactly that
//! structure: each output neuron is connected to a window of `R(l)`
//! left-neurons and all windows share one kernel per output channel.
//!
//! Valid (no-padding) correlation, stride 1 — the minimal structure needed
//! for the bound comparison in experiment E13.

use neurofail_tensor::{init::Init, Matrix};
use rand::Rng;

use crate::activation::Activation;

/// Reusable staging buffers for the batched im2col convolution kernels.
///
/// One scratch per conv layer lives inside the batch workspaces; dense
/// layers keep a `Default` (empty) entry. The matrices are lazily shaped
/// by the conv methods (resize only on shape change, so steady-state
/// passes perform no allocation) and their contents are recomputed every
/// pass — they carry no state across calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Conv1dBatchScratch {
    /// im2col lowering of the input batch: `(B·P) × W`, one sliding
    /// window per row (`P` positions, kernel width `W`).
    pub(crate) xcol: Matrix,
    /// Position-major GEMM output / transposed-delta staging: `(B·P) × C`.
    pub(crate) stage: Matrix,
    /// Input-gradient staging `(B·P) × W` before the col2im scatter-add.
    pub(crate) dxcol: Matrix,
}

/// Resize `m` only when the shape differs (a plain [`Matrix::resize`]
/// zero-fills unconditionally; the staging buffers are fully overwritten
/// each pass, so the fill would be wasted work).
fn ensure_shape(m: &mut Matrix, rows: usize, cols: usize) {
    if m.rows() != rows || m.cols() != cols {
        m.resize(rows, cols);
    }
}

/// 1-D convolutional layer: `channels` kernels of width `width` slide over a
/// length-`in_len` signal, producing `channels × (in_len − width + 1)`
/// neurons (channel-major flattening).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv1dLayer {
    /// One kernel per row: `channels × width`.
    pub(crate) kernels: Matrix,
    /// Per-channel bias (empty = no bias).
    pub(crate) bias: Vec<f64>,
    /// Squashing function ϕ.
    pub(crate) activation: Activation,
    /// Input signal length `N_{l-1}`.
    pub(crate) in_len: usize,
}

impl Conv1dLayer {
    /// Create with explicit kernels.
    ///
    /// # Panics
    /// If the kernel is wider than the input or the bias length mismatches.
    pub fn new(kernels: Matrix, bias: Vec<f64>, activation: Activation, in_len: usize) -> Self {
        assert!(
            kernels.cols() <= in_len,
            "Conv1d: kernel width {} exceeds input length {in_len}",
            kernels.cols()
        );
        assert!(
            bias.is_empty() || bias.len() == kernels.rows(),
            "Conv1d: bias length {} != {} channels",
            bias.len(),
            kernels.rows()
        );
        Conv1dLayer {
            kernels,
            bias,
            activation,
            in_len,
        }
    }

    /// Random kernels via `init`.
    pub fn random(
        in_len: usize,
        channels: usize,
        width: usize,
        activation: Activation,
        init: Init,
        with_bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let kernels = init.matrix(channels, width, rng);
        let bias = if with_bias {
            init.bias(channels, width, rng)
        } else {
            Vec::new()
        };
        Conv1dLayer::new(kernels, bias, activation, in_len)
    }

    /// Number of output positions per channel.
    pub fn positions(&self) -> usize {
        self.in_len - self.kernels.cols() + 1
    }

    /// Input dimension `N_{l-1}`.
    pub fn in_dim(&self) -> usize {
        self.in_len
    }

    /// Output dimension `N_l = channels × positions`.
    pub fn out_dim(&self) -> usize {
        self.kernels.rows() * self.positions()
    }

    /// Number of output channels.
    pub fn channels(&self) -> usize {
        self.kernels.rows()
    }

    /// Receptive-field size `R(l)` — the kernel width.
    pub fn receptive_field(&self) -> usize {
        self.kernels.cols()
    }

    /// The activation ϕ.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow the kernel matrix.
    pub fn kernels(&self) -> &Matrix {
        &self.kernels
    }

    /// Mutably borrow the kernel matrix.
    pub fn kernels_mut(&mut self) -> &mut Matrix {
        &mut self.kernels
    }

    /// Borrow the per-channel bias vector (empty when bias-free).
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Effective synaptic weight from input neuron `i` to output neuron `j`
    /// (0 outside the receptive field — the Section VI footnote's view of a
    /// convolutional layer as a sparse dense layer).
    pub fn weight(&self, j: usize, i: usize) -> f64 {
        let pos = j % self.positions();
        let ch = j / self.positions();
        if i >= pos && i < pos + self.kernels.cols() {
            self.kernels.get(ch, i - pos)
        } else {
            0.0
        }
    }

    /// Compute only the pre-activation sums (valid correlation + bias).
    ///
    /// # Panics
    /// If buffer lengths do not match the layer shape.
    pub fn sums_into(&self, input: &[f64], sums: &mut [f64]) {
        assert_eq!(input.len(), self.in_len, "Conv1d: input length mismatch");
        assert_eq!(sums.len(), self.out_dim(), "Conv1d: sums buffer mismatch");
        let positions = self.positions();
        for ch in 0..self.kernels.rows() {
            let kernel = self.kernels.row(ch);
            let b = self.bias.get(ch).copied().unwrap_or(0.0);
            let base = ch * positions;
            for t in 0..positions {
                sums[base + t] =
                    neurofail_tensor::ops::dot(kernel, &input[t..t + kernel.len()]) + b;
            }
        }
    }

    /// Forward pass into caller buffers (`sums`/`out` of length `out_dim`).
    pub fn forward_into(&self, input: &[f64], sums: &mut [f64], out: &mut [f64]) {
        self.sums_into(input, sums);
        assert_eq!(out.len(), self.out_dim(), "Conv1d: out buffer mismatch");
        for (o, &s) in out.iter_mut().zip(sums.iter()) {
            *o = self.activation.apply(s);
        }
    }

    /// Backward pass mirroring [`crate::layer::DenseLayer::backward`]:
    /// accumulates kernel/bias gradients, writes `∂L/∂input` into `dinput`
    /// (empty slice to skip).
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        input: &[f64],
        sums: &[f64],
        dout: &[f64],
        grad_k: &mut Matrix,
        grad_b: &mut [f64],
        dsum_scratch: &mut [f64],
        dinput: &mut [f64],
    ) {
        for ((d, &g), &s) in dsum_scratch.iter_mut().zip(dout).zip(sums) {
            *d = g * self.activation.derivative(s);
        }
        self.backward_from_dsum(input, dsum_scratch, grad_k, grad_b, dinput);
    }

    /// The parameter/input-gradient half of [`Conv1dLayer::backward`], given
    /// an already-computed `∂L/∂sums` — the entry point of the batched
    /// trainer, whose elementwise derivative stage runs once over the whole
    /// `B × N_l` buffer before the per-row accumulation here.
    pub fn backward_from_dsum(
        &self,
        input: &[f64],
        dsum: &[f64],
        grad_k: &mut Matrix,
        grad_b: &mut [f64],
        dinput: &mut [f64],
    ) {
        let positions = self.positions();
        let width = self.kernels.cols();
        if !dinput.is_empty() {
            dinput.fill(0.0);
        }
        for ch in 0..self.kernels.rows() {
            let base = ch * positions;
            for t in 0..positions {
                let d = dsum[base + t];
                if d == 0.0 {
                    continue;
                }
                for u in 0..width {
                    let gk = grad_k.get(ch, u) + d * input[t + u];
                    grad_k.set(ch, u, gk);
                    if !dinput.is_empty() {
                        dinput[t + u] += d * self.kernels.get(ch, u);
                    }
                }
                if !grad_b.is_empty() {
                    grad_b[ch] += d;
                }
            }
        }
    }

    /// Batched pre-activation sums via im2col: lower the `B × in_len`
    /// input batch to sliding windows and run **one** GEMM against the
    /// kernel matrix instead of `B · C · P` per-row dots.
    ///
    /// Numerics: each `sums[bi][ch·P + t]` is
    /// `dot_fma(window, kernel_ch) + bias[ch]` — a pure function of that
    /// input row's window and the kernel, bitwise independent of the batch
    /// size and of the other rows (the append/suffix checkpoint contracts
    /// rest on this, exactly as for the dense `matmul_nt_into` path). The
    /// accumulation order is [`neurofail_tensor::ops::dot_fma`]'s, shared
    /// by every batched engine; the scalar per-sample path
    /// ([`Conv1dLayer::sums_into`]) keeps its 4-accumulator `dot` order
    /// inside the documented ≤ 1e-12 batch/scalar envelope.
    ///
    /// # Panics
    /// If `input` is not `B × in_len` or `sums` is not `B × out_dim`.
    pub fn forward_batch_sums(
        &self,
        input: &Matrix,
        sums: &mut Matrix,
        scratch: &mut Conv1dBatchScratch,
    ) {
        let batch = input.rows();
        assert_eq!(input.cols(), self.in_len, "Conv1d: input width mismatch");
        assert_eq!(sums.rows(), batch, "Conv1d: sums rows mismatch");
        assert_eq!(sums.cols(), self.out_dim(), "Conv1d: sums cols mismatch");
        let p = self.positions();
        let w = self.kernels.cols();
        let c = self.kernels.rows();
        if w <= 16 {
            // Narrow kernels (the common case): the im2col staging copy
            // costs more than it saves, because the GEMM's K dimension is
            // tiny. Take each window dot directly off the input row —
            // `dot_fma(window, kernel_ch)` is exactly the value the tiny-K
            // GEMM path produces per element (all backends reduce to
            // `dot_fma` bitwise for K ≤ 16), so this branch is invisible
            // to the numerics contract above.
            for bi in 0..batch {
                let row = input.row(bi);
                let s_row = sums.row_mut(bi);
                for ch in 0..c {
                    let kernel = self.kernels.row(ch);
                    let b = self.bias.get(ch).copied().unwrap_or(0.0);
                    for t in 0..p {
                        s_row[ch * p + t] =
                            neurofail_tensor::ops::dot_fma(&row[t..t + w], kernel) + b;
                    }
                }
            }
            return;
        }
        ensure_shape(&mut scratch.xcol, batch * p, w);
        ensure_shape(&mut scratch.stage, batch * p, c);
        for bi in 0..batch {
            let row = input.row(bi);
            for t in 0..p {
                scratch
                    .xcol
                    .row_mut(bi * p + t)
                    .copy_from_slice(&row[t..t + w]);
            }
        }
        scratch
            .xcol
            .matmul_nt_into(&self.kernels, &mut scratch.stage);
        // Scatter back to channel-major, walking `stage` contiguously
        // (rows are position-major, `c` wide).
        let stage = scratch.stage.data();
        for bi in 0..batch {
            let s_row = sums.row_mut(bi);
            for t in 0..p {
                let st = &stage[(bi * p + t) * c..(bi * p + t + 1) * c];
                for (ch, &v) in st.iter().enumerate() {
                    s_row[ch * p + t] = v + self.bias.get(ch).copied().unwrap_or(0.0);
                }
            }
        }
    }

    /// Batched form of [`Conv1dLayer::backward_from_dsum`]: one
    /// transposed-accumulate GEMM for the kernel gradient
    /// (`grad_k += stagedᵀ · xcol`, batch-then-position rows in strictly
    /// increasing order) and one GEMM + col2im scatter-add for the input
    /// gradient, instead of per-row scalar loops. `dinput` is fully
    /// overwritten when present; pass `None` to skip the input gradient
    /// (the first layer needs none).
    ///
    /// # Panics
    /// If buffer shapes do not match the layer/batch.
    pub fn backward_from_dsum_batch(
        &self,
        input: &Matrix,
        dsum: &Matrix,
        grad_k: &mut Matrix,
        grad_b: &mut [f64],
        dinput: Option<&mut Matrix>,
        scratch: &mut Conv1dBatchScratch,
    ) {
        let batch = input.rows();
        assert_eq!(input.cols(), self.in_len, "Conv1d: input width mismatch");
        assert_eq!(dsum.rows(), batch, "Conv1d: dsum rows mismatch");
        assert_eq!(dsum.cols(), self.out_dim(), "Conv1d: dsum cols mismatch");
        let p = self.positions();
        let w = self.kernels.cols();
        let c = self.kernels.rows();
        // Re-lower the input (self-contained: correct whether or not a
        // forward pass populated this scratch since the last reshape).
        ensure_shape(&mut scratch.xcol, batch * p, w);
        ensure_shape(&mut scratch.stage, batch * p, c);
        for bi in 0..batch {
            let row = input.row(bi);
            for t in 0..p {
                scratch
                    .xcol
                    .row_mut(bi * p + t)
                    .copy_from_slice(&row[t..t + w]);
            }
        }
        // Transpose the channel-major deltas to position-major staging.
        for bi in 0..batch {
            let d_row = dsum.row(bi);
            for t in 0..p {
                let s_row = scratch.stage.row_mut(bi * p + t);
                for (ch, s) in s_row.iter_mut().enumerate() {
                    *s = d_row[ch * p + t];
                }
            }
        }
        // grad_k[ch][u] accumulates over (bi, t) in strictly increasing
        // row order — the per-sample loop's order, one FMA per term.
        scratch.stage.matmul_tn_acc_into(&scratch.xcol, grad_k);
        if !grad_b.is_empty() {
            for bi in 0..batch {
                let d_row = dsum.row(bi);
                for (ch, gb) in grad_b.iter_mut().enumerate() {
                    for t in 0..p {
                        *gb += d_row[ch * p + t];
                    }
                }
            }
        }
        if let Some(dinput) = dinput {
            assert_eq!(dinput.rows(), batch, "Conv1d: dinput rows mismatch");
            assert_eq!(dinput.cols(), self.in_len, "Conv1d: dinput cols mismatch");
            ensure_shape(&mut scratch.dxcol, batch * p, w);
            scratch.stage.matmul_into(&self.kernels, &mut scratch.dxcol);
            dinput.data_mut().fill(0.0);
            for bi in 0..batch {
                let d_row = dinput.row_mut(bi);
                for t in 0..p {
                    let dx = scratch.dxcol.row(bi * p + t);
                    for (u, &v) in dx.iter().enumerate() {
                        d_row[t + u] += v;
                    }
                }
            }
        }
    }

    /// `w_m^(l)` over the `R(l)` distinct kernel values plus biases.
    pub fn max_abs_weight(&self) -> f64 {
        self.kernels
            .max_abs()
            .max(neurofail_tensor::ops::max_abs(&self.bias))
    }

    /// `w_m^(l)` over kernel values only (excluding constant-neuron bias
    /// synapses).
    pub fn max_abs_weight_nonbias(&self) -> f64 {
        self.kernels.max_abs()
    }

    /// Scale kernels and biases.
    pub fn scale_weights(&mut self, factor: f64) {
        self.kernels.map_inplace(|w| w * factor);
        for b in &mut self.bias {
            *b *= factor;
        }
    }

    /// Retune the activation's Lipschitz constant.
    pub fn set_lipschitz(&mut self, k: f64) {
        self.activation = self.activation.with_lipschitz(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_detector() -> Conv1dLayer {
        // One channel, kernel [1, -1]: discrete derivative, identity ϕ.
        Conv1dLayer::new(
            Matrix::from_vec(1, 2, vec![1.0, -1.0]),
            vec![],
            Activation::Identity,
            5,
        )
    }

    #[test]
    fn forward_computes_valid_correlation() {
        let l = edge_detector();
        assert_eq!(l.out_dim(), 4);
        let mut sums = vec![0.0; 4];
        let mut out = vec![0.0; 4];
        l.forward_into(&[1.0, 2.0, 4.0, 4.0, 3.0], &mut sums, &mut out);
        assert_eq!(out, vec![-1.0, -2.0, 0.0, 1.0]);
    }

    #[test]
    fn multi_channel_layout_is_channel_major() {
        let l = Conv1dLayer::new(
            Matrix::from_vec(2, 1, vec![1.0, 2.0]), // ch0 = id, ch1 = double
            vec![],
            Activation::Identity,
            3,
        );
        assert_eq!(l.out_dim(), 6);
        let mut sums = vec![0.0; 6];
        let mut out = vec![0.0; 6];
        l.forward_into(&[1.0, 2.0, 3.0], &mut sums, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes the layer view, not just a slice
    fn weight_view_matches_sparse_dense_equivalent() {
        let l = edge_detector();
        // Output j=1 covers inputs 1..=2 with kernel [1,-1].
        assert_eq!(l.weight(1, 0), 0.0);
        assert_eq!(l.weight(1, 1), 1.0);
        assert_eq!(l.weight(1, 2), -1.0);
        assert_eq!(l.weight(1, 3), 0.0);
        // Forward must equal the dense matrix built from `weight`.
        let x = [0.5, -1.0, 2.0, 0.0, 1.0];
        let mut sums = vec![0.0; 4];
        let mut out = vec![0.0; 4];
        l.forward_into(&x, &mut sums, &mut out);
        for j in 0..4 {
            let dense: f64 = (0..5).map(|i| l.weight(j, i) * x[i]).sum();
            assert!((out[j] - dense).abs() < 1e-12);
        }
    }

    #[test]
    fn receptive_field_and_wm() {
        let l = Conv1dLayer::new(
            Matrix::from_vec(2, 3, vec![0.1, -0.7, 0.2, 0.3, 0.4, -0.2]),
            vec![0.9, -0.1],
            Activation::Sigmoid { k: 1.0 },
            10,
        );
        assert_eq!(l.receptive_field(), 3);
        assert_eq!(l.max_abs_weight_nonbias(), 0.7);
        assert_eq!(l.max_abs_weight(), 0.9); // bias dominates
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (ch, u) index the kernel matrix
    fn backward_matches_finite_differences() {
        let l = Conv1dLayer::new(
            Matrix::from_vec(2, 2, vec![0.4, -0.3, 0.2, 0.6]),
            vec![0.1, -0.2],
            Activation::Sigmoid { k: 1.0 },
            4,
        );
        let x = [0.2, 0.8, -0.5, 0.3];
        let dout: Vec<f64> = (0..l.out_dim()).map(|j| 1.0 + j as f64 * 0.5).collect();
        let loss = |layer: &Conv1dLayer, x: &[f64]| -> f64 {
            let mut s = vec![0.0; layer.out_dim()];
            let mut o = vec![0.0; layer.out_dim()];
            layer.forward_into(x, &mut s, &mut o);
            o.iter().zip(&dout).map(|(oi, di)| oi * di).sum()
        };
        let mut sums = vec![0.0; l.out_dim()];
        let mut out = vec![0.0; l.out_dim()];
        l.forward_into(&x, &mut sums, &mut out);
        let mut gk = Matrix::zeros(2, 2);
        let mut gb = vec![0.0; 2];
        let mut scratch = vec![0.0; l.out_dim()];
        let mut dx = vec![0.0; 4];
        l.backward(&x, &sums, &dout, &mut gk, &mut gb, &mut scratch, &mut dx);

        let h = 1e-6;
        for ch in 0..2 {
            for u in 0..2 {
                let mut lp = l.clone();
                lp.kernels.set(ch, u, l.kernels.get(ch, u) + h);
                let mut lm = l.clone();
                lm.kernels.set(ch, u, l.kernels.get(ch, u) - h);
                let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                assert!((gk.get(ch, u) - fd).abs() < 1e-5, "dK[{ch}][{u}]");
            }
            let mut lp = l.clone();
            lp.bias[ch] += h;
            let mut lm = l.clone();
            lm.bias[ch] -= h;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!((gb[ch] - fd).abs() < 1e-5, "db[{ch}]");
        }
        for i in 0..4 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
            assert!((dx[i] - fd).abs() < 1e-5, "dx[{i}]");
        }
    }

    #[test]
    #[should_panic(expected = "kernel width")]
    fn oversized_kernel_panics() {
        let _ = Conv1dLayer::new(Matrix::zeros(1, 6), vec![], Activation::Identity, 5);
    }
}
