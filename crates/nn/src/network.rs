//! The multilayer network of the paper's Section II, made executable.
//!
//! An [`Mlp`] is `L` layers of neurons plus the *output node*: following the
//! paper, input nodes and the output node are **clients** of the network,
//! not part of it. The output node is linear (Equation 1):
//! `F_neu(X) = Σ_i w^(L+1)_i · y^(L)_i` — its incoming synapses *are* part
//! of the network (they carry the `w^(L+1)` weights and can fail), but it
//! performs no activation.
//!
//! Fault injection hooks into the forward pass through the [`Tap`] trait:
//! the executor in `neurofail-inject` observes and overwrites layer sums and
//! outputs exactly where the paper's Definition 2 places failures.

use neurofail_tensor::{ops, Matrix};

use crate::activation::Activation;
use crate::conv::Conv1dLayer;
use crate::layer::DenseLayer;

/// One layer of neurons (paper layer `l ∈ {1, …, L}`).
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Fully connected layer.
    Dense(DenseLayer),
    /// 1-D convolutional layer (Section VI extension).
    Conv1d(Conv1dLayer),
}

impl Layer {
    /// Input dimension `N_{l-1}` (or `d` for the first layer).
    pub fn in_dim(&self) -> usize {
        match self {
            Layer::Dense(l) => l.in_dim(),
            Layer::Conv1d(l) => l.in_dim(),
        }
    }

    /// Number of neurons `N_l` in this layer.
    pub fn out_dim(&self) -> usize {
        match self {
            Layer::Dense(l) => l.out_dim(),
            Layer::Conv1d(l) => l.out_dim(),
        }
    }

    /// The activation ϕ of this layer.
    pub fn activation(&self) -> Activation {
        match self {
            Layer::Dense(l) => l.activation(),
            Layer::Conv1d(l) => l.activation(),
        }
    }

    /// Synaptic weight from left-neuron `i` into neuron `j` (0 where no
    /// synapse exists, e.g. outside a convolutional receptive field).
    pub fn weight(&self, j: usize, i: usize) -> f64 {
        match self {
            Layer::Dense(l) => l.weight(j, i),
            Layer::Conv1d(l) => l.weight(j, i),
        }
    }

    /// `w_m^(l)`: max |w| over all synapses entering this layer, bias
    /// (constant-neuron) synapses included.
    pub fn max_abs_weight(&self) -> f64 {
        match self {
            Layer::Dense(l) => l.max_abs_weight(),
            Layer::Conv1d(l) => l.max_abs_weight(),
        }
    }

    /// `w_m^(l)` excluding bias synapses (the error-propagation factor:
    /// constant neurons carry no upstream error).
    pub fn max_abs_weight_nonbias(&self) -> f64 {
        match self {
            Layer::Dense(l) => l.max_abs_weight_nonbias(),
            Layer::Conv1d(l) => l.max_abs_weight_nonbias(),
        }
    }

    /// Receptive-field size `R(l)` for convolutional layers, `None` for
    /// dense layers (full fan-in).
    pub fn receptive_field(&self) -> Option<usize> {
        match self {
            Layer::Dense(_) => None,
            Layer::Conv1d(l) => Some(l.receptive_field()),
        }
    }

    /// Forward into caller buffers.
    pub fn forward_into(&self, input: &[f64], sums: &mut [f64], out: &mut [f64]) {
        match self {
            Layer::Dense(l) => l.forward_into(input, sums, out),
            Layer::Conv1d(l) => l.forward_into(input, sums, out),
        }
    }

    /// Scale all weights by `factor`.
    pub fn scale_weights(&mut self, factor: f64) {
        match self {
            Layer::Dense(l) => l.scale_weights(factor),
            Layer::Conv1d(l) => l.scale_weights(factor),
        }
    }

    /// Retune the activation Lipschitz constant.
    pub fn set_lipschitz(&mut self, k: f64) {
        match self {
            Layer::Dense(l) => l.set_lipschitz(k),
            Layer::Conv1d(l) => l.set_lipschitz(k),
        }
    }
}

/// Observer/mutator hooks over a forward pass.
///
/// Layer indices are 0-based in code: code layer `l` is the paper's layer
/// `l+1`. All hooks default to no-ops, so implementations override only the
/// failure sites they model:
///
/// * crash/Byzantine **neurons** (paper Definition 2) overwrite entries of
///   `outputs` in [`Tap::post_activation`];
/// * faulty **synapses** between hidden layers (Theorem 4) perturb entries
///   of `sums` in [`Tap::pre_activation`], using `input` (the left layer's
///   values, after its own faults) to compute the nominal contribution they
///   replace;
/// * faulty synapses into the **output node** perturb the final dot product
///   in [`Tap::output_sum`].
pub trait Tap {
    /// Called for each layer after its weighted sums are computed, before
    /// the activation. `input` is the layer's (possibly already-faulted)
    /// input vector.
    fn pre_activation(&mut self, layer: usize, input: &[f64], sums: &mut [f64]) {
        let _ = (layer, input, sums);
    }

    /// Called for each layer after the activation is applied.
    fn post_activation(&mut self, layer: usize, outputs: &mut [f64]) {
        let _ = (layer, outputs);
    }

    /// Called once with the output node's sum `Σ w^(L+1)_i y^(L)_i` before
    /// it is returned. `last_out` is the (possibly faulted) last layer.
    fn output_sum(&mut self, last_out: &[f64], sum: &mut f64) {
        let _ = (last_out, sum);
    }
}

/// The trivial tap: observes nothing, mutates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTap;

impl Tap for NoTap {}

/// Reusable per-layer buffers for allocation-free forward passes.
///
/// After a pass, `sums[l]` and `outs[l]` hold layer `l`'s pre-activations
/// and outputs — the trace fault-injection and boosting experiments read.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Pre-activation sums per layer.
    pub sums: Vec<Vec<f64>>,
    /// Post-activation outputs per layer.
    pub outs: Vec<Vec<f64>>,
}

impl Workspace {
    /// Allocate buffers matching `net`'s shape.
    pub fn for_net(net: &Mlp) -> Self {
        Workspace {
            sums: net.layers.iter().map(|l| vec![0.0; l.out_dim()]).collect(),
            outs: net.layers.iter().map(|l| vec![0.0; l.out_dim()]).collect(),
        }
    }
}

/// Batched observer/mutator hooks over [`Mlp::forward_batch_tapped`].
///
/// The batched mirror of [`Tap`]: every hook fires once per layer for the
/// whole batch, with matrices of shape `B × N_l` (row `b` is batch item
/// `b`). The interposition points are identical to the scalar path —
/// post-GEMM pre-activation sums, post-activation outputs, and the output
/// node's per-item sums — so a fault model written against [`Tap`]
/// translates mechanically.
pub trait BatchTap {
    /// After layer `layer`'s weighted sums are computed, before the
    /// activation. `input` is the layer's (possibly already-faulted) input
    /// batch.
    fn pre_activation(&mut self, layer: usize, input: &Matrix, sums: &mut Matrix) {
        let _ = (layer, input, sums);
    }

    /// After layer `layer`'s activation is applied.
    fn post_activation(&mut self, layer: usize, outputs: &mut Matrix) {
        let _ = (layer, outputs);
    }

    /// Once, with the output node's sums (`sums[b]` for batch item `b`)
    /// before they are returned. `last_out` is the (possibly faulted) last
    /// layer batch.
    fn output_sum(&mut self, last_out: &Matrix, sums: &mut [f64]) {
        let _ = (last_out, sums);
    }
}

/// The trivial batch tap: observes nothing, mutates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBatchTap;

impl BatchTap for NoBatchTap {}

/// Reusable buffers for allocation-free **batched** forward passes.
///
/// Holds per-layer `B × N_l` sum/output matrices. Buffers are shape-only
/// state (no network parameters are cached), so a workspace never goes
/// stale when the network's weights change. [`Mlp::forward_batch_tapped`]
/// reshapes the workspace automatically when the batch size or network
/// shape differs, so one workspace can serve searches with varying batch
/// sizes without reallocation in the steady state.
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    /// Batch size the buffers are shaped for.
    batch: usize,
    /// Pre-activation sums per layer (`B × N_l`).
    pub sums: Vec<Matrix>,
    /// Post-activation outputs per layer (`B × N_l`).
    pub outs: Vec<Matrix>,
    /// Per-layer im2col staging for convolutional layers (a `Default`
    /// placeholder for dense layers). Pure scratch: recomputed every pass,
    /// never carries state between calls, so `append_from` only has to
    /// keep the vector length in sync.
    pub conv: Vec<crate::conv::Conv1dBatchScratch>,
}

impl BatchWorkspace {
    /// Allocate buffers for `batch` inputs through `net`.
    pub fn for_net(net: &Mlp, batch: usize) -> Self {
        let mut ws = BatchWorkspace::default();
        ws.reshape(net, batch);
        ws
    }

    /// The batch size the workspace is currently shaped for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Resize all buffers for `batch` inputs through `net`, reusing the
    /// existing allocations where they are large enough.
    ///
    /// Long-lived pipelines that evaluate the same network under varying
    /// batch sizes — tolerance searches, and especially the serving
    /// engine's flush loop, whose coalesced batch size changes on every
    /// flush — hit this on most calls; after the workspace has grown to
    /// the largest batch seen, reshaping is allocation-free.
    pub fn reshape(&mut self, net: &Mlp, batch: usize) {
        self.batch = batch;
        let nl = net.layers.len();
        self.sums.resize_with(nl, || Matrix::zeros(0, 0));
        self.outs.resize_with(nl, || Matrix::zeros(0, 0));
        self.conv.resize_with(nl, Default::default);
        for (l, layer) in net.layers.iter().enumerate() {
            self.sums[l].resize(batch, layer.out_dim());
            self.outs[l].resize(batch, layer.out_dim());
        }
    }

    /// Splice another workspace's rows under this one's, layer by layer —
    /// the checkpoint-append primitive of the input-incremental engine.
    /// `other` must be shaped for the same network (same layer count and
    /// widths); its per-layer sum/output rows land below the rows already
    /// held here, and the batch size grows accordingly.
    ///
    /// By the batched engine's per-row independence, a checkpoint grown
    /// this way from per-chunk nominal passes is **bitwise identical** to
    /// one filled by a single full-batch pass over the concatenated
    /// inputs — which is what makes checkpoints appendable at all (see
    /// [`Mlp::extend_batch`]).
    ///
    /// # Panics
    /// If the layer counts or widths differ.
    pub fn append_from(&mut self, other: &BatchWorkspace) {
        assert_eq!(
            self.sums.len(),
            other.sums.len(),
            "append_from: layer count mismatch"
        );
        for l in 0..self.sums.len() {
            self.sums[l].append_rows(&other.sums[l]);
            self.outs[l].append_rows(&other.outs[l]);
        }
        // The im2col scratch holds no checkpoint state; just keep one
        // (possibly still default-shaped) entry per layer.
        self.conv.resize_with(self.sums.len(), Default::default);
        self.batch += other.batch;
    }

    /// Whether the buffers match `(net, batch)`.
    fn fits(&self, net: &Mlp, batch: usize) -> bool {
        self.batch == batch
            && self.sums.len() == net.layers.len()
            && self.conv.len() == net.layers.len()
            && self
                .sums
                .iter()
                .zip(&net.layers)
                .all(|(m, l)| m.rows() == batch && m.cols() == l.out_dim())
    }
}

/// A feed-forward multilayer network with a linear output client node.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    pub(crate) layers: Vec<Layer>,
    /// Output-node weights `w^(L+1)` (one per last-layer neuron).
    pub(crate) output_weights: Vec<f64>,
    /// Output-node bias (0 in the paper's model; differences `F − F_fail`
    /// cancel it, so bounds are unaffected).
    pub(crate) output_bias: f64,
}

impl Mlp {
    /// Assemble from parts.
    ///
    /// # Panics
    /// If layer dimensions do not chain, or the output weight count does not
    /// match the last layer, or `layers` is empty.
    pub fn new(layers: Vec<Layer>, output_weights: Vec<f64>, output_bias: f64) -> Self {
        assert!(!layers.is_empty(), "Mlp: need at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].out_dim(),
                w[1].in_dim(),
                "Mlp: layer dimension mismatch {} -> {}",
                w[0].out_dim(),
                w[1].in_dim()
            );
        }
        assert_eq!(
            output_weights.len(),
            layers.last().unwrap().out_dim(),
            "Mlp: output weight count mismatch"
        );
        Mlp {
            layers,
            output_weights,
            output_bias,
        }
    }

    /// Input dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Number of layers `L` (excluding input/output clients).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Neurons per layer `(N_1, …, N_L)`.
    pub fn widths(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.out_dim()).collect()
    }

    /// Total number of neurons `N = Σ N_l`.
    pub fn neuron_count(&self) -> usize {
        self.layers.iter().map(|l| l.out_dim()).sum()
    }

    /// Borrow the layers (code-index `0..L`, paper layers `1..=L`).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutably borrow the layers.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Output-node weights `w^(L+1)`.
    pub fn output_weights(&self) -> &[f64] {
        &self.output_weights
    }

    /// Mutably borrow the output-node weights.
    pub fn output_weights_mut(&mut self) -> &mut [f64] {
        &mut self.output_weights
    }

    /// Output-node bias.
    pub fn output_bias(&self) -> f64 {
        self.output_bias
    }

    /// `w_m^(L+1)`: max |w| over the output node's incoming synapses.
    pub fn output_max_abs_weight(&self) -> f64 {
        ops::max_abs(&self.output_weights)
    }

    /// Forward pass through a reusable workspace, with a [`Tap`].
    ///
    /// # Panics
    /// If `x.len() != input_dim()` or `ws` shapes mismatch.
    pub fn forward_tapped(&self, x: &[f64], ws: &mut Workspace, tap: &mut impl Tap) -> f64 {
        assert_eq!(
            x.len(),
            self.input_dim(),
            "forward: input dimension mismatch"
        );
        let nl = self.layers.len();
        for l in 0..nl {
            let (prev_outs, rest) = ws.outs.split_at_mut(l);
            let input: &[f64] = if l == 0 { x } else { &prev_outs[l - 1] };
            let sums = &mut ws.sums[l];
            let out = &mut rest[0];
            // Compute sums and activations separately so taps interpose at
            // both failure sites of the paper's model.
            match &self.layers[l] {
                Layer::Dense(d) => d.sums_into(input, sums),
                Layer::Conv1d(c) => c.sums_into(input, sums),
            }
            tap.pre_activation(l, input, sums);
            let act = self.layers[l].activation();
            for (o, &s) in out.iter_mut().zip(sums.iter()) {
                *o = act.apply(s);
            }
            tap.post_activation(l, out);
        }
        let last = &ws.outs[nl - 1];
        let mut sum = ops::dot(&self.output_weights, last) + self.output_bias;
        tap.output_sum(last, &mut sum);
        sum
    }

    /// Forward pass through a reusable workspace (no taps).
    pub fn forward_ws(&self, x: &[f64], ws: &mut Workspace) -> f64 {
        self.forward_tapped(x, ws, &mut NoTap)
    }

    /// Batched forward pass: `B` inputs (rows of `xs`) → `B` outputs, with
    /// a [`BatchTap`] interposing at the same sites as the scalar path.
    ///
    /// Per layer, dense weighted sums are one GEMM (`S = X · Wᵀ` through
    /// [`Matrix::matmul_nt_into`], dispatched to the active
    /// [`neurofail_tensor::backend`] — portable tiled kernels or SIMD
    /// microkernels selected at startup) and the activation is one
    /// vectorised elementwise sweep over the `B × N_l` buffer
    /// ([`crate::activation::Activation::apply_slice`], also dispatched);
    /// convolutional layers lower the batch to im2col windows and run one
    /// GEMM over all positions of all rows, sharing the batched activation
    /// sweep. This is where campaign throughput comes from: the GEMM
    /// reuses each streamed weight row across register-blocked batch
    /// tiles and the activation sweep replaces `B · N` opaque `libm`
    /// calls with a vectorised polynomial.
    ///
    /// Numerical contract: each output row is a pure function of
    /// `(xs.row(b), self)` — bitwise independent of the batch size and of
    /// every other row — so batched campaigns are exactly reproducible for
    /// any trial batching and thread count. Results agree with the scalar
    /// [`Mlp::forward_ws`] to ≤ 1e-12 on workspace-scale networks (the
    /// GEMM accumulates in `k`-order where the scalar path uses the 4-way
    /// unrolled dot, and squashing activations use the polynomial kernels).
    ///
    /// # Panics
    /// If `xs.cols() != input_dim()`.
    pub fn forward_batch_tapped(
        &self,
        xs: &Matrix,
        ws: &mut BatchWorkspace,
        tap: &mut impl BatchTap,
    ) -> Vec<f64> {
        assert_eq!(
            xs.cols(),
            self.input_dim(),
            "forward_batch: input dimension mismatch"
        );
        self.resume_batch_from(xs, ws, tap, 0)
    }

    /// Resume a batched (tapped) pass at layer `from_layer`, reading the
    /// layer-`from_layer − 1` activations from `resume_input` instead of
    /// recomputing the prefix.
    ///
    /// This is the suffix half of the checkpoint/resume pipeline: a
    /// [`BatchWorkspace`] filled by a **nominal** [`Mlp::forward_batch`]
    /// is the checkpoint, and `resume_input` is its
    /// `outs[from_layer − 1]` matrix (or the raw input batch for
    /// `from_layer == 0`, which makes this identical to
    /// [`Mlp::forward_batch_tapped`]). Layers `from_layer..L` are
    /// recomputed into `ws` with `tap` interposing, then the output
    /// combination runs as usual; for `from_layer == L` no layer is
    /// recomputed and only the output dot product (plus the `output_sum`
    /// tap) runs over `resume_input` — O(B · N_L) total.
    ///
    /// Bitwise contract: if `tap` leaves layers `< from_layer` untouched
    /// (e.g. a fault plan whose first faulty layer is `≥ from_layer`),
    /// the result is **bitwise identical** to a full
    /// [`Mlp::forward_batch_tapped`] pass over the inputs that produced
    /// the checkpoint, because unfaulted prefix layers recompute exactly
    /// the nominal values with exactly the same kernels. Aliasing rule:
    /// `resume_input` is typically borrowed from a *different* workspace
    /// than `ws` (the borrow checker enforces they are distinct buffers);
    /// the checkpoint workspace is only read, never written, so one
    /// checkpoint serves any number of resumed suffixes.
    ///
    /// # Panics
    /// If `from_layer > depth()` or `resume_input`'s column count does not
    /// match layer `from_layer`'s input dimension (`input_dim()` for 0,
    /// `N_L` for `depth()`).
    pub fn resume_batch_from(
        &self,
        resume_input: &Matrix,
        ws: &mut BatchWorkspace,
        tap: &mut impl BatchTap,
        from_layer: usize,
    ) -> Vec<f64> {
        let nl = self.layers.len();
        assert!(
            from_layer <= nl,
            "resume_batch_from: from_layer {from_layer} > depth {nl}"
        );
        let expected_cols = if from_layer == 0 {
            self.input_dim()
        } else {
            self.layers[from_layer - 1].out_dim()
        };
        assert_eq!(
            resume_input.cols(),
            expected_cols,
            "resume_batch_from: resume_input dimension mismatch at layer {from_layer}"
        );
        if !ws.fits(self, resume_input.rows()) {
            ws.reshape(self, resume_input.rows());
        }
        self.resume_layers(Some(resume_input), ws, tap, from_layer)
    }

    /// Resume a batched (tapped) pass **after** layer `layer`'s
    /// activation: copy `layer_outputs` (its `B × N_layer` outputs) into
    /// `ws`, fire the layer's post-activation hook on the copy, then
    /// recompute layers `layer + 1..L` and the output stage exactly as
    /// [`Mlp::resume_batch_from`] does. For `layer == depth() − 1` no
    /// layer is recomputed: the hook fires, then only the output stage
    /// runs.
    ///
    /// This is the suffix engine's second start. A fault plan whose first
    /// faulty layer `f` only overwrites outputs (neuron faults, no
    /// synapse into `f`) leaves layer `f`'s sums and activations nominal,
    /// so a **nominal** checkpoint's `outs[f]` is exactly what a full
    /// tapped pass would hand the hook, and the result is **bitwise
    /// identical** to [`Mlp::forward_batch_tapped`] over the inputs that
    /// produced the checkpoint — one GEMM and one activation sweep fewer
    /// than resuming at `f`. Layer `layer`'s pre-activation hook does not
    /// fire, and `ws.sums[layer]` keeps whatever it held: like every
    /// layer below the split, it is not part of the pass.
    ///
    /// # Panics
    /// If `layer >= depth()` or `layer_outputs.cols()` is not `N_layer`.
    pub fn resume_batch_after(
        &self,
        layer_outputs: &Matrix,
        ws: &mut BatchWorkspace,
        tap: &mut impl BatchTap,
        layer: usize,
    ) -> Vec<f64> {
        let nl = self.layers.len();
        assert!(
            layer < nl,
            "resume_batch_after: layer {layer} >= depth {nl}"
        );
        assert_eq!(
            layer_outputs.cols(),
            self.layers[layer].out_dim(),
            "resume_batch_after: layer_outputs dimension mismatch at layer {layer}"
        );
        if !ws.fits(self, layer_outputs.rows()) {
            ws.reshape(self, layer_outputs.rows());
        }
        let out = &mut ws.outs[layer];
        out.data_mut().copy_from_slice(layer_outputs.data());
        tap.post_activation(layer, out);
        self.resume_layers(None, ws, tap, layer + 1)
    }

    /// The layer loop both resume entries share: layers `from_layer..L`
    /// with `tap` interposing, then the output stage. Layer `from_layer`
    /// reads `input`, or `ws.outs[from_layer − 1]` when `input` is `None`
    /// (the post-activation start, which filled it). `ws` is already
    /// shaped for the batch.
    fn resume_layers(
        &self,
        input: Option<&Matrix>,
        ws: &mut BatchWorkspace,
        tap: &mut impl BatchTap,
        from_layer: usize,
    ) -> Vec<f64> {
        let nl = self.layers.len();
        for l in from_layer..nl {
            let (prev_outs, rest_outs) = ws.outs.split_at_mut(l);
            let input: &Matrix = match input {
                Some(m) if l == from_layer => m,
                _ => &prev_outs[l - 1],
            };
            let sums = &mut ws.sums[l];
            let out = &mut rest_outs[0];
            match &self.layers[l] {
                Layer::Dense(d) => {
                    input.matmul_nt_into(d.weights(), sums);
                    if d.has_bias() {
                        let bias = d.bias();
                        for row in sums.data_mut().chunks_exact_mut(bias.len()) {
                            ops::axpy(1.0, bias, row);
                        }
                    }
                }
                Layer::Conv1d(c) => {
                    // Batched im2col: one GEMM over all windows of all
                    // rows. Each sums element stays a pure function of
                    // its own input row (see `forward_batch_sums`), so
                    // the appendable-checkpoint contract is unchanged.
                    c.forward_batch_sums(input, sums, &mut ws.conv[l]);
                }
            }
            tap.pre_activation(l, input, sums);
            self.layers[l]
                .activation()
                .apply_slice(sums.data(), out.data_mut());
            tap.post_activation(l, out);
        }
        let last: &Matrix = match input {
            Some(m) if from_layer == nl => m,
            _ => &ws.outs[nl - 1],
        };
        let mut y = vec![self.output_bias; last.rows()];
        for (yb, row) in y.iter_mut().zip(last.rows_iter()) {
            *yb += ops::dot(&self.output_weights, row);
        }
        tap.output_sum(last, &mut y);
        y
    }

    /// Grow a batched checkpoint **in place** by only the new input rows:
    /// run the (tapped) forward pass over `new_rows` alone, splice the
    /// resulting per-layer sums/outputs under the rows `ws` already holds,
    /// and return the new rows' outputs.
    ///
    /// This is the input-incremental transpose of the suffix engine's
    /// plan-incremental sharing: where [`Mlp::resume_batch_from`] reuses a
    /// checkpoint across *plans*, `extend_batch` reuses it across *input
    /// arrivals* — a stream of chunks pays one pass per chunk over just
    /// that chunk, never a fresh pass over everything seen so far.
    ///
    /// Bitwise contract: because each output row of a batched pass is a
    /// pure function of `(row, net)` — independent of batch size and of
    /// every other row (determinism contract 1) — the grown workspace and
    /// returned outputs are **bitwise identical** to recomputing the full
    /// concatenated batch from scratch (`tests/incremental_equivalence.rs`
    /// asserts this across chunkings, fault kinds and `Parallelism`
    /// policies).
    ///
    /// `ws` must either hold a previous pass over this network (any batch
    /// size, 0 included) or be default-constructed (treated as an empty
    /// checkpoint). The scratch-taking variant is
    /// [`Mlp::extend_batch_with`]; this convenience allocates a fresh
    /// scratch per call.
    ///
    /// # Panics
    /// If `new_rows.cols() != input_dim()` or `ws` holds a pass over a
    /// different network shape.
    pub fn extend_batch(
        &self,
        ws: &mut BatchWorkspace,
        tap: &mut impl BatchTap,
        new_rows: &Matrix,
    ) -> Vec<f64> {
        let mut scratch = BatchWorkspace::default();
        self.extend_batch_with(ws, &mut scratch, tap, new_rows)
    }

    /// [`Mlp::extend_batch`] with a caller-provided scratch workspace —
    /// allocation-free once the scratch has grown to the largest chunk
    /// seen (the checkpoint cache's prefix extension keeps one). After the
    /// call, `scratch` holds the *chunk's* nominal taps: a valid
    /// checkpoint over `new_rows` alone.
    pub fn extend_batch_with(
        &self,
        ws: &mut BatchWorkspace,
        scratch: &mut BatchWorkspace,
        tap: &mut impl BatchTap,
        new_rows: &Matrix,
    ) -> Vec<f64> {
        assert_eq!(
            new_rows.cols(),
            self.input_dim(),
            "extend_batch: input dimension mismatch"
        );
        let held = ws.batch;
        if !ws.fits(self, held) {
            assert_eq!(
                held, 0,
                "extend_batch: checkpoint workspace does not match the network"
            );
            ws.reshape(self, 0);
        }
        let ys = self.resume_batch_from(new_rows, scratch, tap, 0);
        ws.append_from(scratch);
        ys
    }

    /// Batched forward pass without taps: `B` inputs → `B` outputs.
    ///
    /// # Example
    /// ```
    /// use neurofail_data::rng::rng;
    /// use neurofail_nn::activation::Activation;
    /// use neurofail_nn::{BatchWorkspace, MlpBuilder, Workspace};
    /// use neurofail_tensor::{init::Init, Matrix};
    ///
    /// let net = MlpBuilder::new(2)
    ///     .dense(6, Activation::Sigmoid { k: 1.0 })
    ///     .init(Init::Xavier)
    ///     .build(&mut rng(1));
    ///
    /// // One GEMM + one activation sweep per layer for all four inputs.
    /// let xs = Matrix::from_fn(4, 2, |r, c| 0.1 * (r + c) as f64);
    /// let mut ws = BatchWorkspace::for_net(&net, 4);
    /// let ys = net.forward_batch(&xs, &mut ws);
    ///
    /// // Each row agrees with the scalar engine to ≤ 1e-12.
    /// let mut sws = Workspace::for_net(&net);
    /// for (b, &y) in ys.iter().enumerate() {
    ///     assert!((y - net.forward_ws(xs.row(b), &mut sws)).abs() <= 1e-12);
    /// }
    /// ```
    pub fn forward_batch(&self, xs: &Matrix, ws: &mut BatchWorkspace) -> Vec<f64> {
        self.forward_batch_tapped(xs, ws, &mut NoBatchTap)
    }

    /// Convenience forward pass that allocates a fresh workspace.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut ws = Workspace::for_net(self);
        self.forward_ws(x, &mut ws)
    }

    /// Retune every layer's activation to Lipschitz constant `k`
    /// (the Figure 3 sweep: same weights, different K).
    pub fn set_lipschitz(&mut self, k: f64) {
        for l in &mut self.layers {
            l.set_lipschitz(k);
        }
    }

    /// The largest Lipschitz constant over layers — the network-level `K`
    /// entering the bounds.
    pub fn lipschitz(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.activation().lipschitz())
            .fold(0.0, f64::max)
    }

    /// Scale every hidden-layer weight and the output weights by `factor`
    /// (the weight-magnitude trade-off knob of Section V-C).
    pub fn scale_all_weights(&mut self, factor: f64) {
        for l in &mut self.layers {
            l.scale_weights(factor);
        }
        for w in &mut self.output_weights {
            *w *= factor;
        }
    }

    /// Max |w| over the entire network (hidden and output synapses).
    pub fn max_abs_weight(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.max_abs_weight())
            .fold(self.output_max_abs_weight(), f64::max)
    }

    /// Over-provision by neuron replication — Corollary 1 made literal.
    ///
    /// Every neuron is cloned `m` times; a clone keeps its template's
    /// incoming weights and bias, and all weights *out of* a replicated
    /// layer are divided by `m`. Because the `m` clones broadcast identical
    /// values, the represented function is **exactly** preserved (up to
    /// floating-point summation order), while every weight statistic the
    /// bounds consume (`w_m^(l)` for `l ≥ 2` and `w_m^(L+1)`) shrinks by
    /// `1/m` and every `N_l` grows by `m` — which is precisely the
    /// `NetworkProfile::widened` transform, so fault tolerance scales ~`m`.
    ///
    /// Dense layers only.
    ///
    /// # Panics
    /// If `m == 0` or the network contains convolutional layers (their
    /// weight sharing does not survive per-neuron replication).
    #[must_use]
    pub fn replicate(&self, m: usize) -> Mlp {
        assert!(m >= 1, "replicate: factor must be at least 1");
        use crate::layer::DenseLayer;
        let mut layers = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate() {
            let Layer::Dense(d) = layer else {
                panic!("replicate: layer {li} is not dense");
            };
            let (rows, cols) = (d.out_dim(), d.in_dim());
            // First layer keeps its input fan-in; later layers see m× more
            // (replicated) senders with weights scaled by 1/m.
            let (new_cols, scale) = if li == 0 {
                (cols, 1.0)
            } else {
                (cols * m, 1.0 / m as f64)
            };
            let weights = neurofail_tensor::Matrix::from_fn(rows * m, new_cols, |r, c| {
                let template_row = r / m;
                let template_col = if li == 0 { c } else { c / m };
                d.weight(template_row, template_col) * scale
            });
            let bias: Vec<f64> = if d.has_bias() {
                (0..rows * m).map(|r| d.bias()[r / m]).collect()
            } else {
                Vec::new()
            };
            layers.push(Layer::Dense(DenseLayer::new(weights, bias, d.activation())));
        }
        let last = self.output_weights.len();
        let output_weights: Vec<f64> = (0..last * m)
            .map(|i| self.output_weights[i / m] / m as f64)
            .collect();
        Mlp::new(layers, output_weights, self.output_bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_tensor::Matrix;

    /// 2-2-1 network with identity activations for exact arithmetic.
    fn linear_net() -> Mlp {
        Mlp::new(
            vec![
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
                    vec![],
                    Activation::Identity,
                )),
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 0.5]),
                    vec![],
                    Activation::Identity,
                )),
            ],
            vec![1.0, 2.0],
            0.0,
        )
    }

    #[test]
    fn forward_matches_hand_computation() {
        let net = linear_net();
        // x = [1, 1]: layer1 = [3, 7]; layer2 = [-4, 5]; out = -4 + 10 = 6.
        assert_eq!(net.forward(&[1.0, 1.0]), 6.0);
    }

    #[test]
    fn shape_accessors() {
        let net = linear_net();
        assert_eq!(net.input_dim(), 2);
        assert_eq!(net.depth(), 2);
        assert_eq!(net.widths(), vec![2, 2]);
        assert_eq!(net.neuron_count(), 4);
        assert_eq!(net.output_max_abs_weight(), 2.0);
        assert_eq!(net.max_abs_weight(), 4.0);
    }

    #[test]
    fn workspace_records_trace() {
        let net = linear_net();
        let mut ws = Workspace::for_net(&net);
        let _ = net.forward_ws(&[1.0, 1.0], &mut ws);
        assert_eq!(ws.outs[0], vec![3.0, 7.0]);
        assert_eq!(ws.outs[1], vec![-4.0, 5.0]);
        assert_eq!(ws.sums[1], vec![-4.0, 5.0]);
    }

    struct CrashFirstNeuron {
        layer: usize,
    }
    impl Tap for CrashFirstNeuron {
        fn post_activation(&mut self, layer: usize, outputs: &mut [f64]) {
            if layer == self.layer {
                outputs[0] = 0.0;
            }
        }
    }

    #[test]
    fn tap_can_crash_a_neuron() {
        let net = linear_net();
        let mut ws = Workspace::for_net(&net);
        // Crash neuron 0 of layer 0: layer1 = [0, 7]; layer2 = [-7, 3.5];
        // out = -7 + 7 = 0.
        let y = net.forward_tapped(&[1.0, 1.0], &mut ws, &mut CrashFirstNeuron { layer: 0 });
        assert_eq!(y, 0.0);
    }

    struct AddToSums {
        delta: f64,
    }
    impl Tap for AddToSums {
        fn pre_activation(&mut self, layer: usize, _input: &[f64], sums: &mut [f64]) {
            if layer == 1 {
                sums[1] += self.delta;
            }
        }
    }

    #[test]
    fn tap_can_perturb_pre_activation() {
        let net = linear_net();
        let mut ws = Workspace::for_net(&net);
        let y = net.forward_tapped(&[1.0, 1.0], &mut ws, &mut AddToSums { delta: 10.0 });
        // layer2[1] = 5 + 10 = 15; out = -4 + 30 = 26.
        assert_eq!(y, 26.0);
    }

    struct HijackOutput;
    impl Tap for HijackOutput {
        fn output_sum(&mut self, _last: &[f64], sum: &mut f64) {
            *sum += 100.0;
        }
    }

    #[test]
    fn tap_can_perturb_output_sum() {
        let net = linear_net();
        let mut ws = Workspace::for_net(&net);
        assert_eq!(
            net.forward_tapped(&[1.0, 1.0], &mut ws, &mut HijackOutput),
            106.0
        );
    }

    #[test]
    fn set_lipschitz_retunes_all_layers() {
        let mut net = linear_net();
        net.layers_mut()[0].set_lipschitz(1.0); // identity: no-op
        net.set_lipschitz(3.0);
        // Identity layers are untouched but report K = 1.
        assert_eq!(net.lipschitz(), 1.0);

        let mut sig = Mlp::new(
            vec![Layer::Dense(DenseLayer::new(
                Matrix::from_vec(1, 1, vec![1.0]),
                vec![],
                Activation::Sigmoid { k: 1.0 },
            ))],
            vec![1.0],
            0.0,
        );
        sig.set_lipschitz(2.5);
        assert_eq!(sig.lipschitz(), 2.5);
    }

    #[test]
    fn scale_all_weights_scales_output_too() {
        let mut net = linear_net();
        net.scale_all_weights(0.5);
        assert_eq!(net.max_abs_weight(), 2.0);
        assert_eq!(net.output_weights(), &[0.5, 1.0]);
        // Linear network: output scales by 0.5 per hidden layer and output
        // stage = 0.125 overall.
        assert_eq!(net.forward(&[1.0, 1.0]), 0.75);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_layers_panic() {
        let _ = Mlp::new(
            vec![
                Layer::Dense(DenseLayer::new(
                    Matrix::zeros(3, 2),
                    vec![],
                    Activation::Identity,
                )),
                Layer::Dense(DenseLayer::new(
                    Matrix::zeros(2, 4),
                    vec![],
                    Activation::Identity,
                )),
            ],
            vec![0.0, 0.0],
            0.0,
        );
    }

    #[test]
    fn mixed_conv_dense_network_runs() {
        use crate::conv::Conv1dLayer;
        let net = Mlp::new(
            vec![
                Layer::Conv1d(Conv1dLayer::new(
                    Matrix::from_vec(1, 2, vec![1.0, 1.0]),
                    vec![],
                    Activation::Identity,
                    4,
                )),
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
                    vec![],
                    Activation::Identity,
                )),
            ],
            vec![1.0, 1.0],
            0.0,
        );
        // conv([1,2,3,4]) with kernel [1,1] = [3,5,7]; dense picks [3,7]; sum 10.
        assert_eq!(net.forward(&[1.0, 2.0, 3.0, 4.0]), 10.0);
    }

    #[test]
    fn replicate_preserves_the_function() {
        use crate::activation::Activation;
        let net = Mlp::new(
            vec![
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(2, 2, vec![0.7, -0.3, 0.2, 0.9]),
                    vec![0.1, -0.2],
                    Activation::Sigmoid { k: 1.5 },
                )),
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(2, 2, vec![0.5, 0.4, -0.6, 0.3]),
                    vec![0.0, 0.05],
                    Activation::Tanh { k: 0.8 },
                )),
            ],
            vec![0.8, -0.5],
            0.1,
        );
        for m in [1usize, 2, 3, 5] {
            let wide = net.replicate(m);
            assert_eq!(wide.widths(), vec![2 * m, 2 * m]);
            for x in [[0.2, 0.9], [0.0, 0.0], [1.0, 0.3]] {
                let a = net.forward(&x);
                let b = wide.forward(&x);
                assert!((a - b).abs() < 1e-12, "m={m}, {a} vs {b}");
            }
            // Weight statistics transform as Corollary 1 requires: the
            // propagation-relevant maxima shrink by 1/m.
            if m > 1 {
                match (&net.layers()[1], &wide.layers()[1]) {
                    (Layer::Dense(orig), Layer::Dense(rep)) => {
                        assert!(
                            (rep.max_abs_weight_nonbias() * m as f64
                                - orig.max_abs_weight_nonbias())
                            .abs()
                                < 1e-12
                        );
                    }
                    _ => unreachable!(),
                }
                assert!(
                    (wide.output_max_abs_weight() * m as f64 - net.output_max_abs_weight()).abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not dense")]
    fn replicate_rejects_conv_layers() {
        use crate::conv::Conv1dLayer;
        let net = Mlp::new(
            vec![Layer::Conv1d(Conv1dLayer::new(
                Matrix::from_vec(1, 2, vec![1.0, 1.0]),
                vec![],
                Activation::Identity,
                4,
            ))],
            vec![1.0; 3],
            0.0,
        );
        let _ = net.replicate(2);
    }

    #[test]
    fn forward_batch_matches_scalar_exactly_on_linear_net() {
        // Identity activations: both paths do the same exact additions in
        // different groupings over only two terms, so results are exact.
        let net = linear_net();
        let xs = Matrix::from_vec(3, 2, vec![1.0, 1.0, 0.5, -0.25, 0.0, 2.0]);
        let mut bws = BatchWorkspace::for_net(&net, 3);
        let ys = net.forward_batch(&xs, &mut bws);
        let mut ws = Workspace::for_net(&net);
        for (b, &y) in ys.iter().enumerate() {
            assert_eq!(y, net.forward_ws(xs.row(b), &mut ws), "row {b}");
        }
        // The workspace traces match the scalar ones row-wise.
        assert_eq!(bws.outs[0].row(0), &[3.0, 7.0]);
        assert_eq!(bws.sums[1].row(0), &[-4.0, 5.0]);
    }

    #[test]
    fn forward_batch_rows_are_independent_of_batch_composition() {
        let net = linear_net();
        let xs = Matrix::from_fn(7, 2, |r, c| (r as f64 * 0.3 - 1.0) * (c as f64 + 0.5));
        let mut bws = BatchWorkspace::for_net(&net, 7);
        let full = net.forward_batch(&xs, &mut bws);
        for (b, &expected) in full.iter().enumerate() {
            let single = Matrix::from_vec(1, 2, xs.row(b).to_vec());
            let one = net.forward_batch(&single, &mut bws);
            assert_eq!(one, vec![expected], "row {b}");
        }
    }

    #[test]
    fn forward_batch_handles_empty_and_singleton_batches() {
        let net = linear_net();
        let mut bws = BatchWorkspace::default();
        let empty = net.forward_batch(&Matrix::zeros(0, 2), &mut bws);
        assert!(empty.is_empty());
        let one = net.forward_batch(&Matrix::from_vec(1, 2, vec![1.0, 1.0]), &mut bws);
        assert_eq!(one, vec![6.0]);
    }

    #[test]
    fn forward_batch_agrees_with_scalar_through_squashing_activations() {
        let mut net = linear_net();
        net.layers_mut()[0].set_lipschitz(1.0);
        for l in net.layers_mut() {
            if let Layer::Dense(d) = l {
                d.activation = Activation::Sigmoid { k: 1.3 };
            }
        }
        let xs = Matrix::from_fn(9, 2, |r, c| r as f64 * 0.2 - 0.7 + c as f64 * 0.05);
        let mut bws = BatchWorkspace::for_net(&net, 9);
        let ys = net.forward_batch(&xs, &mut bws);
        let mut ws = Workspace::for_net(&net);
        for (b, &y) in ys.iter().enumerate() {
            let scalar = net.forward_ws(xs.row(b), &mut ws);
            assert!((y - scalar).abs() <= 1e-12, "row {b}: {y} vs {scalar}");
        }
    }

    #[test]
    fn forward_batch_mixed_conv_dense() {
        use crate::conv::Conv1dLayer;
        let net = Mlp::new(
            vec![
                Layer::Conv1d(Conv1dLayer::new(
                    Matrix::from_vec(1, 2, vec![1.0, 1.0]),
                    vec![],
                    Activation::Identity,
                    4,
                )),
                Layer::Dense(DenseLayer::new(
                    Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
                    vec![0.5, -0.5],
                    Activation::Identity,
                )),
            ],
            vec![1.0, 1.0],
            0.0,
        );
        let xs = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 0.0, 1.0]);
        let mut bws = BatchWorkspace::for_net(&net, 2);
        let ys = net.forward_batch(&xs, &mut bws);
        let mut ws = Workspace::for_net(&net);
        for (b, &y) in ys.iter().enumerate() {
            assert_eq!(y, net.forward_ws(xs.row(b), &mut ws), "row {b}");
        }
    }

    struct BatchCrashFirst {
        layer: usize,
    }
    impl BatchTap for BatchCrashFirst {
        fn post_activation(&mut self, layer: usize, outputs: &mut Matrix) {
            if layer == self.layer {
                for b in 0..outputs.rows() {
                    outputs.set(b, 0, 0.0);
                }
            }
        }
    }

    #[test]
    fn batch_tap_interposes_like_scalar_tap() {
        let net = linear_net();
        let xs = Matrix::from_vec(2, 2, vec![1.0, 1.0, 0.5, 0.5]);
        let mut bws = BatchWorkspace::for_net(&net, 2);
        let ys = net.forward_batch_tapped(&xs, &mut bws, &mut BatchCrashFirst { layer: 0 });
        let mut ws = Workspace::for_net(&net);
        for (b, &y) in ys.iter().enumerate() {
            let scalar = net.forward_tapped(xs.row(b), &mut ws, &mut CrashFirstNeuron { layer: 0 });
            assert_eq!(y, scalar, "row {b}");
        }
    }

    /// What a resume from layer `from` reads out of a nominal checkpoint
    /// over `xs`: the inputs for 0, layer `from − 1`'s outputs otherwise.
    fn resume_input<'a>(xs: &'a Matrix, nominal: &'a BatchWorkspace, from: usize) -> &'a Matrix {
        if from == 0 {
            xs
        } else {
            &nominal.outs[from - 1]
        }
    }

    #[test]
    fn resume_from_nominal_checkpoint_is_bitwise_for_every_split() {
        // A 3-layer squashing net: resuming an *unfaulted* pass at any
        // split must reproduce the full pass bit for bit (the prefix is
        // read from the checkpoint, the suffix recomputes with the same
        // kernels on the same inputs).
        let mut net = linear_net();
        for l in net.layers_mut() {
            if let Layer::Dense(d) = l {
                d.activation = Activation::Tanh { k: 0.9 };
            }
        }
        let xs = Matrix::from_fn(5, 2, |r, c| r as f64 * 0.21 - 0.4 + c as f64 * 0.13);
        let mut nominal = BatchWorkspace::for_net(&net, 5);
        let full = net.forward_batch(&xs, &mut nominal);
        let mut scratch = BatchWorkspace::default();
        for from in 0..=net.depth() {
            let input = resume_input(&xs, &nominal, from);
            let resumed = net.resume_batch_from(input, &mut scratch, &mut NoBatchTap, from);
            for (b, (&a, &r)) in full.iter().zip(&resumed).enumerate() {
                assert_eq!(a.to_bits(), r.to_bits(), "split {from}, row {b}");
            }
        }
    }

    #[test]
    fn resume_with_tap_matches_full_tapped_pass() {
        // Fault at layer 1 only: resuming at 0 or 1 must equal the full
        // tapped pass bitwise; the checkpoint prefix substitutes for the
        // (unfaulted, hence nominal) layer-0 recomputation.
        let net = linear_net();
        let xs = Matrix::from_fn(4, 2, |r, c| 0.3 * r as f64 + 0.1 * c as f64);
        let mut nominal = BatchWorkspace::for_net(&net, 4);
        let _ = net.forward_batch(&xs, &mut nominal);
        let mut full_ws = BatchWorkspace::default();
        let full = net.forward_batch_tapped(&xs, &mut full_ws, &mut BatchCrashFirst { layer: 1 });
        let mut scratch = BatchWorkspace::default();
        for from in 0..=1 {
            let resumed = net.resume_batch_from(
                resume_input(&xs, &nominal, from),
                &mut scratch,
                &mut BatchCrashFirst { layer: 1 },
                from,
            );
            for (b, (&a, &r)) in full.iter().zip(&resumed).enumerate() {
                assert_eq!(a.to_bits(), r.to_bits(), "split {from}, row {b}");
            }
        }
    }

    #[test]
    fn resume_at_depth_runs_only_the_output_stage() {
        let net = linear_net();
        let xs = Matrix::from_vec(2, 2, vec![1.0, 1.0, 0.5, -0.25]);
        let mut nominal = BatchWorkspace::for_net(&net, 2);
        let full = net.forward_batch(&xs, &mut nominal);
        // Resume directly over the checkpointed last layer: output taps
        // still fire (here: hijack the sum), layer taps never do.
        struct Hijack;
        impl BatchTap for Hijack {
            fn pre_activation(&mut self, _l: usize, _i: &Matrix, _s: &mut Matrix) {
                panic!("layer taps must not fire when resuming at depth");
            }
            fn output_sum(&mut self, _last: &Matrix, sums: &mut [f64]) {
                for s in sums.iter_mut() {
                    *s += 100.0;
                }
            }
        }
        let mut scratch = BatchWorkspace::default();
        let last = &nominal.outs[net.depth() - 1];
        let resumed = net.resume_batch_from(last, &mut scratch, &mut Hijack, net.depth());
        for (b, (&a, &r)) in full.iter().zip(&resumed).enumerate() {
            assert_eq!(r, a + 100.0, "row {b}");
        }
    }

    #[test]
    #[should_panic(expected = "from_layer")]
    fn resume_past_depth_panics() {
        let net = linear_net();
        let xs = Matrix::zeros(1, 2);
        let mut nominal = BatchWorkspace::for_net(&net, 1);
        let _ = net.forward_batch(&xs, &mut nominal);
        let mut scratch = BatchWorkspace::default();
        let _ = net.resume_batch_from(&nominal.outs[1], &mut scratch, &mut NoBatchTap, 3);
    }

    /// Output-only faults from layer `split` on (a tap the post-activation
    /// start admits at `split`), plus pre-activation faults strictly after
    /// it; logs every hook it sees.
    struct FaultsFrom {
        split: usize,
        hooks: Vec<(&'static str, usize)>,
    }
    impl BatchTap for FaultsFrom {
        fn pre_activation(&mut self, layer: usize, _input: &Matrix, sums: &mut Matrix) {
            self.hooks.push(("pre", layer));
            if layer > self.split {
                for b in 0..sums.rows() {
                    sums.set(b, 0, sums.get(b, 0) + 0.375);
                }
            }
        }
        fn post_activation(&mut self, layer: usize, outputs: &mut Matrix) {
            self.hooks.push(("post", layer));
            if layer >= self.split {
                let last = outputs.cols() - 1;
                for b in 0..outputs.rows() {
                    // Reads the value it overwrites, like OpposeNominal.
                    outputs.set(b, last, -0.5 * outputs.get(b, last));
                }
            }
        }
        fn output_sum(&mut self, _last_out: &Matrix, _sums: &mut [f64]) {
            self.hooks.push(("out", 0));
        }
    }

    #[test]
    fn resume_after_activation_is_bitwise_the_full_tapped_pass() {
        use crate::builder::MlpBuilder;
        use neurofail_data::rng::rng;
        use neurofail_tensor::init::Init;
        let dense = MlpBuilder::new(4)
            .dense(5, Activation::Tanh { k: 0.9 })
            .dense(3, Activation::Sigmoid { k: 1.1 })
            .dense(4, Activation::Tanh { k: 1.0 })
            .init(Init::Uniform { a: 0.6 })
            .build(&mut rng(5));
        let conv_first = MlpBuilder::new(6)
            .conv1d(2, 3, Activation::Sigmoid { k: 1.0 })
            .dense(3, Activation::Tanh { k: 0.8 })
            .init(Init::Uniform { a: 0.6 })
            .build(&mut rng(6));
        assert!(matches!(conv_first.layers()[0], Layer::Conv1d(_)));
        for net in [&dense, &conv_first] {
            let depth = net.depth();
            for batch in [0usize, 1, 5] {
                let xs = Matrix::from_fn(batch, net.input_dim(), |r, c| {
                    0.23 * r as f64 - 0.4 + 0.11 * c as f64
                });
                let mut nominal = BatchWorkspace::default();
                let _ = net.forward_batch(&xs, &mut nominal);
                for split in 0..depth {
                    let mut full_ws = BatchWorkspace::default();
                    let mut full_tap = FaultsFrom {
                        split,
                        hooks: Vec::new(),
                    };
                    let full = net.forward_batch_tapped(&xs, &mut full_ws, &mut full_tap);
                    let mut tap = FaultsFrom {
                        split,
                        hooks: Vec::new(),
                    };
                    let mut scratch = BatchWorkspace::default();
                    let resumed =
                        net.resume_batch_after(&nominal.outs[split], &mut scratch, &mut tap, split);
                    assert_eq!(resumed.len(), batch);
                    for (b, (&f, &r)) in full.iter().zip(&resumed).enumerate() {
                        assert_eq!(
                            f.to_bits(),
                            r.to_bits(),
                            "split {split}, B {batch}, row {b}"
                        );
                    }
                    // Hooks fire from the split's post-activation on: at
                    // the last layer only the output stage remains.
                    let mut expected = vec![("post", split)];
                    for l in split + 1..depth {
                        expected.extend([("pre", l), ("post", l)]);
                    }
                    expected.push(("out", 0));
                    assert_eq!(tap.hooks, expected, "split {split}, B {batch}");
                    if split == depth - 1 {
                        assert_eq!(tap.hooks, [("post", split), ("out", 0)]);
                    }
                }
            }
        }
    }

    #[test]
    fn extend_batch_is_bitwise_a_full_recompute() {
        let mut net = linear_net();
        for l in net.layers_mut() {
            if let Layer::Dense(d) = l {
                d.activation = Activation::Sigmoid { k: 1.2 };
            }
        }
        let xs = Matrix::from_fn(7, 2, |r, c| 0.19 * r as f64 - 0.5 + 0.07 * c as f64);
        let mut full_ws = BatchWorkspace::for_net(&net, 7);
        let full = net.forward_batch(&xs, &mut full_ws);
        // Grow the checkpoint chunk by chunk (sizes 3, 0, 1, 3).
        let mut ws = BatchWorkspace::default();
        let mut scratch = BatchWorkspace::default();
        let mut ys = Vec::new();
        let mut start = 0;
        for chunk_rows in [3usize, 0, 1, 3] {
            let chunk = Matrix::from_fn(chunk_rows, 2, |r, c| xs.get(start + r, c));
            ys.extend(net.extend_batch_with(&mut ws, &mut scratch, &mut NoBatchTap, &chunk));
            start += chunk_rows;
        }
        assert_eq!(ws.batch(), 7);
        for (b, (&a, &e)) in full.iter().zip(&ys).enumerate() {
            assert_eq!(a.to_bits(), e.to_bits(), "row {b}");
        }
        for l in 0..net.depth() {
            assert_eq!(ws.sums[l], full_ws.sums[l], "layer {l} sums");
            assert_eq!(ws.outs[l], full_ws.outs[l], "layer {l} outs");
        }
        // The grown workspace is a valid checkpoint: resuming from it at
        // any split reproduces the full pass bitwise.
        for from in 0..=net.depth() {
            let input = resume_input(&xs, &ws, from);
            let resumed = net.resume_batch_from(input, &mut scratch, &mut NoBatchTap, from);
            for (b, (&a, &r)) in full.iter().zip(&resumed).enumerate() {
                assert_eq!(a.to_bits(), r.to_bits(), "split {from}, row {b}");
            }
        }
    }

    #[test]
    fn extend_batch_interposes_taps_on_new_rows_only() {
        let net = linear_net();
        let xs = Matrix::from_vec(2, 2, vec![1.0, 1.0, 0.5, 0.5]);
        let mut tapped_ws = BatchWorkspace::default();
        let expected =
            net.forward_batch_tapped(&xs, &mut tapped_ws, &mut BatchCrashFirst { layer: 0 });
        let mut ws = BatchWorkspace::default();
        let mut got = Vec::new();
        for b in 0..2 {
            let chunk = Matrix::from_vec(1, 2, xs.row(b).to_vec());
            got.extend(net.extend_batch(&mut ws, &mut BatchCrashFirst { layer: 0 }, &chunk));
        }
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "does not match the network")]
    fn extend_batch_rejects_a_foreign_checkpoint() {
        let net = linear_net();
        let wide = net.replicate(2);
        let mut ws = BatchWorkspace::for_net(&wide, 3);
        let _ = wide.forward_batch(&Matrix::zeros(3, 2), &mut ws);
        let _ = net.extend_batch(&mut ws, &mut NoBatchTap, &Matrix::zeros(1, 2));
    }

    #[test]
    fn batch_workspace_reshapes_on_demand() {
        let net = linear_net();
        let mut bws = BatchWorkspace::for_net(&net, 2);
        assert_eq!(bws.batch(), 2);
        let ys = net.forward_batch(&Matrix::zeros(5, 2), &mut bws);
        assert_eq!(ys.len(), 5);
        assert_eq!(bws.batch(), 5);
    }
}
