//! Row-major dense matrix.

use crate::ops;

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// Row-major layout is chosen because the dominant operation in this
/// workspace is the forward pass `y = W · x` (weights-times-activations,
/// paper Eq. 3), which row-major turns into `rows` contiguous dot products —
/// one cache-friendly streaming read per output neuron.
/// The `Default` matrix is the empty `0 × 0` shape — the placeholder
/// state of lazily-shaped workspace buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Resize in place to `rows × cols`, zero-filling every entry and
    /// reusing the existing allocation when it is large enough.
    ///
    /// This is the buffer-recycling primitive behind workspace reuse in
    /// long-lived pipelines (batched evaluation under varying batch sizes,
    /// the serving engine's flush loop): after the first growth to the
    /// largest shape seen, subsequent resizes perform no allocation.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        // clear + resize (rather than resize alone) so every retained
        // element is zeroed, matching `Matrix::zeros` semantics; Vec keeps
        // its capacity across the clear.
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Append every row of `other` below the existing rows, preserving the
    /// current contents (unlike [`Matrix::resize`], which zero-fills).
    ///
    /// This is the growth primitive behind *appendable* batch checkpoints:
    /// an input-incremental pipeline computes only the new rows and splices
    /// them under the rows already checkpointed. Appending to an empty
    /// `0 × 0` matrix adopts `other`'s column count, so default-constructed
    /// buffers can be grown without a prior reshape.
    ///
    /// # Panics
    /// If the column counts differ (and `self` is not `0 × 0`).
    pub fn append_rows(&mut self, other: &Matrix) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = other.cols;
        }
        assert_eq!(
            self.cols, other.cols,
            "append_rows: column mismatch {} vs {}",
            self.cols, other.cols
        );
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    /// If out of range (via slice indexing).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// `y = self · x` writing into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    /// If `x.len() != cols` or `y.len() != rows`.
    pub fn gemv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "gemv: x length mismatch");
        assert_eq!(y.len(), self.rows, "gemv: y length mismatch");
        for (yi, row) in y.iter_mut().zip(self.rows_iter()) {
            *yi = ops::dot(row, x);
        }
    }

    /// `self · x`, allocating the result.
    pub fn gemv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.gemv_into(x, &mut y);
        y
    }

    /// `y = selfᵀ · x` without materialising the transpose (column traversal
    /// expressed as row-major axpy sweeps — needed by backpropagation).
    ///
    /// # Panics
    /// If `x.len() != rows` or `y.len() != cols`.
    pub fn gemv_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "gemv_t: x length mismatch");
        assert_eq!(y.len(), self.cols, "gemv_t: y length mismatch");
        y.fill(0.0);
        for (xi, row) in x.iter().zip(self.rows_iter()) {
            ops::axpy(*xi, row, y);
        }
    }

    /// `selfᵀ · x`, allocating the result.
    pub fn gemv_t(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.gemv_t_into(x, &mut y);
        y
    }

    /// `y += selfᵀ · x` — the accumulating form of [`Matrix::gemv_t_into`],
    /// used by the batched trainer to fold a whole minibatch's output-weight
    /// gradient (`lastᵀ · dloss`) into an existing gradient buffer. Rows of
    /// `self` are consumed in increasing order, so every element of `y`
    /// accumulates its `rows` terms in a fixed sequence — deterministic for
    /// a given `(self, x)` regardless of how the batch was assembled.
    ///
    /// # Panics
    /// If `x.len() != rows` or `y.len() != cols`.
    pub fn gemv_t_acc_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "gemv_t_acc: x length mismatch");
        assert_eq!(y.len(), self.cols, "gemv_t_acc: y length mismatch");
        if self.cols == 0 {
            return;
        }
        crate::backend::active().gemv_t_acc(self, x, y);
    }

    /// Portable kernel behind [`Matrix::gemv_t_acc_into`] — increasing-row
    /// [`ops::axpy`] sweeps (mul-then-add per term, the order every
    /// backend must reproduce).
    pub(crate) fn gemv_t_acc_portable(&self, x: &[f64], y: &mut [f64]) {
        for (xi, row) in x.iter().zip(self.rows_iter()) {
            ops::axpy(*xi, row, y);
        }
    }

    /// Rank-one update `self += alpha · a · bᵀ` (outer product accumulate,
    /// the weight-gradient update of backpropagation).
    ///
    /// # Panics
    /// If `a.len() != rows` or `b.len() != cols`.
    pub fn ger(&mut self, alpha: f64, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), self.rows, "ger: a length mismatch");
        assert_eq!(b.len(), self.cols, "ger: b length mismatch");
        for (ai, row) in a.iter().zip(self.data.chunks_exact_mut(self.cols)) {
            ops::axpy(alpha * ai, b, row);
        }
    }

    /// GEMM against a transposed right-hand side: `out = self · rhsᵀ`, with
    /// `self` `B × K`, `rhs` `N × K` and `out` `B × N` — the kernel of the
    /// batched evaluation engine, consuming layer weights in their native
    /// `out_dim × in_dim` layout (no transpose staging).
    ///
    /// Every output element is a row-by-row dot product over contiguous
    /// slices; the kernel tiles four `rhs` rows per pass so each streamed
    /// `self` chunk is reused from registers, with packed-FMA lane
    /// accumulators ([`ops::dot_fma`]'s accumulation order exactly). The
    /// determinism contract: `out[b][j]` is a pure function of
    /// `(self.row(b), rhs.row(j))`, bitwise — independent of the batch
    /// size, tile layout and thread count. Campaign reproducibility and
    /// exact worst-case replay rest on this (asserted by tests).
    ///
    /// # Panics
    /// If `self.cols != rhs.cols`, or `out` is not `self.rows × rhs.rows`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt: inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul_nt: out rows mismatch");
        assert_eq!(out.cols, rhs.rows, "matmul_nt: out cols mismatch");
        if self.cols == 0 {
            out.data.fill(0.0);
            return;
        }
        if rhs.rows == 0 {
            return;
        }
        crate::backend::active().matmul_nt(self, rhs, out);
    }

    /// Portable tiled kernel behind [`Matrix::matmul_nt_into`] — the
    /// reference backend's implementation (shape validation and degenerate
    /// handling happen in the dispatching entry point).
    pub(crate) fn matmul_nt_portable(&self, rhs: &Matrix, out: &mut Matrix) {
        let k_dim = self.cols;
        let n = rhs.rows;
        const JT: usize = 4;
        const L: usize = ops::LANES;
        // Tiny-K fast path: im2col'd conv kernels (K ≤ 2·LANES, e.g. a
        // width-9 window) spend the general kernel's time zeroing and
        // spilling the 4-tile accumulator block rather than multiplying.
        // One k-chunk fits the lane accumulator exactly, so specialize —
        // per-element arithmetic (FMA-from-zero chunk, sequential-FMA
        // tail, `lane_sum` reduction) is unchanged, bitwise.
        if k_dim <= 2 * L {
            return self.matmul_nt_tiny(rhs, out);
        }
        for (a_row, o_row) in self
            .data
            .chunks_exact(k_dim)
            .zip(out.data.chunks_exact_mut(n))
        {
            let mut w_blocks = rhs.data.chunks_exact(JT * k_dim);
            let mut o_blocks = o_row.chunks_exact_mut(JT);
            for (w_block, oc) in (&mut w_blocks).zip(&mut o_blocks) {
                let (w0, rest) = w_block.split_at(k_dim);
                let (w1, rest) = rest.split_at(k_dim);
                let (w2, w3) = rest.split_at(k_dim);
                // Four LANES-wide accumulator tiles sharing each streamed
                // `a` chunk; every tile accumulates exactly like
                // `ops::dot_fma` on its `(a_row, w_row)` pair. Each tile
                // gets its own lane loop so the vectoriser packs along
                // lanes (contiguous loads), not across tiles.
                let mut acc0 = [0.0f64; L];
                let mut acc1 = [0.0f64; L];
                let mut acc2 = [0.0f64; L];
                let mut acc3 = [0.0f64; L];
                let mut tails = [0.0f64; JT];
                let x_chunks = a_row.chunks_exact(L);
                let x_tail = x_chunks.remainder();
                for ((((xc, c0), c1), c2), c3) in x_chunks
                    .zip(w0.chunks_exact(L))
                    .zip(w1.chunks_exact(L))
                    .zip(w2.chunks_exact(L))
                    .zip(w3.chunks_exact(L))
                {
                    let xc: &[f64; L] = xc.try_into().expect("chunk is L wide");
                    let c0: &[f64; L] = c0.try_into().expect("chunk is L wide");
                    let c1: &[f64; L] = c1.try_into().expect("chunk is L wide");
                    let c2: &[f64; L] = c2.try_into().expect("chunk is L wide");
                    let c3: &[f64; L] = c3.try_into().expect("chunk is L wide");
                    for i in 0..L {
                        acc0[i] = xc[i].mul_add(c0[i], acc0[i]);
                    }
                    for i in 0..L {
                        acc1[i] = xc[i].mul_add(c1[i], acc1[i]);
                    }
                    for i in 0..L {
                        acc2[i] = xc[i].mul_add(c2[i], acc2[i]);
                    }
                    for i in 0..L {
                        acc3[i] = xc[i].mul_add(c3[i], acc3[i]);
                    }
                }
                let tail_at = k_dim - x_tail.len();
                for (t, w) in [w0, w1, w2, w3].into_iter().enumerate() {
                    for (x, y) in x_tail.iter().zip(&w[tail_at..]) {
                        tails[t] = x.mul_add(*y, tails[t]);
                    }
                }
                for (t, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                    oc[t] = ops::lane_sum(acc) + tails[t];
                }
            }
            // Remaining rhs rows: the same per-pair math, one row at a time.
            for (w_row, o) in w_blocks
                .remainder()
                .chunks_exact(k_dim)
                .zip(o_blocks.into_remainder().iter_mut())
            {
                *o = ops::dot_fma(a_row, w_row);
            }
        }
    }

    /// Tiny-K (`K ≤ 2·LANES`) specialization behind
    /// [`Matrix::matmul_nt_portable`]: no 4-row tiling (nothing to
    /// amortize at one or two k-chunks), no per-block accumulator
    /// zeroing — the a-row's chunk/tail split is hoisted out of the
    /// column loop and each output is one fused pass. Per-element values
    /// are bitwise [`ops::dot_fma`], exactly like the general kernel.
    pub(crate) fn matmul_nt_tiny(&self, rhs: &Matrix, out: &mut Matrix) {
        let k = self.cols;
        let n = rhs.rows;
        const L: usize = ops::LANES;
        for (a_row, o_row) in self.data.chunks_exact(k).zip(out.data.chunks_exact_mut(n)) {
            if k < L {
                for (w_row, o) in rhs.data.chunks_exact(k).zip(o_row.iter_mut()) {
                    let mut tail = 0.0f64;
                    for (x, w) in a_row.iter().zip(w_row) {
                        tail = x.mul_add(*w, tail);
                    }
                    // `0.0 +` mirrors the general kernel's empty-chunk
                    // `lane_sum(zeros) + tail` (−0.0 semantics included).
                    *o = 0.0 + tail;
                }
            } else {
                // One or two full LANES chunks (k ≤ 2·LANES), then the
                // scalar tail — chunk boundaries exactly as `dot_fma`'s
                // `chunks_exact(LANES)` draws them.
                let chunks = k / L;
                let x_tail = &a_row[chunks * L..];
                for (w_row, o) in rhs.data.chunks_exact(k).zip(o_row.iter_mut()) {
                    let mut acc = [0.0f64; L];
                    for c in 0..chunks {
                        let x_c = &a_row[c * L..(c + 1) * L];
                        let w_c = &w_row[c * L..(c + 1) * L];
                        for i in 0..L {
                            acc[i] = x_c[i].mul_add(w_c[i], acc[i]);
                        }
                    }
                    let mut tail = 0.0f64;
                    for (x, w) in x_tail.iter().zip(&w_row[chunks * L..]) {
                        tail = x.mul_add(*w, tail);
                    }
                    *o = ops::lane_sum(acc) + tail;
                }
            }
        }
    }

    /// Transposed-accumulate GEMM: `out += selfᵀ · rhs`, with `self` `B × M`
    /// (a per-batch-row left factor, e.g. the post-derivative deltas of one
    /// layer), `rhs` `B × N` (the layer's input batch) and `out` `M × N` —
    /// the weight-gradient kernel of the batched training engine
    /// (`∂L/∂W = deltaᵀ · X`), consuming both operands in their natural
    /// batch-major layout with no transpose staging.
    ///
    /// The kernel tiles four output rows per pass so each streamed `rhs` row
    /// chunk is reused from registers across the tile, with one FMA per
    /// term. Batch rows are consumed in strictly increasing order in every
    /// path (tile and remainder alike), so each output element accumulates
    /// `out[j][i] ← fma(self[b][j], rhs[b][i], out[j][i])` for `b = 0..B` —
    /// a pure function of `(self column j, rhs column i, initial out[j][i])`,
    /// bitwise, independent of the tile layout and of `M`/`N`. Batched
    /// training's run-to-run and cross-`Parallelism` determinism rests on
    /// this (asserted by tests).
    ///
    /// # Panics
    /// If `self.rows != rhs.rows`, or `out` is not `self.cols × rhs.cols`.
    pub fn matmul_tn_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn: batch dimension mismatch");
        assert_eq!(out.rows, self.cols, "matmul_tn: out rows mismatch");
        assert_eq!(out.cols, rhs.cols, "matmul_tn: out cols mismatch");
        if self.cols == 0 || rhs.cols == 0 || self.rows == 0 {
            return;
        }
        crate::backend::active().matmul_tn_acc(self, rhs, out);
    }

    /// Portable tiled kernel behind [`Matrix::matmul_tn_acc_into`] — the
    /// reference backend's implementation (shape validation and degenerate
    /// handling happen in the dispatching entry point).
    pub(crate) fn matmul_tn_acc_portable(&self, rhs: &Matrix, out: &mut Matrix) {
        let m = self.cols;
        let n = rhs.cols;
        const JT: usize = 4;
        let mut j = 0;
        while j + JT <= m {
            let block = &mut out.data[j * n..(j + JT) * n];
            let (o0, rest) = block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            for (a_row, x_row) in self.data.chunks_exact(m).zip(rhs.data.chunks_exact(n)) {
                let (a0, a1, a2, a3) = (a_row[j], a_row[j + 1], a_row[j + 2], a_row[j + 3]);
                for ((((p0, p1), p2), p3), &x) in o0
                    .iter_mut()
                    .zip(o1.iter_mut())
                    .zip(o2.iter_mut())
                    .zip(o3.iter_mut())
                    .zip(x_row)
                {
                    *p0 = a0.mul_add(x, *p0);
                    *p1 = a1.mul_add(x, *p1);
                    *p2 = a2.mul_add(x, *p2);
                    *p3 = a3.mul_add(x, *p3);
                }
            }
            j += JT;
        }
        // Remaining output rows: the same per-element math, one row at a time.
        for j in j..m {
            let o_row = &mut out.data[j * n..(j + 1) * n];
            for (a_row, x_row) in self.data.chunks_exact(m).zip(rhs.data.chunks_exact(n)) {
                let a = a_row[j];
                for (p, &x) in o_row.iter_mut().zip(x_row) {
                    *p = a.mul_add(x, *p);
                }
            }
        }
    }

    /// Transposed GEMM `out = selfᵀ · rhs` (overwrite form of
    /// [`Matrix::matmul_tn_acc_into`]).
    ///
    /// # Panics
    /// If `self.rows != rhs.rows`, or `out` is not `self.cols × rhs.cols`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn: batch dimension mismatch");
        assert_eq!(out.rows, self.cols, "matmul_tn: out rows mismatch");
        assert_eq!(out.cols, rhs.cols, "matmul_tn: out cols mismatch");
        if self.cols == 0 || rhs.cols == 0 || self.rows == 0 {
            out.data.fill(0.0);
            return;
        }
        crate::backend::active().matmul_tn(self, rhs, out);
    }

    /// Matrix product `self · rhs` into a caller-provided buffer.
    ///
    /// Loop order is row/`k`/column: each output row accumulates `rhs` rows
    /// scaled by the matching `self` entry (contiguous `axpy` sweeps the
    /// compiler vectorises), `k`-sequentially — so each output row's value
    /// is independent of every other row. Generic path for tests and
    /// im2col-style uses; the batched engine's hot kernel is
    /// [`Matrix::matmul_nt_into`].
    ///
    /// # Panics
    /// If `self.cols != rhs.rows`, or `out` is not `self.rows × rhs.cols`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul: out rows mismatch");
        assert_eq!(out.cols, rhs.cols, "matmul: out cols mismatch");
        let k_dim = self.cols;
        let n = rhs.cols;
        out.data.fill(0.0);
        if k_dim == 0 || n == 0 {
            return;
        }
        for (a_row, o_row) in self
            .data
            .chunks_exact(k_dim)
            .zip(out.data.chunks_exact_mut(n))
        {
            for (&a, w_row) in a_row.iter().zip(rhs.rows_iter()) {
                ops::axpy(a, w_row, o_row);
            }
        }
    }

    /// Matrix product `self · rhs`, allocating the result (via
    /// [`Matrix::matmul_into`]).
    ///
    /// # Panics
    /// If `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Maximum absolute entry — the paper's `w_m` statistic for a weight
    /// matrix (max norm of the incoming synaptic weights).
    pub fn max_abs(&self) -> f64 {
        ops::max_abs(&self.data)
    }

    /// Maximum absolute entry over a subset of columns. Used by the
    /// convolutional bound of Section VI, where `w_m` ranges only over the
    /// receptive-field (shared kernel) weights.
    pub fn max_abs_cols(&self, cols: impl Iterator<Item = usize> + Clone) -> f64 {
        let mut m = 0.0f64;
        for r in 0..self.rows {
            let row = self.row(r);
            for c in cols.clone() {
                m = m.max(row[c].abs());
            }
        }
        m
    }

    /// Transpose (allocating; used in tests and data prep only).
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        ops::norm2(&self.data)
    }

    /// Apply `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn accessors_roundtrip() {
        let mut m = small();
        assert_eq!(m.get(1, 2), 6.0);
        m.set(1, 2, -1.0);
        assert_eq!(m.get(1, 2), -1.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn gemv_matches_hand_computation() {
        let y = small().gemv(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn append_rows_preserves_existing_content() {
        let mut m = small();
        m.append_rows(&Matrix::from_vec(1, 3, vec![7.0, 8.0, 9.0]));
        assert_eq!((m.rows(), m.cols()), (3, 3));
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
        // Appending an empty block is a no-op; an empty 0×0 target adopts
        // the source's column count.
        m.append_rows(&Matrix::zeros(0, 3));
        assert_eq!(m.rows(), 3);
        let mut fresh = Matrix::zeros(0, 0);
        fresh.append_rows(&m);
        assert_eq!(fresh, m);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn append_rows_rejects_column_mismatch() {
        let mut m = small();
        m.append_rows(&Matrix::zeros(1, 2));
    }

    #[test]
    fn resize_zero_fills_and_reuses_the_allocation() {
        let mut m = small();
        m.resize(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert!(m.data().iter().all(|&v| v == 0.0));
        // Shrinking and re-growing within the high-water mark keeps the
        // same backing buffer.
        let ptr = m.data().as_ptr();
        m.resize(1, 1);
        assert_eq!(m.data(), &[0.0]);
        m.resize(2, 3);
        assert_eq!(ptr, m.data().as_ptr());
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert!(m.data().iter().all(|&v| v == 0.0));
        // Stale values never leak through a resize.
        m.set(1, 2, 7.0);
        m.resize(2, 3);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn gemv_t_matches_transpose_gemv() {
        let m = small();
        let x = [2.0, -1.0];
        assert_eq!(m.gemv_t(&x), m.transpose().gemv(&x));
    }

    #[test]
    fn identity_is_gemv_neutral() {
        let x = vec![3.0, -4.0, 5.0];
        assert_eq!(Matrix::identity(3).gemv(&x), x);
    }

    #[test]
    fn ger_accumulates_outer_product() {
        let mut m = Matrix::zeros(2, 2);
        m.ger(2.0, &[1.0, 3.0], &[5.0, 7.0]);
        assert_eq!(m.data(), &[10.0, 14.0, 30.0, 42.0]);
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_neutral() {
        let a = small();
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn max_abs_and_cols_subset() {
        let m = Matrix::from_vec(2, 3, vec![1.0, -9.0, 3.0, 4.0, 5.0, -6.0]);
        assert_eq!(m.max_abs(), 9.0);
        assert_eq!(m.max_abs_cols([0usize, 2].into_iter()), 6.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let _ = small().matmul(&small());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose_product() {
        // The engine kernel against the generic path: same math, different
        // accumulation orders — agreement at normal rounding.
        for (b, k, n) in [(1usize, 1usize, 1usize), (3, 13, 9), (8, 16, 4), (5, 7, 11)] {
            let a = Matrix::from_fn(b, k, |r, c| ((r * k + c) as f64 * 0.31).sin());
            let w = Matrix::from_fn(n, k, |r, c| ((r * k + c) as f64 * 0.17).cos());
            let mut out = Matrix::zeros(b, n);
            a.matmul_nt_into(&w, &mut out);
            let reference = a.matmul(&w.transpose());
            for r in 0..b {
                for c in 0..n {
                    assert!(
                        (out.get(r, c) - reference.get(r, c)).abs() < 1e-12,
                        "({b},{k},{n}) at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_nt_elements_match_dot_fma_exactly() {
        // The determinism contract of the *portable* backend: out[b][j] is
        // bitwise dot_fma(a_b, w_j) regardless of tile position, batch
        // size or column count. Pinned to portable explicitly so a future
        // non-order-identical default backend cannot silently weaken it.
        crate::backend::with_backend(crate::backend::BackendKind::Portable, || {
            for (b, k, n) in [(1usize, 5usize, 1usize), (6, 24, 10), (4, 9, 7), (2, 64, 3)] {
                let a = Matrix::from_fn(b, k, |r, c| ((r * k + c) as f64 * 0.41).sin());
                let w = Matrix::from_fn(n, k, |r, c| ((r * k + c) as f64 * 0.23).cos());
                let mut out = Matrix::zeros(b, n);
                a.matmul_nt_into(&w, &mut out);
                for r in 0..b {
                    for j in 0..n {
                        assert_eq!(
                            out.get(r, j),
                            ops::dot_fma(a.row(r), w.row(j)),
                            "({b},{k},{n}) at ({r},{j})"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn matmul_nt_handles_degenerate_shapes() {
        let mut out = Matrix::zeros(2, 3);
        Matrix::from_vec(2, 0, vec![]).matmul_nt_into(&Matrix::from_vec(3, 0, vec![]), &mut out);
        assert_eq!(out, Matrix::zeros(2, 3));
        let mut empty = Matrix::zeros(0, 2);
        Matrix::zeros(0, 4).matmul_nt_into(&Matrix::zeros(2, 4), &mut empty);
        let mut none = Matrix::zeros(2, 0);
        Matrix::zeros(2, 4).matmul_nt_into(&Matrix::zeros(0, 4), &mut none);
    }

    #[test]
    fn matmul_rows_are_independent_of_row_block_position() {
        // The batched-engine contract: row b of A·B depends only on
        // (A.row(b), B), bitwise — never on which 4-row block it landed in
        // or how many other rows were computed alongside it.
        let k = 13;
        let n = 9;
        let b = Matrix::from_fn(k, n, |r, c| ((r * n + c) as f64).sin());
        for rows in [1usize, 2, 3, 4, 5, 7, 8, 11] {
            let a = Matrix::from_fn(rows, k, |r, c| ((r * k + c) as f64 * 0.37).cos());
            let full = a.matmul(&b);
            for r in 0..rows {
                let single = Matrix::from_vec(1, k, a.row(r).to_vec());
                assert_eq!(
                    full.row(r),
                    single.matmul(&b).row(0),
                    "rows = {rows}, r = {r}"
                );
            }
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose_product() {
        for (b, m, n) in [(1usize, 1usize, 1usize), (5, 13, 9), (8, 16, 4), (3, 7, 11)] {
            let a = Matrix::from_fn(b, m, |r, c| ((r * m + c) as f64 * 0.29).sin());
            let x = Matrix::from_fn(b, n, |r, c| ((r * n + c) as f64 * 0.19).cos());
            let mut out = Matrix::zeros(m, n);
            a.matmul_tn_into(&x, &mut out);
            let reference = a.transpose().matmul(&x);
            for r in 0..m {
                for c in 0..n {
                    assert!(
                        (out.get(r, c) - reference.get(r, c)).abs() < 1e-12,
                        "({b},{m},{n}) at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_tn_acc_accumulates_on_top() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let x = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut out = Matrix::from_vec(2, 2, vec![100.0, 0.0, 0.0, -100.0]);
        a.matmul_tn_acc_into(&x, &mut out);
        // aᵀ·x = [[1,3],[2,4]]·[[5,6],[7,8]] = [[26,30],[38,44]].
        assert_eq!(out.data(), &[126.0, 30.0, 38.0, -56.0]);
    }

    #[test]
    fn matmul_tn_elements_are_independent_of_tile_position() {
        // The determinism contract: out[j][i] is the same bitwise whether
        // row j sits in a 4-row tile or in the remainder loop. Compare each
        // column pair against a hand-rolled b-sequential FMA reduction.
        // Pinned to the portable backend (the reference order).
        crate::backend::with_backend(crate::backend::BackendKind::Portable, || {
            for (b, m, n) in [(6usize, 10usize, 5usize), (4, 7, 3), (9, 4, 8), (3, 5, 1)] {
                let a = Matrix::from_fn(b, m, |r, c| ((r * m + c) as f64 * 0.43).sin());
                let x = Matrix::from_fn(b, n, |r, c| ((r * n + c) as f64 * 0.27).cos());
                let mut out = Matrix::zeros(m, n);
                a.matmul_tn_acc_into(&x, &mut out);
                for j in 0..m {
                    for i in 0..n {
                        let mut want = 0.0f64;
                        for bb in 0..b {
                            want = a.get(bb, j).mul_add(x.get(bb, i), want);
                        }
                        assert_eq!(out.get(j, i), want, "({b},{m},{n}) at ({j},{i})");
                    }
                }
            }
        });
    }

    #[test]
    fn matmul_tn_handles_degenerate_shapes() {
        // Zero batch rows: out untouched by acc, zeroed by the overwrite form.
        let mut out = Matrix::from_vec(2, 3, vec![1.0; 6]);
        Matrix::zeros(0, 2).matmul_tn_acc_into(&Matrix::zeros(0, 3), &mut out);
        assert_eq!(out.data(), &[1.0; 6]);
        Matrix::zeros(0, 2).matmul_tn_into(&Matrix::zeros(0, 3), &mut out);
        assert_eq!(out, Matrix::zeros(2, 3));
        // Zero-width operands.
        let mut empty = Matrix::zeros(0, 4);
        Matrix::from_vec(2, 0, vec![]).matmul_tn_into(&Matrix::zeros(2, 4), &mut empty);
        let mut none = Matrix::zeros(4, 0);
        Matrix::zeros(2, 4).matmul_tn_into(&Matrix::from_vec(2, 0, vec![]), &mut none);
    }

    #[test]
    #[should_panic(expected = "batch dimension mismatch")]
    fn matmul_tn_batch_mismatch_panics() {
        let mut out = Matrix::zeros(3, 3);
        small().matmul_tn_acc_into(&Matrix::zeros(3, 3), &mut out);
    }

    #[test]
    fn gemv_t_acc_adds_to_existing() {
        let m = small();
        let x = [2.0, -1.0];
        let mut y = vec![1.0, 1.0, 1.0];
        m.gemv_t_acc_into(&x, &mut y);
        let plain = m.gemv_t(&x);
        for (got, want) in y.iter().zip(&plain) {
            assert_eq!(*got, want + 1.0);
        }
    }

    #[test]
    fn matmul_into_handles_degenerate_shapes() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(a.matmul(&b).rows(), 0);
        let a = Matrix::from_vec(2, 0, vec![]);
        let b = Matrix::from_vec(0, 3, vec![]);
        assert_eq!(a.matmul(&b), Matrix::zeros(2, 3));
    }

    proptest! {
        #[test]
        fn matmul_associates_with_gemv(
            data_a in proptest::collection::vec(-3.0f64..3.0, 12),
            data_b in proptest::collection::vec(-3.0f64..3.0, 20),
            x in proptest::collection::vec(-3.0f64..3.0, 5),
        ) {
            // (A·B)·x == A·(B·x), 3x4 · 4x5 · 5
            let a = Matrix::from_vec(3, 4, data_a);
            let b = Matrix::from_vec(4, 5, data_b);
            let lhs = a.matmul(&b).gemv(&x);
            let rhs = a.gemv(&b.gemv(&x));
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }

        #[test]
        fn transpose_is_involutive(
            data in proptest::collection::vec(-10.0f64..10.0, 24),
        ) {
            let m = Matrix::from_vec(4, 6, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn gemv_linearity(
            data in proptest::collection::vec(-2.0f64..2.0, 12),
            x in proptest::collection::vec(-2.0f64..2.0, 4),
            alpha in -3.0f64..3.0,
        ) {
            let m = Matrix::from_vec(3, 4, data);
            let scaled: Vec<f64> = x.iter().map(|v| alpha * v).collect();
            let lhs = m.gemv(&scaled);
            let rhs: Vec<f64> = m.gemv(&x).iter().map(|v| alpha * v).collect();
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }
    }
}
