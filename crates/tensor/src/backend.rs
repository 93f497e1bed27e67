//! Runtime-dispatched compute backends for the GEMM and activation kernels.
//!
//! Every engine in the workspace bottoms out in a handful of tensor entry
//! points (`matmul_nt_into`, `matmul_tn_acc_into`, `gemv_t_acc_into`, the
//! `vexp`/`vsigmoid`/`vtanh` activation sweeps and their derivative
//! kernels). This module puts those entry points behind the
//! [`ComputeBackend`] trait and selects an implementation **once at
//! startup** by runtime CPU-feature detection, so the same binary runs the
//! portable tiled kernels on any machine and hand-scheduled SIMD
//! microkernels where the hardware supports them.
//!
//! ## Backends
//!
//! * [`BackendKind::Portable`] — the original tiled packed-FMA kernels,
//!   written as fixed-size lane loops the autovectoriser turns into packed
//!   code. This is the **reference backend**: every determinism contract in
//!   the workspace is stated against its accumulation order, and it is
//!   always supported.
//! * [`BackendKind::Avx2`] — an 8×4 register-blocked AVX2+FMA microkernel
//!   over packed right-hand-side panels. Its per-element accumulation
//!   order is *identical* to the portable kernels (the logical `[f64; 8]`
//!   lane accumulator maps to two `__m256d` registers and reduces with the
//!   exact [`ops::dot_fma`] pairwise grouping).
//!
//! ## Determinism contract (contract 11)
//!
//! Every backend reproduces portable bitwise: each kernel consumes its
//! terms in the portable per-element order, so results are bitwise equal
//! run-to-run, across `Parallelism` settings and across backends —
//! asserted by tests, and relied on by the CI matrix that runs the full
//! suite under `portable` and `auto`. Every kernel that multiplies
//! activations or deltas applies the [`ops::SATURATION_FLUSH`] subnormal
//! flush exactly as the portable kernels do (the flush lives in the shared
//! elementwise impls, so no backend can drop it).
//!
//! ## Selection
//!
//! Two layers:
//!
//! * [`with_backend`] — a thread-scoped override for in-process sweeps
//!   (tests comparing backends side by side). Scopes nest, the innermost
//!   winning; an override does **not** propagate to threads spawned
//!   inside the closure;
//! * below it, the process default, chosen once on first use from the
//!   `NEUROFAIL_BACKEND` environment variable (`portable`, `avx2` or
//!   `auto`), falling back to [`BackendKind::detect_best`] — see
//!   [`default_kind`].

use std::cell::Cell;
use std::sync::OnceLock;

use crate::matrix::Matrix;
use crate::ops;

/// Identifies a compute-backend implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The portable tiled kernels (reference backend, always supported).
    Portable,
    /// 8×4 register-blocked AVX2+FMA microkernels over packed panels.
    Avx2,
}

impl BackendKind {
    /// Every kind, in preference order for reporting.
    pub const ALL: [BackendKind; 2] = [BackendKind::Portable, BackendKind::Avx2];

    /// Stable lower-case name (the `NEUROFAIL_BACKEND` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Portable => "portable",
            BackendKind::Avx2 => "avx2",
        }
    }

    /// Parse a `NEUROFAIL_BACKEND` value. `auto` resolves to
    /// [`BackendKind::detect_best`]. Returns `Err` with the offending
    /// token for anything outside the vocabulary.
    pub fn parse(s: &str) -> Result<BackendKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "portable" => Ok(BackendKind::Portable),
            "avx2" => Ok(BackendKind::Avx2),
            "auto" | "" => Ok(BackendKind::detect_best()),
            other => Err(format!(
                "unknown backend {other:?} (expected portable|avx2|auto)"
            )),
        }
    }

    /// Whether this backend can run on the current machine: portable
    /// always, AVX2 where the CPU reports `avx2` and `fma`.
    pub fn is_supported(self) -> bool {
        match self {
            BackendKind::Portable => true,
            BackendKind::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The best supported backend: AVX2 if available, else portable.
    pub fn detect_best() -> BackendKind {
        if BackendKind::Avx2.is_supported() {
            BackendKind::Avx2
        } else {
            BackendKind::Portable
        }
    }
}

/// Every backend kind supported on this machine, in `ALL` order.
pub fn supported_kinds() -> Vec<BackendKind> {
    BackendKind::ALL
        .into_iter()
        .filter(|k| k.is_supported())
        .collect()
}

/// The CPU features relevant to backend selection that this machine
/// reports, as stable lower-case names (for bench/CI labelling).
pub fn detected_features() -> Vec<&'static str> {
    let mut fs = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            fs.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            fs.push("fma");
        }
    }
    fs
}

/// The kernel surface every backend implements.
///
/// Shape validation and degenerate-shape handling (`k == 0`, empty
/// operands) live in the [`Matrix`] entry points *before* dispatch;
/// backend implementations may assume conforming, non-degenerate shapes.
/// The elementwise kernels take plain slices and must hold the
/// [`ops::SATURATION_FLUSH`] contract documented on the portable impls.
pub trait ComputeBackend: Send + Sync {
    /// Which [`BackendKind`] this implementation is.
    fn kind(&self) -> BackendKind;

    /// Stable name (`self.kind().name()`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// `out = a · rhsᵀ` (`a` is `B × K`, `rhs` is `N × K`, `out` `B × N`).
    fn matmul_nt(&self, a: &Matrix, rhs: &Matrix, out: &mut Matrix);

    /// `out += aᵀ · rhs` (`a` is `B × M`, `rhs` `B × N`, `out` `M × N`),
    /// batch rows consumed in strictly increasing order.
    fn matmul_tn_acc(&self, a: &Matrix, rhs: &Matrix, out: &mut Matrix);

    /// `out = aᵀ · rhs` (overwrite form of [`ComputeBackend::matmul_tn_acc`]).
    fn matmul_tn(&self, a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        out.data_mut().fill(0.0);
        self.matmul_tn_acc(a, rhs, out);
    }

    /// `y += aᵀ · x`, rows of `a` consumed in increasing order with
    /// mul-then-add per term (the `ops::axpy` order — **not** FMA).
    fn gemv_t_acc(&self, a: &Matrix, x: &[f64], y: &mut [f64]);

    /// Elementwise `out[i] = e^{xs[i]}` (clamped to ±700, see [`ops::vexp`]).
    fn vexp(&self, xs: &[f64], out: &mut [f64]);

    /// Elementwise logistic with gain (see [`ops::vsigmoid`]).
    fn vsigmoid(&self, gain: f64, xs: &[f64], out: &mut [f64]);

    /// Elementwise tanh with gain (see [`ops::vtanh`]).
    fn vtanh(&self, gain: f64, xs: &[f64], out: &mut [f64]);

    /// Sigmoid derivative from outputs: `out[i] = flush(gain·y·(1−y))`.
    fn vsigmoid_deriv(&self, gain: f64, ys: &[f64], out: &mut [f64]);

    /// Tanh derivative from outputs: `out[i] = flush(k·(1−y²))`.
    fn vtanh_deriv(&self, k: f64, ys: &[f64], out: &mut [f64]);
}

// ---------------------------------------------------------------------------
// Selection state
// ---------------------------------------------------------------------------

/// Process-default backend, resolved once from `NEUROFAIL_BACKEND`.
static DEFAULT: OnceLock<BackendKind> = OnceLock::new();

thread_local! {
    /// Thread-scoped override installed by [`with_backend`].
    static SCOPED: Cell<Option<BackendKind>> = const { Cell::new(None) };
}

/// The process-default backend kind: `NEUROFAIL_BACKEND` if set (panics on
/// an unknown or unsupported value — a misconfigured run must not silently
/// fall back to different numerics), else [`BackendKind::detect_best`].
pub fn default_kind() -> BackendKind {
    *DEFAULT.get_or_init(|| match std::env::var("NEUROFAIL_BACKEND") {
        Ok(v) => {
            let kind = BackendKind::parse(&v).unwrap_or_else(|e| panic!("NEUROFAIL_BACKEND: {e}"));
            assert!(
                kind.is_supported(),
                "NEUROFAIL_BACKEND={v}: backend {} is not supported on this machine",
                kind.name()
            );
            kind
        }
        Err(_) => BackendKind::detect_best(),
    })
}

/// The backend kind the *current thread* would dispatch to right now:
/// the innermost [`with_backend`] scope, else the process default.
pub fn active_kind() -> BackendKind {
    SCOPED.with(Cell::get).unwrap_or_else(default_kind)
}

/// Run `f` with `kind` as this thread's active backend, restoring the
/// previous scope on exit (including on unwind). The override is
/// thread-local: it does **not** propagate to threads spawned inside `f`,
/// so parallel campaigns under `Parallelism::Threads` still dispatch each
/// worker through the process default.
///
/// # Panics
/// If the requested backend is not supported on this machine.
pub fn with_backend<R>(kind: BackendKind, f: impl FnOnce() -> R) -> R {
    assert!(
        kind.is_supported(),
        "with_backend: {} is not supported on this machine",
        kind.name()
    );
    struct Restore(Option<BackendKind>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|c| c.set(self.0));
        }
    }
    let prev = SCOPED.with(|c| c.replace(Some(kind)));
    let _restore = Restore(prev);
    f()
}

/// The backend instance for an explicit kind.
///
/// # Panics
/// If the kind is not supported on this machine.
pub fn backend_for(kind: BackendKind) -> &'static dyn ComputeBackend {
    assert!(
        kind.is_supported(),
        "backend_for: {} is not supported on this machine",
        kind.name()
    );
    match kind {
        BackendKind::Portable => &PORTABLE,
        #[cfg(target_arch = "x86_64")]
        BackendKind::Avx2 => &AVX2,
        #[cfg(not(target_arch = "x86_64"))]
        BackendKind::Avx2 => unreachable!("is_supported gated"),
    }
}

/// The backend the current thread dispatches to (see [`active_kind`]).
pub fn active() -> &'static dyn ComputeBackend {
    backend_for(active_kind())
}

// ---------------------------------------------------------------------------
// Portable backend
// ---------------------------------------------------------------------------

/// The reference backend: the original tiled packed-FMA lane-loop kernels.
#[derive(Debug)]
pub struct PortableBackend;

static PORTABLE: PortableBackend = PortableBackend;

impl ComputeBackend for PortableBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Portable
    }

    fn matmul_nt(&self, a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        a.matmul_nt_portable(rhs, out);
    }

    fn matmul_tn_acc(&self, a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        a.matmul_tn_acc_portable(rhs, out);
    }

    fn gemv_t_acc(&self, a: &Matrix, x: &[f64], y: &mut [f64]) {
        a.gemv_t_acc_portable(x, y);
    }

    fn vexp(&self, xs: &[f64], out: &mut [f64]) {
        ops::vexp_impl(xs, out);
    }

    fn vsigmoid(&self, gain: f64, xs: &[f64], out: &mut [f64]) {
        ops::vsigmoid_impl(gain, xs, out);
    }

    fn vtanh(&self, gain: f64, xs: &[f64], out: &mut [f64]) {
        ops::vtanh_impl(gain, xs, out);
    }

    fn vsigmoid_deriv(&self, gain: f64, ys: &[f64], out: &mut [f64]) {
        ops::vsigmoid_deriv_impl(gain, ys, out);
    }

    fn vtanh_deriv(&self, k: f64, ys: &[f64], out: &mut [f64]) {
        ops::vtanh_deriv_impl(k, ys, out);
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA backend
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Matrix;
    use crate::ops;
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    /// Tile height of the NT microkernels: four rhs rows per panel block.
    const JT: usize = 4;
    /// K-chunk width: eight f64 (the portable lane accumulator width).
    const KC: usize = 8;

    thread_local! {
        /// Reusable packing buffer; one live borrow per `matmul_nt` call.
        static PACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }

    /// Pack the full 4-row blocks of `rhs` (`N × K`) into `buf`.
    ///
    /// Per block, the layout interleaves the four rows chunk-by-chunk so
    /// the microkernel streams one contiguous panel: for each full
    /// `KC`-wide k-chunk `c`, `[row0 KC][row1 KC][row2 KC][row3 KC]`
    /// (4·KC doubles), followed by the four per-row k-tails row-major
    /// (`4 × (K mod KC)` doubles). Block size is therefore exactly `4·K`.
    /// The `N mod 4` remainder rows are *not* packed — the callers compute
    /// them straight from `rhs` with `ops::dot_fma`.
    fn pack_rhs(rhs: &Matrix, buf: &mut Vec<f64>) {
        let k = rhs.cols();
        let blocks = rhs.rows() / JT;
        let full = k / KC;
        let tail = k - full * KC;
        buf.clear();
        buf.reserve(blocks * JT * k);
        for b in 0..blocks {
            for c in 0..full {
                for t in 0..JT {
                    let row = rhs.row(b * JT + t);
                    buf.extend_from_slice(&row[c * KC..(c + 1) * KC]);
                }
            }
            if tail > 0 {
                for t in 0..JT {
                    let row = rhs.row(b * JT + t);
                    buf.extend_from_slice(&row[full * KC..]);
                }
            }
        }
    }

    /// Run `f` with the thread's packing buffer holding `rhs`'s panels.
    fn with_packed<R>(rhs: &Matrix, f: impl FnOnce(&[f64]) -> R) -> R {
        PACK.with(|cell| {
            let mut buf = cell.borrow_mut();
            pack_rhs(rhs, &mut buf);
            f(&buf)
        })
    }

    /// Reduce a logical `[f64; 8]` accumulator held as two `__m256d`
    /// (lanes 0–3 in `lo`, lanes 4–7 in `hi`) in **exactly** the portable
    /// `ops::lane_sum` grouping: `s = lo + hi` gives
    /// `[a0+a4, a1+a5, a2+a6, a3+a7]`, the horizontal add pairs
    /// `(s0+s1, s2+s3)`, and the final scalar add forms
    /// `((a0+a4)+(a1+a5)) + ((a2+a6)+(a3+a7))` — bitwise identical.
    #[inline(always)]
    unsafe fn lane_sum_256(lo: __m256d, hi: __m256d) -> f64 {
        let s = _mm256_add_pd(lo, hi);
        let h = _mm_hadd_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd::<1>(s));
        _mm_cvtsd_f64(_mm_add_sd(h, _mm_unpackhi_pd(h, h)))
    }

    /// One a-row × one packed 4-row block: four logical `[f64; 8]`
    /// accumulators (eight `__m256d`), FMA per k-chunk in the portable
    /// order, sequential-FMA k-tails, `lane_sum`-identical reduction.
    ///
    /// # Safety
    /// Requires AVX2+FMA (checked by backend selection); `block` must be
    /// one `4·k`-double panel from [`pack_rhs`] and `oc` hold at least
    /// `JT` elements.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn nt_block(a_row: &[f64], block: &[f64], oc: &mut [f64]) {
        let k = a_row.len();
        let full = k / KC;
        let tail_len = k - full * KC;
        let mut lo = [_mm256_setzero_pd(); JT];
        let mut hi = [_mm256_setzero_pd(); JT];
        for c in 0..full {
            let x_lo = _mm256_loadu_pd(a_row.as_ptr().add(c * KC));
            let x_hi = _mm256_loadu_pd(a_row.as_ptr().add(c * KC + 4));
            let base = block.as_ptr().add(c * JT * KC);
            for t in 0..JT {
                let w_lo = _mm256_loadu_pd(base.add(t * KC));
                let w_hi = _mm256_loadu_pd(base.add(t * KC + 4));
                lo[t] = _mm256_fmadd_pd(x_lo, w_lo, lo[t]);
                hi[t] = _mm256_fmadd_pd(x_hi, w_hi, hi[t]);
            }
        }
        let x_tail = &a_row[full * KC..];
        let tail_base = full * JT * KC;
        for t in 0..JT {
            let w_tail = &block[tail_base + t * tail_len..tail_base + (t + 1) * tail_len];
            let mut tail = 0.0f64;
            for (x, w) in x_tail.iter().zip(w_tail) {
                tail = x.mul_add(*w, tail);
            }
            oc[t] = lane_sum_256(lo[t], hi[t]) + tail;
        }
    }

    /// `out = a · rhsᵀ` over packed panels. Remainder rhs rows (`N mod 4`)
    /// fall back to `ops::dot_fma` — the identical per-pair math. Tiny K
    /// (≤ 2·KC, the im2col'd conv-kernel shapes) skips packing entirely:
    /// a panel copy of `rhs` costs more than the multiply at those widths.
    pub(super) fn matmul_nt(a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        if a.cols() <= 2 * KC {
            // Safety: backend selection verified avx2+fma.
            unsafe { nt_tiny(a, rhs, out) };
            return;
        }
        with_packed(rhs, |packed| {
            // Safety: backend selection verified avx2+fma.
            unsafe { nt_rows(a, rhs, packed, out) }
        });
    }

    /// Tiny-K (`K ≤ 2·KC`) row sweep: no packing, no 4-row tiling. Each
    /// output is one or two full-chunk FMA rounds into zeroed ymm
    /// accumulators, the `lane_sum`-identical reduction, and a
    /// sequential-FMA k-tail — bitwise the portable tiny kernel (and
    /// therefore `ops::dot_fma`).
    ///
    /// # Safety
    /// Requires AVX2+FMA (checked by backend selection).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn nt_tiny(a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        let k = a.cols();
        let n = rhs.rows();
        for (ai, o_row) in out.data_mut().chunks_exact_mut(n).enumerate() {
            let a_row = a.row(ai);
            if k < KC {
                for (w_row, o) in rhs.data().chunks_exact(k).zip(o_row.iter_mut()) {
                    let mut tail = 0.0f64;
                    for (x, w) in a_row.iter().zip(w_row) {
                        tail = x.mul_add(*w, tail);
                    }
                    *o = 0.0 + tail;
                }
            } else {
                // One or two full KC chunks (k ≤ 2·KC), then the scalar
                // tail — chunk boundaries exactly as `ops::dot_fma`.
                let chunks = k / KC;
                let x_tail = &a_row[chunks * KC..];
                for (w_row, o) in rhs.data().chunks_exact(k).zip(o_row.iter_mut()) {
                    let mut lo = _mm256_setzero_pd();
                    let mut hi = _mm256_setzero_pd();
                    for c in 0..chunks {
                        let xp = a_row.as_ptr().add(c * KC);
                        let wp = w_row.as_ptr().add(c * KC);
                        lo = _mm256_fmadd_pd(_mm256_loadu_pd(xp), _mm256_loadu_pd(wp), lo);
                        hi = _mm256_fmadd_pd(
                            _mm256_loadu_pd(xp.add(4)),
                            _mm256_loadu_pd(wp.add(4)),
                            hi,
                        );
                    }
                    let mut tail = 0.0f64;
                    for (x, w) in x_tail.iter().zip(&w_row[chunks * KC..]) {
                        tail = x.mul_add(*w, tail);
                    }
                    *o = lane_sum_256(lo, hi) + tail;
                }
            }
        }
    }

    /// The row sweep of [`matmul_nt`], feature-gated as a whole so
    /// [`nt_block`] inlines into it — at small `k` (e.g. im2col'd conv
    /// kernels) a per-4-outputs call would otherwise dominate.
    ///
    /// # Safety
    /// Requires AVX2+FMA (checked by backend selection).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn nt_rows(a: &Matrix, rhs: &Matrix, packed: &[f64], out: &mut Matrix) {
        let k = a.cols();
        let n = rhs.rows();
        let blocks = n / JT;
        for (ai, o_row) in out.data_mut().chunks_exact_mut(n).enumerate() {
            let a_row = a.row(ai);
            for b in 0..blocks {
                nt_block(
                    a_row,
                    &packed[b * JT * k..(b + 1) * JT * k],
                    &mut o_row[b * JT..],
                );
            }
            for (j, o) in o_row.iter_mut().enumerate().skip(blocks * JT) {
                *o = ops::dot_fma(a_row, rhs.row(j));
            }
        }
    }

    /// `out += aᵀ · rhs`: the portable 4-output-row tiling with the inner
    /// column sweep as packed FMA. Per element the accumulation is
    /// `out[j][i] ← fma(a[b][j], rhs[b][i], out[j][i])` for `b` strictly
    /// increasing — bitwise the portable order.
    ///
    /// # Safety
    /// Requires AVX2+FMA (checked by backend selection).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn matmul_tn_acc(a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        let m = a.cols();
        let n = rhs.cols();
        let a_data = a.data();
        let x_data = rhs.data();
        let out_data = out.data_mut();
        let mut j = 0;
        while j + JT <= m {
            let block = &mut out_data[j * n..(j + JT) * n];
            let (o0, rest) = block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            for (a_row, x_row) in a_data.chunks_exact(m).zip(x_data.chunks_exact(n)) {
                let a0 = _mm256_set1_pd(a_row[j]);
                let a1 = _mm256_set1_pd(a_row[j + 1]);
                let a2 = _mm256_set1_pd(a_row[j + 2]);
                let a3 = _mm256_set1_pd(a_row[j + 3]);
                let mut i = 0;
                while i + 4 <= n {
                    let x = _mm256_loadu_pd(x_row.as_ptr().add(i));
                    let p0 = _mm256_loadu_pd(o0.as_ptr().add(i));
                    _mm256_storeu_pd(o0.as_mut_ptr().add(i), _mm256_fmadd_pd(a0, x, p0));
                    let p1 = _mm256_loadu_pd(o1.as_ptr().add(i));
                    _mm256_storeu_pd(o1.as_mut_ptr().add(i), _mm256_fmadd_pd(a1, x, p1));
                    let p2 = _mm256_loadu_pd(o2.as_ptr().add(i));
                    _mm256_storeu_pd(o2.as_mut_ptr().add(i), _mm256_fmadd_pd(a2, x, p2));
                    let p3 = _mm256_loadu_pd(o3.as_ptr().add(i));
                    _mm256_storeu_pd(o3.as_mut_ptr().add(i), _mm256_fmadd_pd(a3, x, p3));
                    i += 4;
                }
                let (s0, s1, s2, s3) = (a_row[j], a_row[j + 1], a_row[j + 2], a_row[j + 3]);
                for i in i..n {
                    let x = x_row[i];
                    o0[i] = s0.mul_add(x, o0[i]);
                    o1[i] = s1.mul_add(x, o1[i]);
                    o2[i] = s2.mul_add(x, o2[i]);
                    o3[i] = s3.mul_add(x, o3[i]);
                }
            }
            j += JT;
        }
        for j in j..m {
            let o_row = &mut out_data[j * n..(j + 1) * n];
            for (a_row, x_row) in a_data.chunks_exact(m).zip(x_data.chunks_exact(n)) {
                let s = a_row[j];
                let sv = _mm256_set1_pd(s);
                let mut i = 0;
                while i + 4 <= n {
                    let x = _mm256_loadu_pd(x_row.as_ptr().add(i));
                    let p = _mm256_loadu_pd(o_row.as_ptr().add(i));
                    _mm256_storeu_pd(o_row.as_mut_ptr().add(i), _mm256_fmadd_pd(sv, x, p));
                    i += 4;
                }
                for i in i..n {
                    o_row[i] = s.mul_add(x_row[i], o_row[i]);
                }
            }
        }
    }

    /// `y += aᵀ · x`, increasing-row axpy with **mul-then-add** (no FMA)
    /// per term — the exact `ops::axpy` arithmetic, vectorised.
    ///
    /// # Safety
    /// Requires AVX2 (checked by backend selection).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemv_t_acc(a: &Matrix, x: &[f64], y: &mut [f64]) {
        let cols = a.cols();
        for (xi, row) in x.iter().zip(a.data().chunks_exact(cols.max(1))) {
            let alpha = _mm256_set1_pd(*xi);
            let mut i = 0;
            while i + 4 <= cols {
                let r = _mm256_loadu_pd(row.as_ptr().add(i));
                let p = _mm256_loadu_pd(y.as_ptr().add(i));
                _mm256_storeu_pd(
                    y.as_mut_ptr().add(i),
                    _mm256_add_pd(p, _mm256_mul_pd(alpha, r)),
                );
                i += 4;
            }
            for i in i..cols {
                y[i] += xi * row[i];
            }
        }
    }

    /// Activation sweeps: `#[target_feature]` multiversioned wrappers
    /// around the shared portable impls — the callee is `#[inline]` into
    /// the feature-enabled caller, so the lane loops compile with the
    /// wider ISA while the per-element arithmetic (and therefore the
    /// bitwise result, including the `SATURATION_FLUSH` behaviour) is
    /// byte-for-byte the portable kernel's.
    macro_rules! mv {
        ($name:ident, $impl:path, ($($arg:ident : $ty:ty),*)) => {
            /// # Safety
            /// Requires AVX2+FMA (checked by backend selection).
            #[target_feature(enable = "avx2,fma")]
            pub(super) unsafe fn $name($($arg: $ty),*) {
                $impl($($arg),*)
            }
        };
    }

    mv!(vexp, ops::vexp_impl, (xs: &[f64], out: &mut [f64]));
    mv!(vsigmoid, ops::vsigmoid_impl, (gain: f64, xs: &[f64], out: &mut [f64]));
    mv!(vtanh, ops::vtanh_impl, (gain: f64, xs: &[f64], out: &mut [f64]));
    mv!(vsigmoid_deriv, ops::vsigmoid_deriv_impl, (gain: f64, ys: &[f64], out: &mut [f64]));
    mv!(vtanh_deriv, ops::vtanh_deriv_impl, (k: f64, ys: &[f64], out: &mut [f64]));
}

/// 8×4 register-blocked AVX2+FMA microkernels over packed panels;
/// bitwise-identical accumulation order to [`PortableBackend`].
#[cfg(target_arch = "x86_64")]
#[derive(Debug)]
pub struct Avx2Backend;

#[cfg(target_arch = "x86_64")]
static AVX2: Avx2Backend = Avx2Backend;

#[cfg(target_arch = "x86_64")]
impl ComputeBackend for Avx2Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::Avx2
    }

    fn matmul_nt(&self, a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        avx2::matmul_nt(a, rhs, out);
    }

    fn matmul_tn_acc(&self, a: &Matrix, rhs: &Matrix, out: &mut Matrix) {
        // Safety: backend selection verified avx2+fma support.
        unsafe { avx2::matmul_tn_acc(a, rhs, out) }
    }

    fn gemv_t_acc(&self, a: &Matrix, x: &[f64], y: &mut [f64]) {
        // Safety: backend selection verified avx2 support.
        unsafe { avx2::gemv_t_acc(a, x, y) }
    }

    fn vexp(&self, xs: &[f64], out: &mut [f64]) {
        // Safety: backend selection verified avx2+fma support.
        unsafe { avx2::vexp(xs, out) }
    }

    fn vsigmoid(&self, gain: f64, xs: &[f64], out: &mut [f64]) {
        // Safety: backend selection verified avx2+fma support.
        unsafe { avx2::vsigmoid(gain, xs, out) }
    }

    fn vtanh(&self, gain: f64, xs: &[f64], out: &mut [f64]) {
        // Safety: backend selection verified avx2+fma support.
        unsafe { avx2::vtanh(gain, xs, out) }
    }

    fn vsigmoid_deriv(&self, gain: f64, ys: &[f64], out: &mut [f64]) {
        // Safety: backend selection verified avx2+fma support.
        unsafe { avx2::vsigmoid_deriv(gain, ys, out) }
    }

    fn vtanh_deriv(&self, k: f64, ys: &[f64], out: &mut [f64]) {
        // Safety: backend selection verified avx2+fma support.
        unsafe { avx2::vtanh_deriv(k, ys, out) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mats(b: usize, k: usize, n: usize) -> (Matrix, Matrix) {
        let a = Matrix::from_fn(b, k, |r, c| ((r * k + c) as f64 * 0.37).sin());
        let w = Matrix::from_fn(n, k, |r, c| ((r * k + c) as f64 * 0.23).cos());
        (a, w)
    }

    #[test]
    fn parse_vocabulary_roundtrips_and_rejects() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Ok(kind));
        }
        assert_eq!(BackendKind::parse("AVX2"), Ok(BackendKind::Avx2));
        assert_eq!(BackendKind::parse(" auto "), Ok(BackendKind::detect_best()));
        assert!(BackendKind::parse("sse9").is_err());
        assert!(BackendKind::parse("mixed32").is_err());
    }

    #[test]
    fn portable_is_always_supported() {
        assert!(BackendKind::Portable.is_supported());
        assert!(supported_kinds().contains(&BackendKind::Portable));
        assert!(BackendKind::detect_best().is_supported());
    }

    #[test]
    fn with_backend_scopes_and_restores() {
        let ambient = active_kind();
        let best = BackendKind::detect_best();
        let inner = with_backend(BackendKind::Portable, || {
            assert_eq!(active_kind(), BackendKind::Portable);
            // Nested scopes stack.
            with_backend(best, || {
                assert_eq!(active_kind(), best);
            });
            assert_eq!(active_kind(), BackendKind::Portable);
            active()
        });
        assert_eq!(inner.kind(), BackendKind::Portable);
        assert_eq!(active_kind(), ambient);
    }

    #[test]
    fn tiny_k_path_is_bitwise_dot_fma_on_every_backend() {
        // K ≤ 16 takes the tiny-K specialization (no packing, no 4-row
        // tiling); K = 17 is the first general-kernel width. Every
        // element must equal the `ops::dot_fma` reference bitwise on
        // every backend — the specialization is a speed change, never a
        // value change.
        for k in 1..=17usize {
            let (a, w) = mats(5, k, 7);
            for kind in supported_kinds() {
                let mut got = Matrix::zeros(5, 7);
                backend_for(kind).matmul_nt(&a, &w, &mut got);
                for r in 0..5 {
                    for j in 0..7 {
                        assert_eq!(
                            got.get(r, j).to_bits(),
                            crate::ops::dot_fma(a.row(r), w.row(j)).to_bits(),
                            "k={k} kind={kind:?} ({r},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simd_nt_matches_portable_bitwise() {
        // Shapes exercising full tiles, k-tails, and rhs-row remainders.
        for (b, k, n) in [
            (1usize, 5usize, 1usize),
            (6, 24, 10),
            (4, 9, 7),
            (2, 64, 3),
            (5, 8, 4),
        ] {
            let (a, w) = mats(b, k, n);
            let mut want = Matrix::zeros(b, n);
            backend_for(BackendKind::Portable).matmul_nt(&a, &w, &mut want);
            for kind in supported_kinds() {
                if kind == BackendKind::Portable {
                    continue;
                }
                let mut got = Matrix::zeros(b, n);
                backend_for(kind).matmul_nt(&a, &w, &mut got);
                for r in 0..b {
                    for j in 0..n {
                        let (g, wv) = (got.get(r, j), want.get(r, j));
                        assert_eq!(
                            g.to_bits(),
                            wv.to_bits(),
                            "{} ({b},{k},{n}) at ({r},{j}): {g:e} vs {wv:e}",
                            kind.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simd_tn_acc_matches_portable_bitwise() {
        for (b, m, n) in [
            (6usize, 10usize, 5usize),
            (4, 7, 3),
            (9, 4, 8),
            (3, 5, 1),
            (2, 8, 9),
        ] {
            let a = Matrix::from_fn(b, m, |r, c| ((r * m + c) as f64 * 0.43).sin());
            let x = Matrix::from_fn(b, n, |r, c| ((r * n + c) as f64 * 0.27).cos());
            let seed = Matrix::from_fn(m, n, |r, c| (r as f64 - c as f64) * 0.01);
            let mut want = seed.clone();
            backend_for(BackendKind::Portable).matmul_tn_acc(&a, &x, &mut want);
            for kind in supported_kinds() {
                if kind == BackendKind::Portable {
                    continue;
                }
                let mut got = seed.clone();
                backend_for(kind).matmul_tn_acc(&a, &x, &mut got);
                for j in 0..m {
                    for i in 0..n {
                        assert_eq!(
                            got.get(j, i).to_bits(),
                            want.get(j, i).to_bits(),
                            "{} ({b},{m},{n}) at ({j},{i})",
                            kind.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simd_gemv_t_acc_and_activations_match_portable_bitwise() {
        let a = Matrix::from_fn(7, 13, |r, c| ((r * 13 + c) as f64 * 0.31).sin());
        let x: Vec<f64> = (0..7).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut want = vec![0.25; 13];
        backend_for(BackendKind::Portable).gemv_t_acc(&a, &x, &mut want);
        let xs: Vec<f64> = (-40..40).map(|i| i as f64 * 0.31).collect();
        let mut act_want = vec![0.0; xs.len()];
        for kind in supported_kinds() {
            if kind == BackendKind::Portable {
                continue;
            }
            let be = backend_for(kind);
            let mut got = vec![0.25; 13];
            be.gemv_t_acc(&a, &x, &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "{} gemv_t_acc", kind.name());
            }
            let mut act_got = vec![0.0; xs.len()];
            backend_for(BackendKind::Portable).vsigmoid(1.3, &xs, &mut act_want);
            be.vsigmoid(1.3, &xs, &mut act_got);
            assert_eq!(act_got, act_want, "{} vsigmoid", kind.name());
            backend_for(BackendKind::Portable).vtanh(0.8, &xs, &mut act_want);
            be.vtanh(0.8, &xs, &mut act_got);
            assert_eq!(act_got, act_want, "{} vtanh", kind.name());
            backend_for(BackendKind::Portable).vsigmoid_deriv(4.0, &xs, &mut act_want);
            be.vsigmoid_deriv(4.0, &xs, &mut act_got);
            assert_eq!(act_got, act_want, "{} vsigmoid_deriv", kind.name());
        }
    }
}
