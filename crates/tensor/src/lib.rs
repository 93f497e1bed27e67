//! # neurofail-tensor
//!
//! Dense linear algebra for the `neurofail` workspace: a row-major [`Matrix`]
//! with cache-friendly matrix–vector kernels, numerically stable slice
//! reductions, weight initialisers, and online statistics.
//!
//! Everything is `f64`. The workloads in this workspace are inference over
//! small/medium multilayer perceptrons (the paper's model) plus large
//! Monte-Carlo campaigns *around* them, so the kernels optimise for:
//!
//! * `gemv`-shaped traffic (forward passes dominate; row-major layout makes
//!   `y = W·x` a sequence of contiguous dot products),
//! * stable accumulation ([`ops::kahan_sum`], [`ops::dot`] with unrolled
//!   independent accumulators) because the paper's bounds are compared
//!   against measured errors near the 1e-12 scale in tightness tests,
//! * zero-allocation in hot loops (`gemv_into`-style APIs throughout).
//!
//! No external BLAS: the workspace builds every substrate from scratch.
//! The GEMM and activation kernels are dispatched at runtime through
//! [`backend`]: the portable tiled kernels are the bit-baseline, and the
//! AVX2 microkernels, selected by CPU feature detection or the
//! `NEUROFAIL_BACKEND` override, reproduce them bitwise.

#![warn(missing_docs)]

pub mod backend;
pub mod init;
pub mod io;
pub mod matrix;
pub mod ops;
pub mod stats;

pub use backend::{BackendKind, ComputeBackend};
pub use io::{checksum64, checksum64_words, ByteReader, ByteWriter, DecodeError, MappedFile};
pub use matrix::Matrix;
pub use stats::{OnlineStats, Summary};
