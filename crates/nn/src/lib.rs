//! # neurofail-nn
//!
//! The feed-forward neural network substrate of the `neurofail` workspace —
//! the paper's Section II model, implemented literally and from scratch:
//!
//! * [`activation`] — K-tuned squashing functions with first-class Lipschitz
//!   constants (`K`) and suprema (`sup ϕ`), the two analytic quantities every
//!   bound consumes.
//! * [`layer`] / [`conv`] — dense layers (Equation 3) and convolutional
//!   layers with explicit receptive fields and shared kernels (Section VI).
//! * [`network`] — the [`network::Mlp`]: `L` layers plus a *linear output
//!   client node* (Equation 1), with [`network::Tap`] hooks exposing both
//!   failure sites of the paper's model (post-activation neuron outputs and
//!   pre-activation synapse sums) to the fault-injection engine. The
//!   batched twin — [`network::BatchWorkspace`], [`network::BatchTap`] and
//!   [`network::Mlp::forward_batch`] — evaluates whole input batches
//!   through one GEMM + one vectorised activation sweep per layer, and is
//!   the substrate of every campaign-scale workload in `neurofail-inject`
//!   and of the serving engine (`neurofail-serve`). Workspaces are
//!   shape-only state that [`network::BatchWorkspace::reshape`]s in place,
//!   reusing allocations — long-lived consumers evaluating varying batch
//!   sizes (tolerance searches, serving flush loops) allocate nothing in
//!   the steady state.
//! * [`topology`] — extraction of `(L, N_l, w_m^(l), K, sup ϕ)`, everything
//!   the analytical bounds need ("computing this quantity only requires
//!   looking at the topology of the network").
//! * [`train`] — backpropagation + SGD with momentum, weight decay and the
//!   Fep-aware penalty (the paper's closing research direction).
//! * [`metrics`] — sup-norm ε' estimation on deterministic point sets.
//! * [`serialize`] — the canonical byte encoding of a network and
//!   [`NetId`], the workspace's one network identity: those bytes plus
//!   their checksum, computed once per network by whoever owns it.
//!
//! Conventions: code layer indices are 0-based (`0..L`); the paper's layers
//! are 1-based (`1..=L`). Biases are weights from a constant neuron (paper
//! footnote 4); the output node is a client and performs no activation.

#![warn(missing_docs)]

pub mod activation;
pub mod builder;
pub mod conv;
pub mod layer;
pub mod metrics;
pub mod network;
pub mod serialize;
pub mod topology;
pub mod train;

pub use activation::Activation;
pub use builder::MlpBuilder;
pub use network::{BatchTap, BatchWorkspace, Layer, Mlp, NoBatchTap, NoTap, Tap, Workspace};
pub use serialize::{net_from_bytes, net_to_bytes, NetId, NET_FORMAT_VERSION};
pub use topology::Topology;
