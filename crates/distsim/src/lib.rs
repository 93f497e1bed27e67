//! # neurofail-distsim
//!
//! The distributed-system view of a neural network (paper Section II),
//! executable three ways:
//!
//! * [`rounds`] — synchronous message-passing rounds with explicit message
//!   accounting; values bit-identical to the sequential forward pass.
//! * [`threaded`] — one OS thread per neuron over `std::sync::mpsc` channels ("each
//!   neuron as a single physical entity that can fail independently"),
//!   again bit-identical — the strongest demonstration that the distributed
//!   and mathematical models coincide.
//! * [`boost`] + [`latency`] — the Corollary 2 boosting scheme: per-neuron
//!   latency models, quorum waits (`N_l − f_l` signals), reset messages to
//!   stragglers, makespan/speedup accounting, and the output disturbance to
//!   compare against the crash-Fep bound.

#![warn(missing_docs)]

pub mod boost;
pub mod latency;
pub mod rounds;
pub mod threaded;

pub use boost::{run_boosted, BoostRun};
pub use latency::LatencyModel;
pub use rounds::{run_synchronous, RoundRun, RoundStats};
pub use threaded::{run_threaded, ThreadedError};
