//! # neurofail-par
//!
//! A small, deterministic data-parallel runtime used by the `neurofail`
//! workspace for fault-injection campaigns and input sweeps.
//!
//! The paper ("When Neurons Fail", El Mhamdi & Guerraoui, IPPS 2017) points
//! out that *experimentally* assessing the robustness of a network "requires
//! the costly experiment of looking at all the possible inputs and testing
//! all the possible configurations of the network [...] facing a discouraging
//! combinatorial explosion". The experimental half of this workspace attacks
//! that explosion with Monte-Carlo sampling and adversarial search, both of
//! which are embarrassingly parallel across `(injection plan, input)` pairs.
//! This crate provides the parallel substrate:
//!
//! * [`Parallelism`] — a tiny execution policy (sequential or N worker
//!   threads) carried by every campaign API in the workspace.
//! * [`parallel_map`] / [`for_each_index`] / [`parallel_reduce`] — chunked,
//!   order-preserving data-parallel combinators built on
//!   `std::thread::scope` (no `'static` bound on closures or data).
//! * [`seed::SeedSequence`] — deterministic per-task RNG seed derivation so
//!   results are *identical* regardless of thread count or scheduling.
//! * [`channel`] — bounded FIFO channels with deadline receives and clean
//!   disconnect semantics, the backpressure substrate of the serving
//!   engine's micro-batching queues (`neurofail-serve`).
//! * [`oneshot`] — a first-fill-wins slot resolved once and awaited with
//!   an optional timeout: serve's response handles and the fleet
//!   router's request/reply handshakes.
//!
//! Design notes (following the workspace HPC guides):
//!
//! * Work is claimed in chunks through a shared `AtomicUsize` cursor rather
//!   than pre-partitioned, so stragglers (e.g. adversarial searches that
//!   terminate early) do not idle whole threads.
//! * Combinators avoid per-item allocation; outputs are written through
//!   per-chunk buffers merged once at the end.
//! * Everything is safe Rust; determinism is part of the contract and is
//!   enforced by tests in this crate and property tests downstream.

#![warn(missing_docs)]

pub mod channel;
pub mod combinators;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod oneshot;
pub mod policy;
pub mod seed;

pub use combinators::{for_each_index, parallel_map, parallel_reduce, parallel_sum};
pub use policy::Parallelism;
pub use seed::SeedSequence;

/// Fire the named chaos injection site (see the `failpoint` module,
/// compiled with `--features failpoints`): panics or stalls the calling
/// thread when an installed `failpoint::ChaosSchedule` says so. Expands to
/// **nothing** unless the *invoking* crate enables its `failpoints`
/// feature (which forwards to `neurofail-par/failpoints`), so production
/// builds carry zero code at every site.
///
/// ```ignore
/// neurofail_par::failpoint!("serve::flush");
/// ```
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            $crate::failpoint::hit($site);
        }
    }};
}

/// Fire the named injection site at a rejection-capable call site: yields
/// `true` when a `failpoint::ChaosAction::Reject` arm fires (the caller
/// must take its backpressure branch, e.g. return a synthetic
/// `QueueFull`), and behaves like [`failpoint!`] otherwise. Expands to a
/// constant `false` unless the invoking crate enables its `failpoints`
/// feature.
#[macro_export]
macro_rules! failpoint_reject {
    ($site:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            $crate::failpoint::hit_reject($site)
        }
        #[cfg(not(feature = "failpoints"))]
        {
            false
        }
    }};
}
