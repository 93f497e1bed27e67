//! # neurofail-inject
//!
//! The fault-injection engine of the `neurofail` workspace — the
//! experimental counterpart of `neurofail-core`'s analytic bounds:
//!
//! * [`plan`] — serialisable injection plans: crash / Byzantine / stuck-at
//!   **neurons** (the paper's Definition 2) and crash / Byzantine
//!   **synapses** (Section II-A, Lemma 2), all under the capacity clamp of
//!   Assumption 1.
//! * [`executor`] — plans compiled against a network and applied through
//!   the forward pass's `Tap` hooks; measures `|F_neu(X) − F_fail(X)|`,
//!   the left side of Theorem 2's inequality.
//! * [`sampler`] / [`campaign`] — Monte-Carlo campaigns over random
//!   `(plan, input)` pairs, parallel and bit-reproducible for any thread
//!   count.
//! * [`exhaustive`] — the "discouraging combinatorial explosion" itself
//!   (full subset enumeration), kept so experiments can price it against
//!   the O(L) bound.
//! * [`adversary`] / [`input_search`] — the tightness playbook: kill the
//!   highest same-sign-weight neurons, then search the input cube for the
//!   disturbance maximiser (Theorem 1's equality cases).
//! * [`multi`] — the multi-plan **suffix engine**: one shared nominal pass
//!   per input set, each plan's faulty pass resumed at its
//!   [`CompiledPlan::first_faulty_layer`] — bitwise equal to per-plan
//!   evaluation at a fraction of the flops.
//! * [`registry`] — long-lived sets of `(network, compiled plan)` pairs
//!   addressed by dense [`registry::PlanId`]s, the plan-sharding substrate
//!   of the serving engine (`neurofail-serve`).
//! * [`cache`] / [`streaming`] — the **input-incremental engine**: a
//!   content-addressed LRU cache of nominal checkpoints
//!   ([`cache::CheckpointCache`]) so repeated evaluations over the same
//!   input set skip even the one nominal pass, and a
//!   [`streaming::StreamingEvaluator`] that certifies a fixed plan family
//!   against inputs arriving in chunks — new work proportional to
//!   (new inputs × suffix layers), never (all inputs × all layers).
//! * [`ir`] — the **admission pipeline** (validate → normalize → compile
//!   → cache: typed rejection, dedup of plans equal up to fault value onto
//!   one compiled body, warm-started admission from the [`store`]).
//! * [`planner`] — engine names and counters kept for the benchmark
//!   harness; no call path consults them.

#![warn(missing_docs)]

pub mod adversary;
pub mod cache;
pub mod campaign;
pub mod executor;
pub mod exhaustive;
pub mod input_search;
pub mod ir;
pub mod multi;
pub mod plan;
pub mod planner;
pub mod registry;
pub mod sampler;
pub mod store;
pub mod streaming;

pub use cache::{input_set_hash, net_content_hash, CacheStats, CachedCheckpoint, CheckpointCache};
pub use campaign::{
    merge_trials, run_campaign, run_campaign_trials, CampaignConfig, CampaignResult, TrialKind,
    TrialResult, WorstCase,
};
pub use executor::{CompiledPlan, PlanError};
pub use ir::{nets_content_equal, Admission, AdmissionStats, PlanIr};
pub use multi::{output_error_many, MultiPlanEvaluator};
/// Compute-backend selection, re-exported so injection campaigns can pin
/// or scope the kernel backend without depending on the tensor crate
/// directly (see [`neurofail_tensor::backend`]).
pub use neurofail_tensor::backend::{
    active_kind, detected_features, force_backend, supported_kinds, with_backend, BackendKind,
};
pub use plan::{ByzantineStrategy, InjectionPlan, NeuronFault, SynapseFault};
pub use planner::{Engine, Planner, PlannerStats, RequestMix};
pub use registry::{PlanId, PlanRegistry, RegisteredPlan};
pub use sampler::FaultSpec;
pub use store::{ArtifactStore, StoreStats};
pub use streaming::{StreamStats, StreamingEvaluator};
