//! # neurofail-inject
//!
//! The fault-injection engine of the `neurofail` workspace — the
//! experimental counterpart of `neurofail-core`'s analytic bounds:
//!
//! * [`plan`] — injection plans as pure data: crash / Byzantine / stuck-at
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
//!   [`CompiledPlan::resume_start`] — just after its first faulty layer
//!   for neuron faults, at it when a synapse enters it — bitwise equal to
//!   per-plan evaluation at a fraction of the flops.
//! * [`registry`] — long-lived sets of `(network, compiled plan)` pairs
//!   addressed by dense [`registry::PlanId`]s, the plan-sharding substrate
//!   of the serving engine (`neurofail-serve`).
//! * [`cache`] — the **one nominal-checkpoint path** for consumers that
//!   revisit input sets: a content-addressed LRU cache of nominal
//!   checkpoints ([`cache::CheckpointCache`], keyed by the network's
//!   [`NetId`](neurofail_nn::NetId) and the input set's hash), so a
//!   repeated input set skips even the one nominal pass, and a set that
//!   starts with a resident one pays only for its new rows. Serving
//!   workers, measured searches and `eval_many_cached` all get their
//!   checkpoints here.
//! * [`store`] — the cache's persistent disk tier, shareable across
//!   caches ([`store::SharedArtifactStore`]) and processes.
//! * [`ir`] — admission: one [`CompiledPlan::compile`] per registered
//!   plan (typed rejection), plus the plan's identities and first faulty
//!   layer, built from the caller's `NetId` without hashing a network.
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

pub use cache::{
    input_set_hash, net_content_hash, CacheStats, CachedCheckpoint, CheckpointCache,
    CheckpointSource,
};
pub use campaign::{
    merge_trials, run_campaign, run_campaign_trials, CampaignConfig, CampaignResult, TrialKind,
    TrialResult, WorstCase,
};
pub use executor::{CompiledPlan, PlanError, ResumeStart};
pub use ir::{AdmissionStats, PlanIr};
pub use multi::{output_error_many, MultiPlanEvaluator};
pub use plan::{ByzantineStrategy, InjectionPlan, NeuronFault, SynapseFault};
pub use planner::{Engine, Planner, PlannerStats, RequestMix};
pub use registry::{PlanId, PlanRegistry, RegisteredPlan};
pub use sampler::FaultSpec;
pub use store::{share_store, ArtifactStore, SharedArtifactStore, StoreStats};
