//! Admission: one [`CompiledPlan::compile`] per registered plan.
//!
//! Every long-lived consumer of injection plans (the registry, the serving
//! engine, the fleet router) admits a plan once, at registration, by
//! compiling it. Compilation is where out-of-range or duplicate sites are
//! rejected with the usual typed [`PlanError`](crate::PlanError)s;
//! nothing downstream revalidates. A [`PlanIr`] keeps the compiled
//! executable plus the facts downstream code reads on its hot paths:
//!
//! * [`first_faulty_layer`](PlanIr::first_faulty_layer), the first layer
//!   the plan faults — a resume starts at it, or just after its
//!   activation when its only faults there are neurons
//!   ([`CompiledPlan::resume_start`], which serve flushes ask);
//! * [`plan_key`](PlanIr::plan_key), the full plan identity under which
//!   `eval_many` evaluates identical plans once;
//! * [`structure_hash`](PlanIr::structure_hash), which picks a fleet plan's
//!   home worker.
//!
//! Identities are the caller's [`NetId`] (computed once per network by
//! its owner, never here) plus hashes of the compiled plan's canonical
//! structure and value bytes.

use neurofail_nn::NetId;
use neurofail_tensor::io::checksum64;

use crate::executor::CompiledPlan;

/// A plan admitted through [`CompiledPlan::compile`]: the executable the
/// engines run, plus its identities and first faulty layer.
#[derive(Debug, Clone)]
pub struct PlanIr {
    net_hash: u64,
    structure_hash: u64,
    value_hash: u64,
    first_faulty_layer: usize,
    compiled: CompiledPlan,
}

impl PlanIr {
    /// Admit `compiled`, which the caller compiled against the network
    /// `id` identifies.
    pub fn new(id: &NetId, compiled: CompiledPlan) -> PlanIr {
        PlanIr {
            net_hash: id.hash(),
            structure_hash: checksum64(&compiled.structure_bytes()),
            value_hash: checksum64(&compiled.value_bytes()),
            first_faulty_layer: compiled.first_faulty_layer(),
            compiled,
        }
    }

    /// Hash of the canonical structure bytes (sites, fault kinds,
    /// capacity — fault values excluded).
    pub fn structure_hash(&self) -> u64 {
        self.structure_hash
    }

    /// The precomputed first faulty layer (see
    /// [`CompiledPlan::first_faulty_layer`]).
    pub fn first_faulty_layer(&self) -> usize {
        self.first_faulty_layer
    }

    /// The compiled executable.
    pub fn compiled(&self) -> &CompiledPlan {
        &self.compiled
    }

    /// The full plan identity `(net hash, structure hash, value hash)`:
    /// two admitted plans whose network identity, structure bytes and
    /// fault values are bitwise equal get equal keys, and evaluate
    /// identically — which is what lets engines evaluate one
    /// representative and fan the result out.
    pub fn plan_key(&self) -> (u64, u64, u64) {
        (self.net_hash, self.structure_hash, self.value_hash)
    }
}

/// Exact counters of a registry's admissions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Plans admitted successfully.
    pub admitted: u64,
    /// Plans rejected with a typed [`PlanError`](crate::PlanError).
    pub rejected: u64,
    /// Plans compiled at admission. Every registration compiles exactly
    /// once, so this always equals `admitted`.
    pub bodies_compiled: u64,
}
