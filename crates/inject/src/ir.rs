//! Admission-time plan compilation: validate → normalize → compile → cache.
//!
//! Every long-lived consumer of injection plans (the registry, the serving
//! engine, campaign schedulers) used to compile plans ad hoc and pick an
//! evaluation engine at each call site. This module is the front door that
//! replaces that: a plan is **admitted** once, at registration time, into a
//! normalized [`PlanIr`] —
//!
//! * **validate** — out-of-range or duplicate sites are rejected here, once,
//!   with the usual typed [`PlanError`]s; nothing downstream revalidates;
//! * **normalize** — sites are canonicalized (neuron sites sorted per
//!   layer, synapse sites bucketed by layer in plan order) and the plan's
//!   *structure* — site positions, fault kinds, capacity — is separated
//!   from its fault *values* (stuck-at levels, Byzantine strategies and
//!   deviations);
//! * **compile** — the structure becomes a shared, value-independent
//!   *body* (a value-canonical [`CompiledPlan`] with resolved crash
//!   weights and a precomputed first-faulty-layer); plans equal up to
//!   fault value dedup onto **one** body ([`AdmissionStats::dedup_hits`]),
//!   and each admitted plan materializes its executable by merging its
//!   values into the shared body — no per-plan validation or weight
//!   resolution;
//! * **cache** — bodies are remembered in-process and, when an
//!   [`ArtifactStore`] is attached, published as compiled-plan records
//!   (record kind 2), so a restarted process warm-starts admission from
//!   disk with the record re-verified bitwise against the live network.
//!
//! Identities are the caller's [`NetId`] (computed once per network by
//! its owner, never here) plus a hash of the canonical structure bytes —
//! and, as everywhere else in the store/cache stack, *hashes index, bytes
//! prove*: every dedup or warm hit is confirmed by byte comparison /
//! bitwise re-validation before a body is shared.

use std::sync::Arc;

use neurofail_nn::{Mlp, NetId};
use neurofail_tensor::io::{checksum64, ByteWriter};

use crate::executor::{CompiledPlan, PlanError, PlanValues};
use crate::plan::{InjectionPlan, NeuronFault, SynapseFault, SynapseTarget};
use crate::store::ArtifactStore;

/// A plan admitted through the pipeline: the normalized intermediate
/// representation every engine downstream consumes.
///
/// The IR couples three things: the content identities (`net_hash`,
/// `structure_hash`, `value_hash`) that make plans addressable and
/// dedupable; the shared, value-independent [`body`](PlanIr::body) (one
/// `Arc` per *structure*, not per plan); and the materialized
/// [`compiled`](PlanIr::compiled) executable the engines run.
#[derive(Debug, Clone)]
pub struct PlanIr {
    net_hash: u64,
    structure_hash: u64,
    value_hash: u64,
    first_faulty_layer: usize,
    body: Arc<CompiledPlan>,
    compiled: CompiledPlan,
}

impl PlanIr {
    /// Hash of the canonical structure bytes (sites, fault kinds,
    /// capacity — fault values excluded). Plans sharing this (and the
    /// net hash) share one compiled body.
    pub fn structure_hash(&self) -> u64 {
        self.structure_hash
    }

    /// Hash of the fault values. `(net_hash, structure_hash, value_hash)`
    /// is the full plan identity: two admitted plans agreeing on all
    /// three evaluate identically, which is what lets engines evaluate
    /// one representative and fan the result out.
    pub fn value_hash(&self) -> u64 {
        self.value_hash
    }

    /// The precomputed first faulty layer (see
    /// [`CompiledPlan::first_faulty_layer`]) — a property of the structure,
    /// shared by the whole body family.
    pub fn first_faulty_layer(&self) -> usize {
        self.first_faulty_layer
    }

    /// The shared value-independent body. Plans equal up to fault value
    /// return the *same allocation* here ([`PlanIr::shares_body_with`]).
    pub fn body(&self) -> &Arc<CompiledPlan> {
        &self.body
    }

    /// The materialized executable (body + this plan's fault values).
    pub fn compiled(&self) -> &CompiledPlan {
        &self.compiled
    }

    /// Whether two admitted plans dedup onto one compiled body (pointer
    /// identity — the strongest possible sharing witness).
    pub fn shares_body_with(&self, other: &PlanIr) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// The full plan identity `(net_hash, structure_hash, value_hash)`.
    pub fn plan_key(&self) -> (u64, u64, u64) {
        (self.net_hash, self.structure_hash, self.value_hash)
    }
}

/// Exact counters of everything the admission pipeline did — the "exact
/// counter accounting" behind the dedup claims: `admitted` plans landed on
/// `bodies_compiled + warm_admissions` distinct bodies, with `dedup_hits`
/// admissions that compiled nothing at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Plans admitted successfully.
    pub admitted: u64,
    /// Plans rejected with a typed [`PlanError`].
    pub rejected: u64,
    /// Admissions that reused an in-process body (no compile, no store).
    pub dedup_hits: u64,
    /// Bodies compiled from scratch (validate + resolve weights).
    pub bodies_compiled: u64,
    /// Bodies loaded and bitwise re-verified from the artifact store.
    pub warm_admissions: u64,
    /// Compiled-plan records newly published to the artifact store.
    pub store_publishes: u64,
}

#[derive(Debug, Clone)]
struct BodyEntry {
    id: NetId,
    structure_hash: u64,
    structure: Vec<u8>,
    body: Arc<CompiledPlan>,
}

/// The admission pipeline's in-process state: the body cache and its
/// counters. One lives inside every
/// [`PlanRegistry`](crate::PlanRegistry); standalone use is possible for
/// engines that manage plans without a registry.
#[derive(Debug, Clone, Default)]
pub struct Admission {
    bodies: Vec<BodyEntry>,
    stats: AdmissionStats,
}

impl Admission {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Number of distinct compiled bodies currently cached.
    pub fn body_count(&self) -> usize {
        self.bodies.len()
    }

    /// Admit `plan` against `net`, whose identity the caller passes as
    /// `id` (`NetId::of(net)`), under capacity `capacity`, optionally
    /// consulting/feeding an [`ArtifactStore`] (compiled-plan records,
    /// kind 2) for warm-started admission across restarts.
    ///
    /// # Errors
    /// [`PlanError`] on any out-of-range or duplicate site — rejected
    /// here, once; admitted IRs never revalidate.
    ///
    /// # Panics
    /// If `capacity` is not positive (same contract as
    /// [`CompiledPlan::compile`]).
    pub fn admit(
        &mut self,
        net: &Arc<Mlp>,
        id: &NetId,
        plan: &InjectionPlan,
        capacity: f64,
        mut store: Option<&mut ArtifactStore>,
    ) -> Result<PlanIr, PlanError> {
        assert!(capacity > 0.0, "capacity must be positive");
        let depth = net.depth();
        if let Some(structure) = plan_structure_bytes(plan, depth, capacity) {
            let structure_hash = checksum64(&structure);
            // Dedup: an in-process body with byte-equal structure.
            if let Some(entry) = self.body(id, structure_hash, &structure) {
                let body = Arc::clone(&entry.body);
                let ir = materialize(id.hash(), structure_hash, body, plan, depth);
                self.stats.dedup_hits += 1;
                self.stats.admitted += 1;
                return Ok(ir);
            }
            // Warm admission: a verified compiled-plan record on disk.
            if let Some(store) = store.as_deref_mut() {
                if let Some(body) = store.load_compiled_plan(net, id, &structure) {
                    let body = Arc::new(body);
                    self.bodies.push(BodyEntry {
                        id: self.held(id),
                        structure_hash,
                        structure,
                        body: Arc::clone(&body),
                    });
                    let ir = materialize(id.hash(), structure_hash, body, plan, depth);
                    self.stats.warm_admissions += 1;
                    self.stats.admitted += 1;
                    return Ok(ir);
                }
            }
        }
        // Cold path: full validate + compile, then split off the body.
        let compiled = match CompiledPlan::compile(plan, net, capacity) {
            Ok(c) => c,
            Err(e) => {
                self.stats.rejected += 1;
                return Err(e);
            }
        };
        Ok(self.admit_compiled(id, compiled, store))
    }

    /// Admit an already-compiled plan (caller vouches it was compiled
    /// against the network `id` identifies) — the compiled-plan mirror of
    /// [`PlanRegistry::register_compiled`](crate::PlanRegistry::register_compiled).
    pub fn admit_compiled(
        &mut self,
        id: &NetId,
        compiled: CompiledPlan,
        mut store: Option<&mut ArtifactStore>,
    ) -> PlanIr {
        let net_hash = id.hash();
        let (body, values) = compiled.split_values();
        let structure = body.structure_bytes();
        let structure_hash = checksum64(&structure);
        let value_hash = values_hash(&values);
        let first_faulty_layer = compiled.first_faulty_layer();
        // A structurally equal body may already be cached (the compiled
        // entry point skips the plan-level probe).
        let body = match self.body(id, structure_hash, &structure) {
            Some(entry) => {
                let body = Arc::clone(&entry.body);
                self.stats.dedup_hits += 1;
                body
            }
            None => {
                let body = Arc::new(body);
                if let Some(store) = store.take() {
                    if let Ok(true) = store.store_compiled_plan(net_hash, &structure, &body) {
                        self.stats.store_publishes += 1;
                    }
                }
                self.bodies.push(BodyEntry {
                    id: self.held(id),
                    structure_hash,
                    structure,
                    body: Arc::clone(&body),
                });
                self.stats.bodies_compiled += 1;
                body
            }
        };
        self.stats.admitted += 1;
        PlanIr {
            net_hash,
            structure_hash,
            value_hash,
            first_faulty_layer,
            body,
            compiled,
        }
    }

    /// The cached body for `(id, structure)`: hashes index, bytes prove.
    fn body(&self, id: &NetId, structure_hash: u64, structure: &[u8]) -> Option<&BodyEntry> {
        self.bodies
            .iter()
            .find(|b| b.structure_hash == structure_hash && b.id == *id && b.structure == structure)
    }

    /// `id`, sharing the bytes of an equal identity the body cache already
    /// holds, so the cache keeps one allocation per network.
    fn held(&self, id: &NetId) -> NetId {
        let held = self.bodies.iter().map(|b| &b.id).find(|&b| b == id);
        held.unwrap_or(id).clone()
    }
}

/// Materialize an IR from a shared body and the plan's own fault values.
/// Only reachable after the body's structure bytes were proven equal to
/// the plan's, so the value slots line up by construction.
fn materialize(
    net_hash: u64,
    structure_hash: u64,
    body: Arc<CompiledPlan>,
    plan: &InjectionPlan,
    depth: usize,
) -> PlanIr {
    let values = plan_values(plan, depth);
    let compiled = CompiledPlan::merge_values(&body, &values);
    PlanIr {
        net_hash,
        structure_hash,
        value_hash: values_hash(&values),
        first_faulty_layer: body.first_faulty_layer(),
        body,
        compiled,
    }
}

fn values_hash(values: &PlanValues) -> u64 {
    let mut w = ByteWriter::new();
    values.encode(&mut w);
    checksum64(&w.into_bytes())
}

/// The canonical value-independent structure encoding of `plan` under
/// `capacity`, byte-identical to
/// `CompiledPlan::structure_bytes` over the compiled form — computable
/// **without** compiling, which is what lets dedup and warm admission
/// skip validation and weight resolution entirely.
///
/// Returns `None` when a site's layer index cannot be bucketed (out of
/// range) — such plans take the cold path, where compilation produces the
/// typed rejection.
pub fn plan_structure_bytes(plan: &InjectionPlan, depth: usize, capacity: f64) -> Option<Vec<u8>> {
    let mut neuron: Vec<Vec<(usize, u64)>> = vec![Vec::new(); depth];
    for s in &plan.neurons {
        if s.layer >= depth {
            return None;
        }
        let tag = match s.fault {
            NeuronFault::Crash => 0,
            NeuronFault::StuckAt(_) => 1,
            NeuronFault::Byzantine(_) => 2,
        };
        neuron[s.layer].push((s.neuron, tag));
    }
    for sites in &mut neuron {
        sites.sort_by_key(|&(n, _)| n);
    }
    let mut hidden: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); depth];
    let mut output: Vec<(usize, u64)> = Vec::new();
    for s in &plan.synapses {
        let tag = match s.fault {
            SynapseFault::Crash => 0,
            SynapseFault::Byzantine(_) => 1,
        };
        match s.target {
            SynapseTarget::Hidden { layer, to, from } => {
                if layer >= depth {
                    return None;
                }
                hidden[layer].push((to, from, tag));
            }
            SynapseTarget::Output { from } => output.push((from, tag)),
        }
    }
    let mut w = ByteWriter::new();
    w.put_u64(depth as u64);
    for sites in &neuron {
        w.put_u64(sites.len() as u64);
        for &(n, tag) in sites {
            w.put_u64(n as u64);
            w.put_u64(tag);
        }
    }
    for sites in &hidden {
        w.put_u64(sites.len() as u64);
        for &(to, from, tag) in sites {
            w.put_u64(to as u64);
            w.put_u64(from as u64);
            w.put_u64(tag);
        }
    }
    w.put_u64(output.len() as u64);
    for &(from, tag) in &output {
        w.put_u64(from as u64);
        w.put_u64(tag);
    }
    w.put_u64(capacity.to_bits());
    Some(w.into_bytes())
}

/// Extract `plan`'s fault values in canonical site order — the order
/// [`CompiledPlan::merge_values`] consumes (layers ascending, neuron sites
/// sorted by neuron, hidden synapse sites in plan order per layer, output
/// sites last).
fn plan_values(plan: &InjectionPlan, depth: usize) -> PlanValues {
    let mut values = PlanValues::default();
    let mut neuron: Vec<Vec<(usize, &NeuronFault)>> = vec![Vec::new(); depth];
    for s in &plan.neurons {
        neuron[s.layer].push((s.neuron, &s.fault));
    }
    for sites in &mut neuron {
        sites.sort_by_key(|&(n, _)| n);
        for (_, fault) in sites.iter() {
            values.push_neuron(fault);
        }
    }
    for layer in 0..depth {
        for s in &plan.synapses {
            if matches!(s.target, SynapseTarget::Hidden { layer: l, .. } if l == layer) {
                values.push_synapse(&s.fault);
            }
        }
    }
    for s in &plan.synapses {
        if matches!(s.target, SynapseTarget::Output { .. }) {
            values.push_synapse(&s.fault);
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ByzantineStrategy, NeuronSite, SynapseSite};
    use neurofail_nn::activation::Activation;
    use neurofail_nn::MlpBuilder;
    use neurofail_tensor::init::Init;

    fn net() -> Arc<Mlp> {
        Arc::new(
            MlpBuilder::new(3)
                .dense(4, Activation::Tanh { k: 1.0 })
                .dense(3, Activation::Sigmoid { k: 1.0 })
                .init(Init::Xavier)
                .build(&mut neurofail_data::rng::rng(11)),
        )
    }

    fn stuck_plan(v: f64) -> InjectionPlan {
        InjectionPlan {
            neurons: vec![NeuronSite {
                layer: 1,
                neuron: 2,
                fault: NeuronFault::StuckAt(v),
            }],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Output { from: 0 },
                fault: SynapseFault::Byzantine(0.5),
            }],
        }
    }

    #[test]
    fn structure_bytes_agree_between_plan_and_compiled_forms() {
        let net = net();
        for plan in [
            InjectionPlan::none(),
            InjectionPlan::crash([(0, 1), (1, 2)]),
            InjectionPlan::byzantine([(1, 0)], ByzantineStrategy::Random { seed: 9 }),
            stuck_plan(0.25),
        ] {
            let compiled = CompiledPlan::compile(&plan, &net, 2.0).unwrap();
            let (body, _) = compiled.split_values();
            let from_plan = plan_structure_bytes(&plan, net.depth(), 2.0).unwrap();
            assert_eq!(from_plan, body.structure_bytes(), "{plan:?}");
        }
    }

    #[test]
    fn equal_up_to_fault_value_shares_one_body_with_distinct_values() {
        let net = net();
        let id = NetId::of(&net);
        let mut adm = Admission::new();
        let a = adm.admit(&net, &id, &stuck_plan(0.25), 2.0, None).unwrap();
        let b = adm.admit(&net, &id, &stuck_plan(-0.75), 2.0, None).unwrap();
        assert!(a.shares_body_with(&b));
        assert_eq!(a.structure_hash(), b.structure_hash());
        assert_ne!(a.value_hash(), b.value_hash());
        assert_eq!(adm.stats().bodies_compiled, 1);
        assert_eq!(adm.stats().dedup_hits, 1);
        assert_eq!(adm.body_count(), 1);
        // The materialized executables really carry distinct values.
        let x = [0.2, -0.1, 0.4];
        let mut ws = neurofail_nn::Workspace::for_net(&net);
        let ea = a.compiled().output_error(&net, &x, &mut ws);
        let eb = b.compiled().output_error(&net, &x, &mut ws);
        assert_ne!(ea.to_bits(), eb.to_bits());
        // And the dedup-materialized plan is bitwise the cold compile.
        let direct = CompiledPlan::compile(&stuck_plan(-0.75), &net, 2.0).unwrap();
        assert_eq!(
            eb.to_bits(),
            direct.output_error(&net, &x, &mut ws).to_bits()
        );
    }

    #[test]
    fn rejection_is_typed_and_counted() {
        let net = net();
        let id = NetId::of(&net);
        let mut adm = Admission::new();
        assert!(matches!(
            adm.admit(&net, &id, &InjectionPlan::crash([(7, 0)]), 1.0, None),
            Err(PlanError::BadNeuron { layer: 7, .. })
        ));
        assert!(matches!(
            adm.admit(&net, &id, &InjectionPlan::crash([(0, 99)]), 1.0, None),
            Err(PlanError::BadNeuron { neuron: 99, .. })
        ));
        assert_eq!(adm.stats().rejected, 2);
        assert_eq!(adm.stats().admitted, 0);
        assert_eq!(adm.body_count(), 0);
    }

    #[test]
    fn different_capacity_is_a_different_structure() {
        let net = net();
        let id = NetId::of(&net);
        let mut adm = Admission::new();
        let a = adm.admit(&net, &id, &stuck_plan(0.25), 2.0, None).unwrap();
        let b = adm.admit(&net, &id, &stuck_plan(0.25), 3.0, None).unwrap();
        assert!(!a.shares_body_with(&b));
        assert_eq!(adm.stats().bodies_compiled, 2);
    }
}
