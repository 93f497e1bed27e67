//! A registry of admitted plans ready for repeated, shared evaluation.
//!
//! Campaigns compile a plan, use it, and drop it. Long-lived consumers —
//! the serving engine (`neurofail-serve`), plan-sharded multi-process
//! campaigns — instead hold a *set* of `(network, admitted plan)` pairs
//! and route queries to them by id. [`PlanRegistry`] is that set: each
//! [`register`](PlanRegistry::register) compiles the plan once (typed
//! errors, see [`crate::ir`]) and returns a dense [`PlanId`], so
//! downstream engines can shard work per plan with plain indexing and no
//! hashing on the hot path.
//!
//! Networks are held behind [`Arc`] so one trained network can back many
//! registered plans (the common case: one net, a family of fault
//! hypotheses) without cloning its weights per plan. Registration also
//! assigns each plan a **family** — the group of plans over content-equal
//! networks (an `Arc` already registered, or an equal [`NetId`], proven
//! at registration, never re-checked on the hot path) — and the batch
//! evaluators run whole families through one shared nominal pass, with
//! identical plans sharing one evaluation. Each family computes its
//! network's `NetId` once; its plans share it
//! ([`RegisteredPlan::net_id`]).

use std::sync::Arc;

use neurofail_nn::{BatchWorkspace, Mlp, NetId};
use neurofail_tensor::Matrix;

use crate::executor::{CompiledPlan, PlanError};
use crate::ir::{AdmissionStats, PlanIr};
use crate::plan::InjectionPlan;
use crate::planner::Planner;

/// Dense identifier of a plan within a [`PlanRegistry`] (and the shard
/// index downstream engines key their per-plan workers by).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(pub usize);

impl std::fmt::Display for PlanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan#{}", self.0)
    }
}

/// One registered `(network, admitted plan)` pair.
#[derive(Debug, Clone)]
pub struct RegisteredPlan {
    net: Arc<Mlp>,
    net_id: NetId,
    ir: PlanIr,
    family: usize,
}

impl RegisteredPlan {
    /// The network the plan was admitted against.
    pub fn net(&self) -> &Arc<Mlp> {
        &self.net
    }

    /// The identity of [`net`](Self::net): its family's [`NetId`], bytes
    /// shared with every plan of the family.
    pub fn net_id(&self) -> &NetId {
        &self.net_id
    }

    /// The admitted plan: compiled executable, content identities,
    /// precomputed first faulty layer.
    pub fn ir(&self) -> &PlanIr {
        &self.ir
    }

    /// The compiled plan.
    pub fn compiled(&self) -> &CompiledPlan {
        self.ir.compiled()
    }

    /// Index of the content-equal network family this plan belongs to
    /// (assigned at registration; plans in one family may share nominal
    /// passes and shards bitwise-safely).
    pub fn family(&self) -> usize {
        self.family
    }

    /// Input dimension queries against this plan must have.
    pub fn input_dim(&self) -> usize {
        self.net.input_dim()
    }

    /// Disturbance `|F_neu(x) − F_fail(x)|` of a single input, evaluated
    /// as a **singleton batch** through
    /// [`CompiledPlan::output_error_batch`].
    ///
    /// This is the reference the serving engine's bitwise contract is
    /// stated against: by the batched engine's per-row independence, a
    /// served response coalesced into any batch equals this call exactly.
    pub fn eval_singleton(&self, x: &[f64], ws: &mut BatchWorkspace) -> f64 {
        let mut xs = Matrix::zeros(0, 0);
        self.eval_singleton_with(x, &mut xs, ws)
    }

    /// [`eval_singleton`](Self::eval_singleton) with a caller-provided
    /// `1 × d` scratch matrix, allocation-free once the scratch has grown
    /// — for loops that replay many singletons (e.g. request-log audits).
    pub fn eval_singleton_with(&self, x: &[f64], xs: &mut Matrix, ws: &mut BatchWorkspace) -> f64 {
        assert_eq!(
            x.len(),
            self.input_dim(),
            "eval_singleton: input dimension mismatch"
        );
        xs.resize(1, x.len());
        xs.row_mut(0).copy_from_slice(x);
        self.compiled().output_error_batch(&self.net, xs, ws)[0]
    }

    /// Batched disturbance over `xs` rows (delegates to
    /// [`CompiledPlan::output_error_batch`]).
    pub fn eval_batch(&self, xs: &Matrix, ws: &mut BatchWorkspace) -> Vec<f64> {
        self.compiled().output_error_batch(&self.net, xs, ws)
    }

    /// Batched disturbance through the suffix engine
    /// ([`CompiledPlan::output_error_resumed`]): the nominal pass goes to
    /// `ws_nominal` (the checkpoint) and the faulty pass resumes at the
    /// plan's first faulty layer into `ws_scratch`. Bitwise equal to
    /// [`eval_batch`](Self::eval_batch); this mirrors the serving
    /// engine's flush-loop logic (which inlines the same nominal +
    /// resume split so it can also serve multi-plan flushes) for callers
    /// that batch against a single registered plan.
    pub fn eval_batch_resumed(
        &self,
        xs: &Matrix,
        ws_nominal: &mut BatchWorkspace,
        ws_scratch: &mut BatchWorkspace,
    ) -> Vec<f64> {
        self.compiled()
            .output_error_resumed(&self.net, xs, ws_nominal, ws_scratch)
    }
}

/// An append-only collection of admitted plans addressed by [`PlanId`].
#[derive(Debug, Clone, Default)]
pub struct PlanRegistry {
    entries: Vec<RegisteredPlan>,
    /// Per network family, its first plan: the `Arc` family-grouped
    /// evaluations run against, and the `NetId` its plans share.
    families: Vec<usize>,
    admission: AdmissionStats,
    planner: Arc<Planner>,
}

impl PlanRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit `plan` against `net` under capacity `capacity` — one
    /// [`CompiledPlan::compile`] — and register it (see [`crate::ir`]).
    ///
    /// # Errors
    /// [`PlanError`] if the plan does not validate against the network.
    ///
    /// # Panics
    /// If `capacity` is not positive (as [`CompiledPlan::compile`]).
    pub fn register(
        &mut self,
        net: Arc<Mlp>,
        plan: &InjectionPlan,
        capacity: f64,
    ) -> Result<PlanId, PlanError> {
        match CompiledPlan::compile(plan, &net, capacity) {
            Ok(compiled) => Ok(self.register_compiled(net, compiled)),
            Err(e) => {
                self.admission.rejected += 1;
                Err(e)
            }
        }
    }

    /// Register an already-compiled plan (caller vouches it was compiled
    /// against `net`), joining or creating its network family.
    pub fn register_compiled(&mut self, net: Arc<Mlp>, compiled: CompiledPlan) -> PlanId {
        let (family, net_id) = self.family_of(&net);
        let ir = PlanIr::new(&net_id, compiled);
        self.admission.admitted += 1;
        self.admission.bodies_compiled += 1;
        if family == self.families.len() {
            self.families.push(self.entries.len());
        }
        self.entries.push(RegisteredPlan {
            net,
            net_id,
            ir,
            family,
        });
        PlanId(self.entries.len() - 1)
    }

    /// `net`'s family (a new one is `families.len()`) and identity, sharing
    /// the family's bytes. A registered `Arc` is its plan's network (the
    /// entry keeps it alive and unmodifiable); any other is hashed once.
    fn family_of(&self, net: &Arc<Mlp>) -> (usize, NetId) {
        if let Some(e) = self.entries.iter().find(|e| Arc::ptr_eq(&e.net, net)) {
            return (e.family, e.net_id.clone());
        }
        let id = NetId::of(net);
        let first_plans = self.families.iter().map(|&i| &self.entries[i]);
        match first_plans.enumerate().find(|(_, e)| e.net_id == id) {
            Some((f, e)) => (f, e.net_id.clone()),
            None => (self.families.len(), id),
        }
    }

    /// Look up a registered plan.
    pub fn get(&self, id: PlanId) -> Option<&RegisteredPlan> {
        self.entries.get(id.0)
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of content-equal network families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Admission counters (plans admitted, rejected, compiled).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission
    }

    /// Counters of this registry's batch evaluations (identical-plan
    /// dedup hits).
    pub fn planner(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// Iterate over `(id, entry)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (PlanId, &RegisteredPlan)> {
        self.entries.iter().enumerate().map(|(i, e)| (PlanId(i), e))
    }

    /// Group `ids` positions by network family, preserving first-seen
    /// order — the shared front half of [`PlanRegistry::eval_many`] and
    /// [`PlanRegistry::eval_many_cached`]. Family membership was proven
    /// at registration, so this is pure index bucketing.
    ///
    /// # Panics
    /// If any id is unregistered.
    fn group_by_family(&self, ids: &[PlanId]) -> Vec<(usize, Vec<usize>)> {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (pos, id) in ids.iter().enumerate() {
            let entry = self
                .get(*id)
                .unwrap_or_else(|| panic!("eval_many: no registered {id}"));
            match groups.iter_mut().find(|(f, _)| *f == entry.family) {
                Some((_, positions)) => positions.push(pos),
                None => groups.push((entry.family, vec![pos])),
            }
        }
        groups
    }

    /// Evaluate many registered plans over one shared input set through
    /// the suffix engine: plans are grouped by content-equal network
    /// family (one nominal pass per family), and identical plans (same
    /// `(net, structure, value)` key) are evaluated once and share their
    /// result. Returns one disturbance vector per id, aligned with `ids`
    /// — each **bitwise** equal to the corresponding
    /// [`RegisteredPlan::eval_batch`] call (ARCHITECTURE contract 5).
    ///
    /// # Panics
    /// If any id is unregistered, or `xs` column count mismatches a
    /// plan's network.
    pub fn eval_many(&self, ids: &[PlanId], xs: &Matrix) -> Vec<Vec<f64>> {
        self.eval_many_inner(ids, xs, None)
    }

    /// [`PlanRegistry::eval_many`] through a
    /// [`CheckpointCache`](crate::CheckpointCache): the nominal
    /// checkpoint is looked up by `(net content, input-set content)` — so
    /// a registry re-evaluated over an input set it has seen before
    /// (repeated tolerance searches, periodic re-certification sweeps)
    /// skips even the one nominal pass per family. Results are
    /// **bitwise** identical to [`PlanRegistry::eval_many`]; `scratch`
    /// absorbs the suffix recomputation.
    ///
    /// # Panics
    /// As [`PlanRegistry::eval_many`].
    pub fn eval_many_cached(
        &self,
        ids: &[PlanId],
        xs: &Matrix,
        cache: &mut crate::CheckpointCache,
        scratch: &mut BatchWorkspace,
    ) -> Vec<Vec<f64>> {
        self.eval_many_inner(ids, xs, Some((cache, scratch)))
    }

    fn eval_many_inner(
        &self,
        ids: &[PlanId],
        xs: &Matrix,
        mut cache: Option<(&mut crate::CheckpointCache, &mut BatchWorkspace)>,
    ) -> Vec<Vec<f64>> {
        let mut results: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
        for (family, positions) in self.group_by_family(ids) {
            let net = &self.entries[self.families[family]].net;
            // Identical-plan dedup: evaluate each distinct plan key once,
            // alias the rest (bitwise-equal by the determinism contracts).
            let mut unique: Vec<usize> = Vec::new();
            let mut alias: Vec<(usize, usize)> = Vec::new();
            for &pos in &positions {
                let key = self.entries[ids[pos].0].ir.plan_key();
                match unique
                    .iter()
                    .position(|&u| self.entries[ids[u].0].ir.plan_key() == key)
                {
                    Some(u) => alias.push((pos, u)),
                    None => unique.push(pos),
                }
            }
            self.planner.note_dedup(alias.len() as u64);
            let compiled = |pos: usize| self.entries[ids[pos].0].compiled();
            match cache.as_mut() {
                Some((cache, scratch)) => {
                    let ck = cache.checkpoint(net, xs);
                    for &pos in &unique {
                        results[pos] = compiled(pos).output_error_checkpointed(
                            net,
                            xs,
                            ck.ws,
                            ck.nominal_y,
                            scratch,
                        );
                    }
                }
                None => {
                    let mut eval = crate::multi::MultiPlanEvaluator::new(net, xs);
                    for &pos in &unique {
                        results[pos] = eval.output_error(compiled(pos));
                    }
                }
            }
            for (pos, u) in alias {
                results[pos] = results[unique[u]].clone();
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::layer::DenseLayer;
    use neurofail_nn::network::Layer;

    fn net() -> Arc<Mlp> {
        Arc::new(Mlp::new(
            vec![Layer::Dense(DenseLayer::new(
                Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
                vec![],
                Activation::Identity,
            ))],
            vec![1.0, 2.0],
            0.0,
        ))
    }

    fn net_b() -> Arc<Mlp> {
        Arc::new(Mlp::new(
            vec![Layer::Dense(DenseLayer::new(
                Matrix::from_vec(2, 2, vec![0.5, -0.25, 1.0, 0.75]),
                vec![],
                Activation::Identity,
            ))],
            vec![2.0, -1.0],
            0.1,
        ))
    }

    #[test]
    fn register_assigns_dense_ids_and_shares_the_net() {
        let net = net();
        let mut reg = PlanRegistry::new();
        let a = reg
            .register(Arc::clone(&net), &InjectionPlan::none(), 1.0)
            .unwrap();
        let b = reg
            .register(Arc::clone(&net), &InjectionPlan::crash([(0, 1)]), 1.0)
            .unwrap();
        assert_eq!((a, b), (PlanId(0), PlanId(1)));
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        // One network backs both plans without a weight clone.
        assert!(Arc::ptr_eq(
            reg.get(a).unwrap().net(),
            reg.get(b).unwrap().net()
        ));
        assert_eq!(reg.get(b).unwrap().input_dim(), 2);
        assert!(reg.get(PlanId(2)).is_none());
        assert_eq!(reg.iter().count(), 2);
        assert_eq!(reg.family_count(), 1);
        assert_eq!(reg.get(a).unwrap().family(), reg.get(b).unwrap().family());
    }

    #[test]
    fn register_propagates_compile_errors() {
        let mut reg = PlanRegistry::new();
        let err = reg.register(net(), &InjectionPlan::crash([(5, 0)]), 1.0);
        assert!(matches!(err, Err(PlanError::BadNeuron { .. })));
        assert!(reg.is_empty());
        assert_eq!(reg.admission_stats().rejected, 1);
    }

    #[test]
    fn content_equal_nets_join_one_family_distinct_nets_do_not() {
        let mut reg = PlanRegistry::new();
        let a = reg
            .register(net(), &InjectionPlan::crash([(0, 0)]), 1.0)
            .unwrap();
        // A distinct Arc over a bitwise-identical net: same family.
        let b = reg
            .register(net(), &InjectionPlan::crash([(0, 1)]), 1.0)
            .unwrap();
        let c = reg
            .register(net_b(), &InjectionPlan::crash([(0, 0)]), 1.0)
            .unwrap();
        assert_eq!(reg.family_count(), 2);
        assert_eq!(reg.get(a).unwrap().family(), reg.get(b).unwrap().family());
        assert_ne!(reg.get(a).unwrap().family(), reg.get(c).unwrap().family());
        // Family grouping shares the nominal pass across Arcs — and the
        // result is still bitwise per-plan evaluation.
        let xs = Matrix::from_vec(2, 2, vec![0.4, -0.2, 0.8, 0.1]);
        let many = reg.eval_many(&[a, b, c], &xs);
        let mut ws = BatchWorkspace::default();
        for (id, got) in [a, b, c].iter().zip(&many) {
            let direct = reg.get(*id).unwrap().eval_batch(&xs, &mut ws);
            for (g, d) in got.iter().zip(&direct) {
                assert_eq!(g.to_bits(), d.to_bits(), "{id}");
            }
        }
    }

    #[test]
    fn eval_singleton_matches_direct_singleton_batch() {
        let net = net();
        let mut reg = PlanRegistry::new();
        let id = reg
            .register(Arc::clone(&net), &InjectionPlan::crash([(0, 1)]), 1.0)
            .unwrap();
        let entry = reg.get(id).unwrap();
        let mut ws = BatchWorkspace::default();
        let x = [0.5, 0.25];
        let got = entry.eval_singleton(&x, &mut ws);
        let c = CompiledPlan::compile(&InjectionPlan::crash([(0, 1)]), &net, 1.0).unwrap();
        let xs = Matrix::from_vec(1, 2, x.to_vec());
        let direct = c.output_error_batch(&net, &xs, &mut ws)[0];
        assert_eq!(got.to_bits(), direct.to_bits());
        // Batched evaluation through the registry matches row-wise.
        let xs3 = Matrix::from_vec(3, 2, vec![0.5, 0.25, 0.0, 0.0, 1.0, -1.0]);
        let batch = entry.eval_batch(&xs3, &mut ws);
        assert_eq!(batch[0].to_bits(), got.to_bits());
    }

    #[test]
    fn eval_many_matches_per_plan_eval_batch_bitwise() {
        // Two nets, three plans (two sharing a net): eval_many must group
        // by family and stay bitwise equal to per-plan evaluation.
        let net_a = net();
        let net_b = net_b();
        let mut reg = PlanRegistry::new();
        let a0 = reg
            .register(Arc::clone(&net_a), &InjectionPlan::crash([(0, 1)]), 1.0)
            .unwrap();
        let b0 = reg
            .register(Arc::clone(&net_b), &InjectionPlan::crash([(0, 0)]), 1.0)
            .unwrap();
        let a1 = reg
            .register(Arc::clone(&net_a), &InjectionPlan::none(), 1.0)
            .unwrap();
        let xs = Matrix::from_vec(3, 2, vec![0.5, 0.25, -0.4, 0.9, 0.0, 1.0]);
        let mut ws = BatchWorkspace::default();
        let many = reg.eval_many(&[a0, b0, a1], &xs);
        for (id, got) in [a0, b0, a1].iter().zip(&many) {
            let direct = reg.get(*id).unwrap().eval_batch(&xs, &mut ws);
            assert_eq!(got.len(), 3);
            for (g, d) in got.iter().zip(&direct) {
                assert_eq!(g.to_bits(), d.to_bits(), "{id}");
            }
        }
    }

    #[test]
    fn eval_many_cached_is_bitwise_and_hits_on_reuse() {
        let net_a = net();
        let net_b = net_b();
        let mut reg = PlanRegistry::new();
        let a0 = reg
            .register(Arc::clone(&net_a), &InjectionPlan::crash([(0, 1)]), 1.0)
            .unwrap();
        let b0 = reg
            .register(Arc::clone(&net_b), &InjectionPlan::crash([(0, 0)]), 1.0)
            .unwrap();
        let a1 = reg
            .register(Arc::clone(&net_a), &InjectionPlan::none(), 1.0)
            .unwrap();
        let xs = Matrix::from_vec(3, 2, vec![0.5, 0.25, -0.4, 0.9, 0.0, 1.0]);
        let ids = [a0, b0, a1];
        let reference = reg.eval_many(&ids, &xs);
        let mut cache = crate::CheckpointCache::new(4);
        let mut scratch = BatchWorkspace::default();
        // Cold call: one miss per net group; warm call: one hit per group
        // — and both are bitwise the uncached engine.
        for (round, expected_hits) in [(0u32, 0u64), (1, 2)] {
            let got = reg.eval_many_cached(&ids, &xs, &mut cache, &mut scratch);
            for (pi, (g, r)) in got.iter().zip(&reference).enumerate() {
                for (b, (gv, rv)) in g.iter().zip(r).enumerate() {
                    assert_eq!(
                        gv.to_bits(),
                        rv.to_bits(),
                        "round {round}, plan {pi}, row {b}"
                    );
                }
            }
            assert_eq!(cache.stats().hits, expected_hits);
        }
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn identical_plans_share_one_evaluation() {
        let net = net();
        let mut reg = PlanRegistry::new();
        let plan = InjectionPlan::crash([(0, 1)]);
        let a = reg.register(Arc::clone(&net), &plan, 1.0).unwrap();
        let b = reg.register(Arc::clone(&net), &plan, 1.0).unwrap();
        assert_eq!(
            reg.get(a).unwrap().ir().plan_key(),
            reg.get(b).unwrap().ir().plan_key()
        );
        assert_eq!(reg.admission_stats().bodies_compiled, 2);
        let xs = Matrix::from_vec(2, 2, vec![0.3, 0.6, -0.1, 0.8]);
        let many = reg.eval_many(&[a, b], &xs);
        for (x, y) in many[0].iter().zip(&many[1]) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(reg.planner().stats().dedup_hits, 1);
        let mut ws = BatchWorkspace::default();
        let direct = reg.get(a).unwrap().eval_batch(&xs, &mut ws);
        for (g, d) in many[0].iter().zip(&direct) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn eval_batch_resumed_matches_eval_batch_bitwise() {
        let net = net();
        let mut reg = PlanRegistry::new();
        let id = reg
            .register(Arc::clone(&net), &InjectionPlan::crash([(0, 0)]), 1.0)
            .unwrap();
        let entry = reg.get(id).unwrap();
        let xs = Matrix::from_vec(2, 2, vec![0.3, 0.6, -0.1, 0.8]);
        let mut ws = BatchWorkspace::default();
        let direct = entry.eval_batch(&xs, &mut ws);
        let (mut wn, mut wsc) = (BatchWorkspace::default(), BatchWorkspace::default());
        let resumed = entry.eval_batch_resumed(&xs, &mut wn, &mut wsc);
        for (r, d) in resumed.iter().zip(&direct) {
            assert_eq!(r.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(PlanId(3).to_string(), "plan#3")
    }
}
