//! Streaming input-incremental evaluation: a fixed plan family, inputs
//! arriving in chunks.
//!
//! The suffix engine ([`crate::multi`]) shares one nominal pass across a
//! *plan* family over a fixed input set. Streaming certification traffic
//! is the transpose: the plan family is long-lived, and the input set
//! grows — each new chunk of probe inputs must be certified against every
//! plan. Recomputing from scratch pays `(all inputs × all layers)` per
//! arrival; [`StreamingEvaluator`] pays `(new inputs × all layers)` for
//! the nominal extension plus `(new inputs × suffix layers)` per plan:
//!
//! 1. [`Mlp::extend_batch_with`] grows the accumulated nominal checkpoint
//!    by only the chunk's rows (bitwise identical to a full-batch
//!    recompute, by per-row determinism);
//! 2. the chunk's own nominal taps (the extension scratch) double as a
//!    per-chunk checkpoint, so each plan's faulty pass resumes at its
//!    [`CompiledPlan::first_faulty_layer`] over just the chunk — no rows
//!    are ever copied back out of the grown checkpoint.
//!
//! Bitwise contract: every disturbance produced here equals the
//! corresponding per-plan [`CompiledPlan::output_error_batch`] call over
//! the full accumulated input set, bit for bit, for every chunking of the
//! stream (0/1/odd chunk sizes included), every fault kind and every
//! `Parallelism` policy — asserted by `tests/incremental_equivalence.rs`
//! and the cross-engine fuzz suite `tests/engine_fuzz.rs`.

use std::sync::Arc;

use neurofail_nn::{BatchWorkspace, Mlp, NoBatchTap};
use neurofail_tensor::Matrix;

use crate::executor::CompiledPlan;
use crate::registry::{PlanId, PlanRegistry};

/// Accumulated cost counters of one streaming evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Chunks ingested (empty chunks included).
    pub chunks: u64,
    /// Input rows ingested across all chunks.
    pub rows: u64,
    /// Layer-rows of **nominal** recomputation the appendable checkpoint
    /// avoided: each chunk's extension recomputes nothing for the rows
    /// already held, where a from-scratch engine would recompute
    /// `held_rows × depth` per arrival.
    pub nominal_rows_saved: u64,
    /// Layer-rows of **faulty-prefix** recomputation the per-plan suffix
    /// resumes skipped (the
    /// [`MultiPlanEvaluator::prefix_rows_saved`](crate::MultiPlanEvaluator::prefix_rows_saved)
    /// accounting, summed over chunks and plans).
    pub prefix_rows_saved: u64,
    /// Oldest rows evicted from the checkpoint by the sliding-window
    /// budget ([`StreamingEvaluator::with_row_budget`]). Purely an
    /// accounting signal: retirement never changes a served bit, only
    /// what a later back-fill can resume against.
    pub rows_retired: u64,
}

/// Incremental evaluator of a fixed plan family over a growing input set.
///
/// # Example
/// ```
/// use std::sync::Arc;
/// use neurofail_data::rng::rng;
/// use neurofail_inject::{CompiledPlan, InjectionPlan, StreamingEvaluator};
/// use neurofail_nn::{activation::Activation, BatchWorkspace, MlpBuilder};
/// use neurofail_tensor::{init::Init, Matrix};
///
/// let net = Arc::new(
///     MlpBuilder::new(2)
///         .dense(6, Activation::Sigmoid { k: 1.0 })
///         .dense(4, Activation::Sigmoid { k: 1.0 })
///         .init(Init::Xavier)
///         .build(&mut rng(8)),
/// );
/// let plans: Vec<CompiledPlan> = [(0usize, 1usize), (1, 2)]
///     .iter()
///     .map(|&site| CompiledPlan::compile(&InjectionPlan::crash([site]), &net, 1.0).unwrap())
///     .collect();
///
/// let mut stream = StreamingEvaluator::new(Arc::clone(&net), plans.clone());
/// let chunk1 = Matrix::from_fn(3, 2, |r, c| 0.1 * (r + c) as f64);
/// let chunk2 = Matrix::from_fn(2, 2, |r, c| 0.3 - 0.05 * (r * 2 + c) as f64);
/// let errs1 = stream.push_chunk(&chunk1); // one vec per plan, chunk rows
/// let errs2 = stream.push_chunk(&chunk2);
/// assert_eq!((errs1[0].len(), errs2[0].len()), (3, 2));
///
/// // Bitwise equal to batch evaluation over the full accumulated set.
/// let mut all = chunk1.clone();
/// all.append_rows(&chunk2);
/// let mut ws = BatchWorkspace::default();
/// for (p, plan) in plans.iter().enumerate() {
///     let direct = plan.output_error_batch(&net, &all, &mut ws);
///     let streamed: Vec<f64> = errs1[p].iter().chain(&errs2[p]).copied().collect();
///     assert!(streamed.iter().zip(&direct).all(|(a, b)| a.to_bits() == b.to_bits()));
/// }
/// ```
#[derive(Debug)]
pub struct StreamingEvaluator {
    net: Arc<Mlp>,
    plans: Vec<CompiledPlan>,
    ids: Vec<PlanId>,
    /// Every input row ingested so far, in arrival order.
    xs: Matrix,
    /// Appendable nominal checkpoint over `xs`.
    ws: BatchWorkspace,
    /// Nominal outputs `F_neu(x_b)`, row-aligned with `xs`.
    nominal_y: Vec<f64>,
    /// The latest chunk's nominal taps (extension scratch — doubles as
    /// the per-chunk checkpoint the faulty suffixes resume against).
    chunk_ck: BatchWorkspace,
    /// Scratch for resumed faulty suffixes.
    scratch: BatchWorkspace,
    /// Sliding-window budget: after each chunk, evict the oldest rows
    /// past this many (None = grow forever, the original lifecycle).
    row_budget: Option<usize>,
    stats: StreamStats,
}

impl StreamingEvaluator {
    /// A streaming evaluator over `plans`, all compiled against `net`.
    pub fn new(net: Arc<Mlp>, plans: Vec<CompiledPlan>) -> Self {
        let d = net.input_dim();
        // Shape the checkpoint for an empty batch up front, so the
        // zero-chunk evaluator is already a valid (empty) checkpoint.
        let ws = BatchWorkspace::for_net(&net, 0);
        StreamingEvaluator {
            net,
            ids: (0..plans.len()).map(PlanId).collect(),
            plans,
            xs: Matrix::zeros(0, d),
            ws,
            nominal_y: Vec::new(),
            chunk_ck: BatchWorkspace::default(),
            scratch: BatchWorkspace::default(),
            row_budget: None,
            stats: StreamStats::default(),
        }
    }

    /// Cap the retained checkpoint at `budget` rows: after every chunk,
    /// the oldest rows past the budget are retired (inputs, checkpoint
    /// and nominal outputs together — the eviction companion to
    /// [`Matrix::append_rows`]). Per-chunk disturbance vectors are
    /// **unchanged bitwise** for every budget (each chunk's rows never
    /// depended on older rows); only the window
    /// [`Self::eval_plan_over_stream`] can back-fill over shrinks, and
    /// [`StreamStats::rows_retired`] counts what was given up. The
    /// long-running-worker fix: an unbounded stream no longer grows the
    /// checkpoint without bound.
    ///
    /// # Panics
    /// If `budget` is zero.
    pub fn with_row_budget(mut self, budget: usize) -> Self {
        assert!(budget >= 1, "row budget must be >= 1");
        self.row_budget = Some(budget);
        self
    }

    /// The configured sliding-window budget, if any.
    pub fn row_budget(&self) -> Option<usize> {
        self.row_budget
    }

    /// A streaming evaluator over registered plans. All `ids` must belong
    /// to one network family (content-equal networks, proven at
    /// registration — [`RegisteredPlan::family`](crate::RegisteredPlan::family)),
    /// the grouping [`PlanRegistry::eval_many`] and serve coalescing use,
    /// checked here at construction because the family is long-lived.
    /// The stream runs against the first id's network.
    ///
    /// # Panics
    /// If any id is unregistered or the ids span different networks.
    pub fn from_registry(registry: &PlanRegistry, ids: &[PlanId]) -> Self {
        assert!(
            !ids.is_empty(),
            "StreamingEvaluator: need at least one plan"
        );
        let first = registry
            .get(ids[0])
            .unwrap_or_else(|| panic!("StreamingEvaluator: no registered {}", ids[0]));
        let net = Arc::clone(first.net());
        let plans = ids
            .iter()
            .map(|&id| {
                let entry = registry
                    .get(id)
                    .unwrap_or_else(|| panic!("StreamingEvaluator: no registered {id}"));
                assert!(
                    entry.family() == first.family(),
                    "StreamingEvaluator: {id} is registered against a different network"
                );
                entry.compiled().clone()
            })
            .collect();
        let mut eval = StreamingEvaluator::new(net, plans);
        eval.ids = ids.to_vec();
        eval
    }

    /// The network the family is compiled against.
    pub fn net(&self) -> &Arc<Mlp> {
        &self.net
    }

    /// The plan family, in evaluation order.
    pub fn plans(&self) -> &[CompiledPlan] {
        &self.plans
    }

    /// Plan ids aligned with [`plans`](Self::plans) (registry ids when
    /// built via [`StreamingEvaluator::from_registry`], dense `0..n`
    /// otherwise).
    pub fn plan_ids(&self) -> &[PlanId] {
        &self.ids
    }

    /// Rows ingested so far.
    pub fn rows(&self) -> usize {
        self.xs.rows()
    }

    /// Every ingested input row, in arrival order.
    pub fn inputs(&self) -> &Matrix {
        &self.xs
    }

    /// Nominal outputs over the whole stream, row-aligned with
    /// [`inputs`](Self::inputs).
    pub fn nominal_outputs(&self) -> &[f64] {
        &self.nominal_y
    }

    /// Accumulated cost counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Ingest one chunk of inputs and certify it against the whole
    /// family: the nominal checkpoint grows by the chunk's rows only,
    /// then each plan's faulty pass resumes at its first faulty layer
    /// over the chunk. Returns one disturbance vector per plan
    /// (plan-major, row-aligned with `chunk`), each **bitwise** equal to
    /// the rows this chunk contributes to a from-scratch
    /// [`CompiledPlan::output_error_batch`] over the full accumulated
    /// input set.
    ///
    /// # Panics
    /// If `chunk.cols() != net.input_dim()`.
    pub fn push_chunk(&mut self, chunk: &Matrix) -> Vec<Vec<f64>> {
        let held = self.ws.batch() as u64;
        let ys =
            self.net
                .extend_batch_with(&mut self.ws, &mut self.chunk_ck, &mut NoBatchTap, chunk);
        self.xs.append_rows(chunk);
        let base = self.nominal_y.len();
        self.nominal_y.extend_from_slice(&ys);
        let nominal = &self.nominal_y[base..];
        let depth = self.net.depth();
        let results = self
            .plans
            .iter()
            .map(|plan| {
                let from = plan.first_faulty_layer().min(depth);
                let mut errors = plan.resume_batch_checkpointed(
                    &self.net,
                    chunk,
                    &self.chunk_ck,
                    &mut self.scratch,
                    from,
                );
                for (e, &nom) in errors.iter_mut().zip(nominal) {
                    *e = (nom - *e).abs();
                }
                self.stats.prefix_rows_saved += from as u64 * chunk.rows() as u64;
                errors
            })
            .collect();
        self.stats.chunks += 1;
        self.stats.rows += chunk.rows() as u64;
        // A from-scratch engine would have recomputed every held row
        // through every layer to re-derive the checkpoint this arrival.
        self.stats.nominal_rows_saved += held * depth as u64;
        if let Some(budget) = self.row_budget {
            if self.xs.rows() > budget {
                let evict = self.xs.rows() - budget;
                self.xs.drop_prefix_rows(evict);
                self.ws.drop_prefix_rows(evict);
                self.nominal_y.drain(..evict);
                self.stats.rows_retired += evict as u64;
            }
        }
        results
    }

    /// Disturbances of one plan over the **whole stream so far**, resumed
    /// against the accumulated checkpoint — the late-subscriber path: a
    /// plan joining mid-stream back-fills without a fresh nominal pass.
    /// The plan need not belong to the family (it must be compiled
    /// against the same network). Bitwise equal to
    /// [`CompiledPlan::output_error_batch`] over
    /// [`inputs`](Self::inputs).
    pub fn eval_plan_over_stream(&mut self, plan: &CompiledPlan) -> Vec<f64> {
        let from = plan.first_faulty_layer().min(self.net.depth());
        self.stats.prefix_rows_saved += from as u64 * self.xs.rows() as u64;
        plan.output_error_checkpointed(
            &self.net,
            &self.xs,
            &self.ws,
            &self.nominal_y,
            &mut self.scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::InjectionPlan;
    use crate::ByzantineStrategy;
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;

    fn net() -> Arc<Mlp> {
        net_seeded(17)
    }

    fn net_seeded(seed: u64) -> Arc<Mlp> {
        Arc::new(
            MlpBuilder::new(3)
                .dense(6, Activation::Sigmoid { k: 1.1 })
                .dense(5, Activation::Tanh { k: 0.9 })
                .dense(4, Activation::Sigmoid { k: 1.0 })
                .init(Init::Xavier)
                .build(&mut rng(seed)),
        )
    }

    fn family(net: &Mlp) -> Vec<CompiledPlan> {
        [
            InjectionPlan::none(),
            InjectionPlan::crash([(0, 1)]),
            InjectionPlan::crash([(2, 3)]),
            InjectionPlan::byzantine([(1, 2)], ByzantineStrategy::OpposeNominal),
        ]
        .iter()
        .map(|p| CompiledPlan::compile(p, net, 1.0).unwrap())
        .collect()
    }

    #[test]
    fn chunked_stream_is_bitwise_full_batch() {
        let net = net();
        let plans = family(&net);
        let mut stream = StreamingEvaluator::new(Arc::clone(&net), plans.clone());
        let mut all = Matrix::zeros(0, 3);
        let mut streamed: Vec<Vec<f64>> = vec![Vec::new(); plans.len()];
        for (i, rows) in [2usize, 0, 1, 4].iter().enumerate() {
            let chunk = Matrix::from_fn(*rows, 3, |r, c| {
                0.11 * (i + r) as f64 - 0.3 + 0.07 * c as f64
            });
            all.append_rows(&chunk);
            for (p, errs) in stream.push_chunk(&chunk).into_iter().enumerate() {
                assert_eq!(errs.len(), *rows);
                streamed[p].extend(errs);
            }
        }
        assert_eq!(stream.rows(), 7);
        let mut ws = BatchWorkspace::default();
        for (p, plan) in plans.iter().enumerate() {
            let direct = plan.output_error_batch(&net, &all, &mut ws);
            for (b, (s, d)) in streamed[p].iter().zip(&direct).enumerate() {
                assert_eq!(s.to_bits(), d.to_bits(), "plan {p}, row {b}");
            }
        }
        let stats = stream.stats();
        assert_eq!((stats.chunks, stats.rows), (4, 7));
        // Held-row savings: chunk arrivals held 0, 2, 2, 3 rows → 7 rows
        // of depth-3 nominal recomputation skipped.
        assert_eq!(stats.nominal_rows_saved, 7 * 3);
        assert!(stats.prefix_rows_saved > 0);
    }

    #[test]
    fn late_plan_backfills_over_the_stream() {
        let net = net();
        let mut stream = StreamingEvaluator::new(Arc::clone(&net), family(&net));
        for i in 0..3u64 {
            let chunk = Matrix::from_fn(3, 3, |r, c| 0.05 * (i as usize + r + c) as f64);
            let _ = stream.push_chunk(&chunk);
        }
        let late =
            CompiledPlan::compile(&InjectionPlan::crash([(1, 0), (2, 1)]), &net, 1.0).unwrap();
        let got = stream.eval_plan_over_stream(&late);
        let mut ws = BatchWorkspace::default();
        let direct = late.output_error_batch(&net, stream.inputs(), &mut ws);
        assert_eq!(got.len(), 9);
        for (g, d) in got.iter().zip(&direct) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn from_registry_adopts_ids_and_checks_net_identity() {
        let net = net();
        let mut reg = PlanRegistry::new();
        let a = reg
            .register(Arc::clone(&net), &InjectionPlan::crash([(0, 0)]), 1.0)
            .unwrap();
        let b = reg
            .register(Arc::clone(&net), &InjectionPlan::none(), 1.0)
            .unwrap();
        // Another `Arc` over bitwise-equal weights is the same family.
        let c = reg
            .register(net_seeded(17), &InjectionPlan::crash([(2, 3)]), 1.0)
            .unwrap();
        let stream = StreamingEvaluator::from_registry(&reg, &[b, a, c]);
        assert_eq!(stream.plan_ids(), &[b, a, c]);
        assert_eq!(stream.plans().len(), 3);
    }

    #[test]
    fn row_budget_retires_oldest_rows_without_changing_chunk_results() {
        let net = net();
        let plans = family(&net);
        let mut capped =
            StreamingEvaluator::new(Arc::clone(&net), plans.clone()).with_row_budget(4);
        let mut unbounded = StreamingEvaluator::new(Arc::clone(&net), plans.clone());
        for i in 0..5u64 {
            let chunk = Matrix::from_fn(3, 3, |r, c| 0.04 * (i as usize + r + 2 * c) as f64);
            let got = capped.push_chunk(&chunk);
            let want = unbounded.push_chunk(&chunk);
            for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                assert_eq!(g.to_bits(), w.to_bits(), "eviction changed a served bit");
            }
            assert!(
                capped.rows() <= 4,
                "budget exceeded: {} rows",
                capped.rows()
            );
        }
        assert_eq!(capped.stats().rows_retired, 15 - 4);
        assert_eq!(unbounded.stats().rows_retired, 0);
        // The window back-fills bitwise against a from-scratch recompute
        // over the retained inputs.
        let late = CompiledPlan::compile(&InjectionPlan::crash([(1, 1)]), &net, 1.0).unwrap();
        let got = capped.eval_plan_over_stream(&late);
        let mut ws = BatchWorkspace::default();
        let direct = late.output_error_batch(&net, capped.inputs(), &mut ws);
        assert_eq!(got.len(), 4);
        for (g, d) in got.iter().zip(&direct) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "different network")]
    fn from_registry_rejects_mixed_networks() {
        let net_a = net();
        let net_b = net_seeded(18);
        let mut reg = PlanRegistry::new();
        let a = reg
            .register(Arc::clone(&net_a), &InjectionPlan::none(), 1.0)
            .unwrap();
        let b = reg
            .register(Arc::clone(&net_b), &InjectionPlan::none(), 1.0)
            .unwrap();
        let _ = StreamingEvaluator::from_registry(&reg, &[a, b]);
    }
}
