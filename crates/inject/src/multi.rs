//! The multi-plan suffix engine: share one nominal pass across many plans.
//!
//! Every plan-family workload — campaigns over random plans, the
//! exhaustive k-crash sweeps, tolerance searches — evaluates *many plans
//! on one network over one input set*. Evaluating each plan with
//! [`CompiledPlan::output_error_batch`] pays a full nominal **and** a full
//! faulty forward pass per plan, even when the plan only faults the last
//! layer or an output synapse. But the nominal pass is plan-independent,
//! and the prefix of a faulty pass (layers before the plan's first faulty
//! site) recomputes exactly the nominal values — so both are shared work.
//!
//! [`MultiPlanEvaluator`] computes the nominal pass **once**, keeps its
//! per-layer taps as a checkpoint, and resumes each plan's faulty pass at
//! that plan's [`CompiledPlan::first_faulty_layer`]: a layer-ℓ crash
//! subset on an L-layer net skips ℓ/L of the faulty pass's layer work, and
//! an output-synapse-only plan reduces to one O(N_L) dot product per row.
//! Unlike the GEMM batching wins (bounded by the host's FMA throughput),
//! this eliminates flops outright, so it speeds up any hardware.
//!
//! Bitwise contract: every value produced here equals the corresponding
//! per-plan [`CompiledPlan::output_error_batch`] call bit for bit, for
//! every suffix split, batch size and `Parallelism` policy — unfaulted
//! prefix layers recompute the exact same values with the exact same
//! kernels, so skipping them changes nothing (`tests/suffix_equivalence.rs`).

use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_tensor::Matrix;

use crate::executor::CompiledPlan;

/// A shared nominal checkpoint over `(net, xs)` plus the scratch space to
/// resume any number of plans' faulty suffixes against it.
///
/// Construction runs the nominal batched pass once; each
/// [`output_error`](MultiPlanEvaluator::output_error) call afterwards costs
/// only the plan's faulty **suffix**. The checkpoint workspace is read-only
/// after construction (the aliasing rule that makes one checkpoint safe to
/// share across plans); all suffix recomputation goes to a second scratch
/// workspace.
///
/// Plans must be compiled against the same `net` the evaluator was built
/// over — the usual [`CompiledPlan`] contract, depth-asserted at resume.
#[derive(Debug)]
pub struct MultiPlanEvaluator<'a> {
    net: &'a Mlp,
    xs: &'a Matrix,
    /// Nominal per-layer taps — the checkpoint. Never written after `new`.
    nominal_ws: BatchWorkspace,
    /// Nominal outputs `F_neu(x_b)` per row.
    nominal_y: Vec<f64>,
    /// Scratch for resumed faulty suffixes, reused across plans.
    scratch: BatchWorkspace,
    /// Layer-rows of faulty-prefix recomputation avoided so far.
    prefix_rows_saved: u64,
}

impl<'a> MultiPlanEvaluator<'a> {
    /// Build a checkpoint over `xs` (rows = inputs) through `net`.
    pub fn new(net: &'a Mlp, xs: &'a Matrix) -> Self {
        let mut nominal_ws = BatchWorkspace::default();
        let nominal_y = net.forward_batch(xs, &mut nominal_ws);
        MultiPlanEvaluator {
            net,
            xs,
            nominal_ws,
            nominal_y,
            scratch: BatchWorkspace::default(),
            prefix_rows_saved: 0,
        }
    }

    /// Disturbances `|F_neu(x_b) − F_fail(x_b)|` of `plan`, resumed at
    /// its first faulty layer against this checkpoint
    /// ([`CompiledPlan::output_error_checkpointed`]). Bitwise equal to
    /// [`CompiledPlan::output_error_batch`]`(net, xs, …)`.
    pub fn output_error(&mut self, plan: &CompiledPlan) -> Vec<f64> {
        self.prefix_rows_saved += plan.first_faulty_layer() as u64 * self.xs.rows() as u64;
        plan.output_error_checkpointed(
            self.net,
            self.xs,
            &self.nominal_ws,
            &self.nominal_y,
            &mut self.scratch,
        )
    }

    /// Layer-rows of faulty-prefix work skipped so far: a plan resumed at
    /// layer `f` over `B` rows adds `f · B` (a per-plan
    /// [`CompiledPlan::output_error_batch`] would have recomputed all of
    /// them inside its full faulty pass).
    pub fn prefix_rows_saved(&self) -> u64 {
        self.prefix_rows_saved
    }
}

/// Evaluate many plans on one network over one shared input set: one
/// nominal pass total, one resumed faulty **suffix** per plan.
///
/// Returns one disturbance vector per plan (row-aligned with `xs`), each
/// **bitwise** equal to the corresponding per-plan
/// [`CompiledPlan::output_error_batch`] call.
///
/// # Example
/// ```
/// use neurofail_data::rng::rng;
/// use neurofail_inject::{output_error_many, CompiledPlan, InjectionPlan};
/// use neurofail_nn::{activation::Activation, BatchWorkspace, MlpBuilder};
/// use neurofail_tensor::{init::Init, Matrix};
///
/// let net = MlpBuilder::new(2)
///     .dense(6, Activation::Sigmoid { k: 1.0 })
///     .dense(4, Activation::Sigmoid { k: 1.0 })
///     .init(Init::Xavier)
///     .build(&mut rng(11));
/// let plans: Vec<CompiledPlan> = [(0usize, 1usize), (1, 0), (1, 3)]
///     .iter()
///     .map(|&site| CompiledPlan::compile(&InjectionPlan::crash([site]), &net, 1.0).unwrap())
///     .collect();
/// let xs = Matrix::from_fn(8, 2, |r, c| 0.1 * r as f64 + 0.05 * c as f64);
///
/// // One shared nominal pass + three faulty suffixes…
/// let many = output_error_many(&net, &xs, &plans);
///
/// // …bitwise equal to three standalone nominal + faulty pass pairs.
/// let mut ws = BatchWorkspace::for_net(&net, 8);
/// for (plan, errs) in plans.iter().zip(&many) {
///     let direct = plan.output_error_batch(&net, &xs, &mut ws);
///     assert!(errs.iter().zip(&direct).all(|(a, b)| a.to_bits() == b.to_bits()));
/// }
/// ```
pub fn output_error_many(net: &Mlp, xs: &Matrix, plans: &[CompiledPlan]) -> Vec<Vec<f64>> {
    let mut eval = MultiPlanEvaluator::new(net, xs);
    plans.iter().map(|p| eval.output_error(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{
        ByzantineStrategy, InjectionPlan, NeuronFault, NeuronSite, SynapseFault, SynapseSite,
        SynapseTarget,
    };
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;

    fn deep_net() -> Mlp {
        MlpBuilder::new(3)
            .dense(7, Activation::Sigmoid { k: 1.2 })
            .dense(6, Activation::Tanh { k: 0.8 })
            .dense(5, Activation::Sigmoid { k: 1.0 })
            .init(Init::Xavier)
            .build(&mut rng(42))
    }

    fn plan_family() -> Vec<InjectionPlan> {
        vec![
            InjectionPlan::none(),
            InjectionPlan::crash([(0, 2)]),
            InjectionPlan::crash([(1, 0), (1, 5)]),
            InjectionPlan::crash([(2, 4)]),
            InjectionPlan::byzantine([(2, 1)], ByzantineStrategy::OpposeNominal),
            InjectionPlan::byzantine([(1, 3)], ByzantineStrategy::Random { seed: 7 }),
            InjectionPlan {
                neurons: vec![NeuronSite {
                    layer: 2,
                    neuron: 0,
                    fault: NeuronFault::StuckAt(0.4),
                }],
                synapses: vec![SynapseSite {
                    target: SynapseTarget::Hidden {
                        layer: 2,
                        to: 1,
                        from: 2,
                    },
                    fault: SynapseFault::Crash,
                }],
            },
            InjectionPlan {
                neurons: vec![],
                synapses: vec![SynapseSite {
                    target: SynapseTarget::Output { from: 3 },
                    fault: SynapseFault::Byzantine(0.6),
                }],
            },
        ]
    }

    #[test]
    fn first_faulty_layer_classifies_sites() {
        let net = deep_net();
        let cases = [
            (InjectionPlan::none(), 3),
            (InjectionPlan::crash([(0, 1)]), 0),
            (InjectionPlan::crash([(2, 1)]), 2),
            (
                InjectionPlan {
                    neurons: vec![],
                    synapses: vec![SynapseSite {
                        target: SynapseTarget::Hidden {
                            layer: 1,
                            to: 0,
                            from: 2,
                        },
                        fault: SynapseFault::Crash,
                    }],
                },
                1,
            ),
            (
                InjectionPlan {
                    neurons: vec![],
                    synapses: vec![SynapseSite {
                        target: SynapseTarget::Output { from: 0 },
                        fault: SynapseFault::Crash,
                    }],
                },
                3,
            ),
        ];
        for (plan, expected) in cases {
            let c = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
            assert_eq!(c.first_faulty_layer(), expected, "{plan:?}");
        }
    }

    #[test]
    fn many_is_bitwise_equal_to_per_plan_batches() {
        let net = deep_net();
        let plans: Vec<CompiledPlan> = plan_family()
            .iter()
            .map(|p| CompiledPlan::compile(p, &net, 1.0).unwrap())
            .collect();
        for b in [0usize, 1, 5] {
            let xs = Matrix::from_fn(b, 3, |r, c| 0.17 * r as f64 - 0.2 + 0.09 * c as f64);
            let many = output_error_many(&net, &xs, &plans);
            let mut ws = BatchWorkspace::default();
            for (pi, (plan, errs)) in plans.iter().zip(&many).enumerate() {
                let direct = plan.output_error_batch(&net, &xs, &mut ws);
                assert_eq!(errs.len(), direct.len());
                for (row, (a, d)) in errs.iter().zip(&direct).enumerate() {
                    assert_eq!(a.to_bits(), d.to_bits(), "plan {pi}, B {b}, row {row}");
                }
            }
        }
    }

    #[test]
    fn evaluator_counts_prefix_rows_saved() {
        let net = deep_net();
        let xs = Matrix::from_fn(4, 3, |r, c| 0.2 * (r + c) as f64);
        let mut eval = MultiPlanEvaluator::new(&net, &xs);
        let late = CompiledPlan::compile(&InjectionPlan::crash([(2, 0)]), &net, 1.0).unwrap();
        let _ = eval.output_error(&late);
        assert_eq!(eval.prefix_rows_saved(), 2 * 4);
        let early = CompiledPlan::compile(&InjectionPlan::crash([(0, 0)]), &net, 1.0).unwrap();
        let _ = eval.output_error(&early);
        assert_eq!(eval.prefix_rows_saved(), 2 * 4); // early plan saves nothing
    }

    #[test]
    fn repeated_evaluation_of_one_plan_is_stable() {
        let net = deep_net();
        let xs = Matrix::from_fn(3, 3, |r, c| 0.11 * r as f64 + 0.07 * c as f64);
        let plan = CompiledPlan::compile(&InjectionPlan::crash([(1, 1)]), &net, 1.0).unwrap();
        let mut eval = MultiPlanEvaluator::new(&net, &xs);
        let first = eval.output_error(&plan);
        let second = eval.output_error(&plan);
        assert_eq!(first, second);
    }
}
