//! Suffix-engine equivalence — the checkpoint/resume refactor's central
//! contract, checked at workspace level:
//!
//! * `output_error_many` / `MultiPlanEvaluator` / `output_error_resumed`
//!   are **bitwise** equal to per-plan `output_error_batch` across random
//!   networks, every fault kind (crash / Byzantine / stuck-at neurons,
//!   crash / Byzantine hidden and output synapses), batch sizes including
//!   B ∈ {0, 1, odd}, and `Parallelism` policies;
//! * a resumed pass is bitwise equal to the full faulty pass for **every**
//!   admissible start, not just the one the plan picks: recomputing from
//!   layer `from ≤ first_faulty_layer`, and starting after layer `l`'s
//!   activation from the checkpointed outputs for every `l` whose sums and
//!   activations the plan leaves nominal (`l < first_faulty_layer`, plus
//!   the first faulty layer itself when its only faults are neurons);
//! * `exhaustive_crash_search` results are bit-identical to the
//!   pre-refactor cost model (nominal pass + full faulty pass per subset);
//! * campaigns on the suffix engine stay bit-identical across thread
//!   counts, and their reported worst cases re-derive standalone.

use neurofail::data::rng::rng;
use neurofail::inject::exhaustive::{exhaustive_crash_search, Combinations};
use neurofail::inject::plan::{
    InjectionPlan, NeuronFault, NeuronSite, SynapseFault, SynapseSite, SynapseTarget,
};
use neurofail::inject::{
    output_error_many, run_campaign, ByzantineStrategy, CampaignConfig, CompiledPlan, FaultSpec,
    MultiPlanEvaluator, ResumeStart, TrialKind,
};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::{BatchWorkspace, Mlp};
use neurofail::par::{parallel_map, Parallelism};
use neurofail::tensor::init::Init;
use neurofail::tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

/// Random network from a compact recipe (mirrors `batch_equivalence.rs`).
fn build_net(seed: u64, depth: usize, width: usize, tanh: bool, bias: bool) -> Mlp {
    let act = if tanh {
        Activation::Tanh { k: 0.9 }
    } else {
        Activation::Sigmoid { k: 1.1 }
    };
    let mut b = MlpBuilder::new(3);
    for i in 0..depth {
        b = b.dense(width + (i % 3), act);
    }
    b.init(Init::Uniform { a: 0.5 })
        .bias(bias)
        .build(&mut rng(seed))
}

fn random_inputs(seed: u64, batch: usize, d: usize) -> Matrix {
    let mut r = rng(seed ^ 0x5FF1);
    Matrix::from_fn(batch, d, |_, _| r.gen_range(-1.0..=1.0))
}

/// A plan family touching every fault kind and every depth of `net` —
/// including the suffix engine's extreme cases (empty plan, output-synapse
/// -only plan).
fn plan_family(net: &Mlp, seed: u64) -> Vec<InjectionPlan> {
    let widths = net.widths();
    let depth = widths.len();
    let last = depth - 1;
    let mut plans = vec![
        InjectionPlan::none(),
        InjectionPlan::crash([(0, 0)]),
        InjectionPlan::crash([(last, widths[last] - 1)]),
        InjectionPlan::byzantine([(last, 0)], ByzantineStrategy::MaxPositive),
        InjectionPlan::byzantine([(0, 1 % widths[0])], ByzantineStrategy::Random { seed }),
        InjectionPlan::byzantine([(last, 0)], ByzantineStrategy::OpposeNominal),
        // Stuck-at neuron + crashed hidden synapse at the last layer.
        InjectionPlan {
            neurons: vec![NeuronSite {
                layer: last,
                neuron: 0,
                fault: NeuronFault::StuckAt(0.3),
            }],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Hidden {
                    layer: last,
                    to: 0,
                    from: 0,
                },
                fault: SynapseFault::Crash,
            }],
        },
        // Byzantine hidden synapse into layer 0.
        InjectionPlan {
            neurons: vec![],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Hidden {
                    layer: 0,
                    to: 0,
                    from: 1,
                },
                fault: SynapseFault::Byzantine(0.4),
            }],
        },
        // Output-synapse-only plans: crash and Byzantine — the resume-at-
        // the-output-dot-product limit case.
        InjectionPlan {
            neurons: vec![],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Output { from: 0 },
                fault: SynapseFault::Crash,
            }],
        },
        InjectionPlan {
            neurons: vec![],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Output {
                    from: widths[last] - 1,
                },
                fault: SynapseFault::Byzantine(-3.0),
            }],
        },
    ];
    if depth >= 2 {
        // A mid-depth mixed plan.
        plans.push(InjectionPlan {
            neurons: vec![NeuronSite {
                layer: 1,
                neuron: widths[1] / 2,
                fault: NeuronFault::Byzantine(ByzantineStrategy::MaxNegative),
            }],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Hidden {
                    layer: 1,
                    to: 0,
                    from: widths[0] - 1,
                },
                fault: SynapseFault::Crash,
            }],
        });
        // Neuron faults on two consecutive layers (the shape of a [2, 1]
        // crash campaign): the resume starts after layer 0's activation
        // and layer 1's faults fire in the recomputed suffix.
        plans.push(InjectionPlan::crash([
            (0, 0),
            (0, widths[0] - 1),
            (1, widths[1] / 2),
        ]));
        // A layer-0 neuron fault plus a hidden synapse into layer 1: the
        // resume starts after layer 0, and the synapse's pre-activation
        // tap still fires at layer 1 (reading the faulted layer-0 value).
        plans.push(InjectionPlan {
            neurons: vec![NeuronSite {
                layer: 0,
                neuron: 0,
                fault: NeuronFault::Byzantine(ByzantineStrategy::OpposeNominal),
            }],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Hidden {
                    layer: 1,
                    to: widths[1] - 1,
                    from: 0,
                },
                fault: SynapseFault::Crash,
            }],
        });
    }
    if depth >= 3 {
        // A stuck-at neuron at a middle layer.
        let mid = depth / 2;
        plans.push(InjectionPlan {
            neurons: vec![NeuronSite {
                layer: mid,
                neuron: widths[mid] - 1,
                fault: NeuronFault::StuckAt(-0.45),
            }],
            synapses: vec![],
        });
    }
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `output_error_many` is bitwise per-plan `output_error_batch` across
    /// nets, fault kinds and batch sizes (0, 1 and odd sizes included).
    #[test]
    fn many_is_bitwise_per_plan(
        seed in 0u64..1000,
        depth in 1usize..5,
        width in 3usize..10,
        batch_idx in 0usize..4,
        tanh in proptest::bool::ANY,
        bias in proptest::bool::ANY,
    ) {
        let batch = [0usize, 1, 7, 13][batch_idx]; // B ∈ {0, 1, odd}
        let net = build_net(seed, depth, width, tanh, bias);
        let plans: Vec<CompiledPlan> = plan_family(&net, seed)
            .iter()
            .map(|p| CompiledPlan::compile(p, &net, 1.0).unwrap())
            .collect();
        let xs = random_inputs(seed, batch, 3);
        let many = output_error_many(&net, &xs, &plans);
        prop_assert_eq!(many.len(), plans.len());
        let mut ws = BatchWorkspace::default();
        for (pi, (plan, errs)) in plans.iter().zip(&many).enumerate() {
            let direct = plan.output_error_batch(&net, &xs, &mut ws);
            prop_assert_eq!(errs.len(), batch);
            for (b, (e, d)) in errs.iter().zip(&direct).enumerate() {
                prop_assert_eq!(
                    e.to_bits(), d.to_bits(),
                    "plan {}, row {}: suffix {:e} vs direct {:e}", pi, b, e, d
                );
            }
        }
    }

    /// Resuming at **every** admissible split `from ≤ first_faulty_layer`
    /// — not just the optimal split — reproduces the full faulty pass
    /// bitwise: the skipped prefix truly recomputes nominal values. So
    /// does starting after layer `l`'s activation wherever the plan leaves
    /// layer `l`'s sums and activations nominal, and the plan's own start
    /// through the checkpoint.
    #[test]
    fn every_suffix_split_is_bitwise(
        seed in 0u64..1000,
        depth in 1usize..5,
        width in 3usize..9,
        batch in 1usize..8,
    ) {
        let net = build_net(seed, depth, width, false, true);
        let xs = random_inputs(seed, batch, 3);
        let mut nominal = BatchWorkspace::for_net(&net, batch);
        let _ = net.forward_batch(&xs, &mut nominal);
        let mut full_ws = BatchWorkspace::default();
        let mut scratch = BatchWorkspace::default();
        for plan in plan_family(&net, seed) {
            let compiled = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
            let full = compiled.run_batch(&net, &xs, &mut full_ws);
            let first = compiled.first_faulty_layer();
            prop_assert!(first <= net.depth());
            for from in 0..=first {
                let resume_input: &Matrix = if from == 0 {
                    &xs
                } else {
                    &nominal.outs[from - 1]
                };
                let start = ResumeStart::Layer(from);
                let resumed = compiled.resume_batch_at(&net, start, resume_input, &mut scratch);
                for (b, (f, r)) in full.iter().zip(&resumed).enumerate() {
                    prop_assert_eq!(
                        f.to_bits(), r.to_bits(),
                        "plan {:?}, split {}, row {}", &plan, from, b
                    );
                }
            }
            let own = compiled.resume_start();
            for l in 0..own.checkpoint_layers() {
                let after = ResumeStart::AfterActivation(l);
                let resumed = compiled.resume_batch_at(&net, after, &nominal.outs[l], &mut scratch);
                for (b, (f, r)) in full.iter().zip(&resumed).enumerate() {
                    prop_assert_eq!(
                        f.to_bits(), r.to_bits(),
                        "plan {:?}, after layer {}, row {}", &plan, l, b
                    );
                }
            }
            let checkpointed =
                compiled.resume_batch_checkpointed(&net, &xs, &nominal, &mut scratch);
            for (b, (f, r)) in full.iter().zip(&checkpointed).enumerate() {
                prop_assert_eq!(
                    f.to_bits(), r.to_bits(),
                    "plan {:?}, own start {:?}, row {}", &plan, own, b
                );
            }
        }
    }

    /// The single-plan suffix path (`output_error_resumed`, what campaigns
    /// and serve flushes call) is bitwise `output_error_batch`.
    #[test]
    fn resumed_single_plan_is_bitwise(
        seed in 0u64..1000,
        depth in 1usize..5,
        width in 3usize..9,
        batch_idx in 0usize..4,
    ) {
        let batch = [0usize, 1, 5, 11][batch_idx];
        let net = build_net(seed, depth, width, true, false);
        let xs = random_inputs(seed, batch, 3);
        let mut ws = BatchWorkspace::default();
        let mut wn = BatchWorkspace::default();
        let mut wsc = BatchWorkspace::default();
        for plan in plan_family(&net, seed) {
            let compiled = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
            let direct = compiled.output_error_batch(&net, &xs, &mut ws);
            let resumed = compiled.output_error_resumed(&net, &xs, &mut wn, &mut wsc);
            for (b, (d, r)) in direct.iter().zip(&resumed).enumerate() {
                prop_assert_eq!(d.to_bits(), r.to_bits(), "plan {:?}, row {}", &plan, b);
            }
        }
    }

    /// The multi-plan engine is deterministic under parallel evaluation:
    /// evaluating the family concurrently (one evaluator per worker, any
    /// `Parallelism` policy) is bitwise the sequential result.
    #[test]
    fn many_is_bitwise_across_parallelism_policies(
        seed in 0u64..500,
        depth in 2usize..5,
        width in 3usize..8,
        batch in 1usize..6,
    ) {
        let net = build_net(seed, depth, width, false, false);
        let plans: Vec<CompiledPlan> = plan_family(&net, seed)
            .iter()
            .map(|p| CompiledPlan::compile(p, &net, 1.0).unwrap())
            .collect();
        let xs = random_inputs(seed, batch, 3);
        let reference = output_error_many(&net, &xs, &plans);
        for policy in [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::Threads(5)] {
            let parallel: Vec<Vec<f64>> = parallel_map(policy, plans.len(), |i| {
                let mut eval = MultiPlanEvaluator::new(&net, &xs);
                eval.output_error(&plans[i])
            });
            for (pi, (r, p)) in reference.iter().zip(&parallel).enumerate() {
                for (b, (a, c)) in r.iter().zip(p).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), c.to_bits(),
                        "policy {:?}, plan {}, row {}", policy, pi, b
                    );
                }
            }
        }
    }
}

/// The degenerate split: a plan faulting layer 0 has an **empty** shared
/// prefix, so its only admissible recompute-from split is `from = 0` —
/// which must degrade to exactly the full pass. With no tap at all,
/// `resume_batch_from` at 0 must *be* `forward_batch`, bitwise, checkpoint
/// untouched.
#[test]
fn resume_from_zero_degrades_to_forward_batch() {
    for (seed, depth, width) in [(11u64, 1usize, 5usize), (12, 3, 6), (13, 4, 4)] {
        let net = build_net(seed, depth, width, seed % 2 == 0, true);
        let xs = random_inputs(seed, 6, 3);
        let mut nominal = BatchWorkspace::for_net(&net, 6);
        let full = net.forward_batch(&xs, &mut nominal);

        // Tapless resume at 0 is forward_batch, bit for bit.
        let mut scratch = BatchWorkspace::default();
        let resumed = net.resume_batch_from(&xs, &mut scratch, &mut neurofail::nn::NoBatchTap, 0);
        for (b, (&f, &r)) in full.iter().zip(&resumed).enumerate() {
            assert_eq!(f.to_bits(), r.to_bits(), "row {b}");
        }

        // A layer-0-faulted plan (first_faulty_layer == 0): a resume from
        // layer 0 covers the whole pass, and both it and the
        // checkpoint-borrowing path (which starts after layer 0's
        // activation, the crash being a neuron fault) agree bitwise with
        // the full faulty pass.
        let plan = CompiledPlan::compile(&InjectionPlan::crash([(0, 1)]), &net, 1.0).unwrap();
        assert_eq!(plan.first_faulty_layer(), 0, "empty shared prefix");
        let mut full_ws = BatchWorkspace::default();
        let faulty_full = plan.run_batch(&net, &xs, &mut full_ws);
        let faulty_resumed = plan.resume_batch_at(&net, ResumeStart::Layer(0), &xs, &mut scratch);
        let faulty_checkpointed = plan.resume_batch_checkpointed(&net, &xs, &nominal, &mut scratch);
        for (b, ((&f, &r), &c)) in faulty_full
            .iter()
            .zip(&faulty_resumed)
            .zip(&faulty_checkpointed)
            .enumerate()
        {
            assert_eq!(f.to_bits(), r.to_bits(), "resume row {b}");
            assert_eq!(f.to_bits(), c.to_bits(), "checkpointed row {b}");
        }

        // The checkpoint was only read: it still replays the nominal pass.
        let replay = net.resume_batch_from(
            &nominal.outs[depth - 1],
            &mut scratch,
            &mut neurofail::nn::NoBatchTap,
            depth,
        );
        for (b, (&f, &r)) in full.iter().zip(&replay).enumerate() {
            assert_eq!(f.to_bits(), r.to_bits(), "checkpoint intact, row {b}");
        }
    }
}

/// The exhaustive sweep is bit-identical to the pre-refactor cost model:
/// one nominal batch + a **full** faulty pass per subset, worst tracked in
/// the same iteration order.
#[test]
fn exhaustive_search_is_bit_identical_to_pre_refactor_engine() {
    for (seed, depth, width, layer, k) in [
        (3u64, 3usize, 6usize, 2usize, 2usize),
        (4, 4, 5, 0, 1),
        (5, 2, 7, 1, 3),
    ] {
        let net = build_net(seed, depth, width, seed % 2 == 0, true);
        let inputs: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.17 * i as f64 - 0.5, 0.3, -0.2 + 0.11 * i as f64])
            .collect();
        let got = exhaustive_crash_search(&net, layer, k, &inputs, 1.0);

        // Pre-refactor reference engine.
        let mut xs = Matrix::zeros(inputs.len(), 3);
        for (r, x) in inputs.iter().enumerate() {
            xs.row_mut(r).copy_from_slice(x);
        }
        let mut ws = BatchWorkspace::for_net(&net, inputs.len());
        let nominal = net.forward_batch(&xs, &mut ws);
        let mut worst_error = 0.0f64;
        let mut worst_subset = Vec::new();
        let mut evaluations = 0u64;
        for subset in Combinations::new(net.widths()[layer], k) {
            let plan = InjectionPlan::crash(subset.iter().map(|&n| (layer, n)));
            let compiled = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
            let faulty = compiled.run_batch(&net, &xs, &mut ws);
            evaluations += faulty.len() as u64;
            for (&nom, &fail) in nominal.iter().zip(&faulty) {
                let err = (nom - fail).abs();
                if err > worst_error {
                    worst_error = err;
                    worst_subset = subset.clone();
                }
            }
        }
        assert_eq!(got.worst_error.to_bits(), worst_error.to_bits());
        assert_eq!(got.worst_subset, worst_subset);
        assert_eq!(got.evaluations, evaluations);
    }
}

/// Campaigns on the suffix engine: bit-identical across thread counts, and
/// the worst case both replays as a singleton batch and re-derives from
/// its recorded `(trial, seed)`.
#[test]
fn suffix_campaign_is_deterministic_and_worst_case_rederives() {
    let net = build_net(21, 3, 7, false, true);
    let cfg = CampaignConfig {
        trials: 18,
        inputs_per_trial: 9,
        ..CampaignConfig::default()
    };
    let reference = run_campaign(
        &net,
        &[1, 0, 2],
        TrialKind::Neurons(FaultSpec::ByzantineRandom),
        &cfg,
        Parallelism::Sequential,
    );
    for threads in [2usize, 5] {
        let got = run_campaign(
            &net,
            &[1, 0, 2],
            TrialKind::Neurons(FaultSpec::ByzantineRandom),
            &cfg,
            Parallelism::Threads(threads),
        );
        assert_eq!(got.stats, reference.stats);
        assert_eq!(got.worst, reference.worst);
    }
    let worst = reference.worst.expect("faults were injected");
    // Bitwise singleton replay of the recorded (plan, input).
    let compiled = CompiledPlan::compile(&worst.plan, &net, cfg.capacity).unwrap();
    let single = Matrix::from_vec(1, 3, worst.input.clone());
    let mut ws = BatchWorkspace::for_net(&net, 1);
    assert_eq!(
        compiled.output_error_batch(&net, &single, &mut ws)[0].to_bits(),
        worst.error.to_bits()
    );
    // Standalone re-derivation from the recorded trial seed.
    let mut r = rng(worst.seed);
    let plan = neurofail::inject::sampler::sample_neuron_plan(
        &net,
        &[1, 0, 2],
        FaultSpec::ByzantineRandom,
        &mut r,
    );
    assert_eq!(plan, worst.plan);
}
