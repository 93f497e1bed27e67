//! Admission contracts: every registration is one
//! [`CompiledPlan::compile`]. Rejection is typed and counted exactly, and
//! rejected plans leave no trace in the registry. A registered plan
//! evaluates **bitwise** as a direct compile + `output_error_batch` of
//! its own `(net, plan)` (ARCHITECTURE contract 14), and its `plan_key` —
//! the identity `eval_many` shares evaluations under — is equal exactly
//! for plans equal in network, structure and fault values.

use std::sync::Arc;

use neurofail::data::rng::rng;
use neurofail::inject::plan::{
    InjectionPlan, NeuronFault, NeuronSite, SynapseFault, SynapseSite, SynapseTarget,
};
use neurofail::inject::{ByzantineStrategy, CompiledPlan, PlanError, PlanRegistry};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::{BatchWorkspace, Mlp, NetId};
use neurofail::tensor::init::Init;
use neurofail::tensor::Matrix;
use rand::Rng;

fn net(seed: u64, depth: usize, width: usize) -> Arc<Mlp> {
    let mut b = MlpBuilder::new(4);
    for _ in 0..depth {
        b = b.dense(width, Activation::Sigmoid { k: 1.0 });
    }
    Arc::new(b.init(Init::Uniform { a: 0.5 }).build(&mut rng(seed)))
}

fn inputs(seed: u64, rows: usize) -> Matrix {
    let mut r = rng(seed);
    Matrix::from_fn(rows, 4, |_, _| r.gen_range(-1.0..=1.0))
}

fn stuck(layer: usize, neuron: usize, v: f64) -> InjectionPlan {
    InjectionPlan {
        neurons: vec![NeuronSite {
            layer,
            neuron,
            fault: NeuronFault::StuckAt(v),
        }],
        synapses: vec![],
    }
}

/// Out-of-range and duplicate sites are rejected with the typed
/// [`PlanError`], counted exactly once each, and leave the registry
/// untouched.
#[test]
fn rejection_is_typed_and_counted() {
    let net = net(11, 2, 5);
    let mut reg = PlanRegistry::new();

    let bad_neuron = stuck(9, 0, 1.0);
    assert_eq!(
        reg.register(Arc::clone(&net), &bad_neuron, 1.0),
        Err(PlanError::BadNeuron {
            layer: 9,
            neuron: 0
        })
    );

    let bad_synapse = InjectionPlan {
        neurons: vec![],
        synapses: vec![SynapseSite {
            target: SynapseTarget::Hidden {
                layer: 0,
                to: 99,
                from: 0,
            },
            fault: SynapseFault::Crash,
        }],
    };
    assert!(matches!(
        reg.register(Arc::clone(&net), &bad_synapse, 1.0),
        Err(PlanError::BadSynapse(_))
    ));

    let dup = InjectionPlan {
        neurons: vec![
            NeuronSite {
                layer: 1,
                neuron: 2,
                fault: NeuronFault::Crash,
            },
            NeuronSite {
                layer: 1,
                neuron: 2,
                fault: NeuronFault::StuckAt(0.5),
            },
        ],
        synapses: vec![],
    };
    assert_eq!(
        reg.register(Arc::clone(&net), &dup, 1.0),
        Err(PlanError::DuplicateNeuron {
            layer: 1,
            neuron: 2
        })
    );

    let stats = reg.admission_stats();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.bodies_compiled, 0);
    assert!(reg.is_empty(), "rejected plans must not register");
}

/// Every registration — crash, stuck-at and Byzantine neurons, crash and
/// Byzantine synapses — compiles once and evaluates bitwise as a direct
/// compile of its own plan; `plan_key` is shared by an exact repeat and
/// differs across fault values, sites and capacity.
#[test]
fn registered_plans_are_direct_compiles_keyed_by_value() {
    let net = net(23, 3, 6);
    let synapses = |delta: f64| InjectionPlan {
        neurons: vec![],
        synapses: vec![
            SynapseSite {
                target: SynapseTarget::Hidden {
                    layer: 1,
                    to: 2,
                    from: 4,
                },
                fault: SynapseFault::Crash,
            },
            SynapseSite {
                target: SynapseTarget::Hidden {
                    layer: 2,
                    to: 0,
                    from: 1,
                },
                fault: SynapseFault::Byzantine(delta),
            },
            SynapseSite {
                target: SynapseTarget::Output { from: 3 },
                fault: SynapseFault::Crash,
            },
        ],
    };
    let byzantine =
        |seed| InjectionPlan::byzantine([(1, 0), (2, 5)], ByzantineStrategy::Random { seed });
    // Pairwise distinct plans: 1/2, 4/5 and 6/7 differ only in value,
    // 1/3 only in site.
    let plans = [
        InjectionPlan::crash([(0, 1), (2, 4)]),
        stuck(1, 3, 0.25),
        stuck(1, 3, -1.5),
        stuck(2, 3, 0.25),
        byzantine(9),
        byzantine(10),
        synapses(0.5),
        synapses(-0.5),
    ];
    let mut registrations: Vec<(&InjectionPlan, f64)> = plans.iter().map(|p| (p, 1.0)).collect();
    registrations.push((&plans[1], 1.0)); // exact repeat
    registrations.push((&plans[1], 2.0)); // other capacity

    let mut reg = PlanRegistry::new();
    let ids: Vec<_> = registrations
        .iter()
        .map(|&(plan, capacity)| reg.register(Arc::clone(&net), plan, capacity).unwrap())
        .collect();
    let stats = reg.admission_stats();
    let n = registrations.len() as u64;
    assert_eq!(
        (stats.admitted, stats.bodies_compiled, stats.rejected),
        (n, n, 0)
    );

    let xs = inputs(29, 7);
    let mut ws = BatchWorkspace::default();
    for (&id, &(plan, capacity)) in ids.iter().zip(&registrations) {
        let direct = CompiledPlan::compile(plan, &net, capacity).unwrap();
        let want = direct.output_error_batch(&net, &xs, &mut ws);
        let got = reg.get(id).unwrap().eval_batch(&xs, &mut ws);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{plan:?} at capacity {capacity}");
        }
    }

    let key = |i: usize| reg.get(ids[i]).unwrap().ir().plan_key();
    let repeat = plans.len();
    assert_eq!(key(1), key(repeat), "an exact repeat shares its key");
    assert_ne!(key(1), key(repeat + 1), "capacity is part of the key");
    for i in 0..plans.len() {
        for j in 0..i {
            assert_ne!(key(i), key(j), "{:?} vs {:?}", plans[i], plans[j]);
        }
    }
}

/// Families group by network *content*, not `Arc` identity: the same
/// weights rebuilt under a different `Arc` lands in the same family, and
/// the same plan over it gets the same key.
#[test]
fn dedup_spans_content_equal_networks() {
    let a = net(57, 2, 5);
    let b = net(57, 2, 5); // same seed → bitwise-equal weights, new Arc
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(NetId::of(&a), NetId::of(&b));

    let mut reg = PlanRegistry::new();
    let plan = stuck(0, 1, 0.5);
    let ia = reg.register(Arc::clone(&a), &plan, 1.0).unwrap();
    let ib = reg.register(Arc::clone(&b), &plan, 1.0).unwrap();

    assert_eq!(reg.family_count(), 1);
    assert_eq!(
        reg.get(ia).unwrap().ir().plan_key(),
        reg.get(ib).unwrap().ir().plan_key()
    );
}
