//! Admission-pipeline contracts (PR 9): typed rejection, dedup of plans
//! equal-up-to-fault-value onto one shared compiled body, and
//! compiled-plan persistence (artifact-store record kind 2) with
//! warm-started admission across restarts.
//!
//! Everything here is counter-exact: the [`AdmissionStats`] snapshot must
//! account for every admission as exactly one of {cold compile, in-process
//! dedup hit, warm store load}, and rejected plans must leave no trace in
//! the registry. Results evaluated through admitted IRs are held
//! **bitwise** to a direct [`CompiledPlan::compile`] +
//! `output_error_batch` of the same `(net, plan)` — admission is a cache
//! in front of the compiler, never a different compiler.

use std::path::PathBuf;
use std::sync::Arc;

use neurofail::data::rng::rng;
use neurofail::inject::plan::{
    InjectionPlan, NeuronFault, NeuronSite, SynapseFault, SynapseSite, SynapseTarget,
};
use neurofail::inject::{ArtifactStore, CompiledPlan, PlanError, PlanRegistry};
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

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf-admission-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Plans that differ only in fault *values* share one compiled body
/// (structure bytes exclude the values), while a structurally different
/// plan compiles its own — and every admitted IR still evaluates bitwise
/// equal to a direct compile of its own `(net, plan)`.
#[test]
fn dedup_shares_bodies_across_fault_values() {
    let net = net(23, 3, 6);
    let mut reg = PlanRegistry::new();

    let a = stuck(1, 3, 0.25);
    let b = stuck(1, 3, -1.5); // same site+kind, different value
    let c = stuck(2, 3, 0.25); // different site: own body

    let ia = reg.register(Arc::clone(&net), &a, 1.0).unwrap();
    let ib = reg.register(Arc::clone(&net), &b, 1.0).unwrap();
    let ic = reg.register(Arc::clone(&net), &c, 1.0).unwrap();
    let ia2 = reg.register(Arc::clone(&net), &a, 1.0).unwrap(); // exact repeat

    let stats = reg.admission_stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(
        stats.bodies_compiled, 2,
        "a/b/a-again share one body, c has its own"
    );
    assert_eq!(stats.dedup_hits, 2);

    let [ra, rb, rc, ra2] = [ia, ib, ic, ia2].map(|id| reg.get(id).unwrap());
    assert!(ra.ir().shares_body_with(rb.ir()));
    assert!(ra.ir().shares_body_with(ra2.ir()));
    assert!(!ra.ir().shares_body_with(rc.ir()));
    assert_ne!(ra.ir().value_hash(), rb.ir().value_hash());
    assert_eq!(ra.ir().plan_key(), ra2.ir().plan_key());

    // Shared bodies never blur values: each IR's materialized plan is
    // bitwise the direct compile of its own plan.
    let xs = inputs(29, 7);
    let mut ws = BatchWorkspace::default();
    for (entry, plan) in [(ra, &a), (rb, &b), (rc, &c), (ra2, &a)] {
        let direct = CompiledPlan::compile(plan, &net, 1.0).unwrap();
        let want = direct.output_error_batch(&net, &xs, &mut ws);
        let got = entry.compiled().output_error_batch(&net, &xs, &mut ws);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}

/// Compiled bodies round-trip through the artifact store (record kind 2):
/// a restart re-admits from disk (`warm_admissions`, zero compiles), and a
/// corrupted record degrades to a cold compile instead of serving bad
/// bytes.
#[test]
fn compiled_plan_store_roundtrip_and_corruption() {
    let dir = store_dir("roundtrip");
    let net = net(41, 3, 6);
    let plan = stuck(1, 2, 0.75);
    let xs = inputs(43, 5);
    let mut ws = BatchWorkspace::default();
    let reference = CompiledPlan::compile(&plan, &net, 1.0)
        .unwrap()
        .output_error_batch(&net, &xs, &mut ws);

    // Cold process: compile once, publish the body.
    {
        let mut store = ArtifactStore::open(&dir).unwrap();
        let mut reg = PlanRegistry::new();
        reg.register_with_store(Arc::clone(&net), &plan, 1.0, &mut store)
            .unwrap();
        let s = reg.admission_stats();
        assert_eq!(
            (s.bodies_compiled, s.store_publishes, s.warm_admissions),
            (1, 1, 0)
        );
        store.flush_index().unwrap();
    }

    // Restart: the body comes back from disk, nothing recompiles, and
    // evaluation through the warm IR is bitwise the cold reference.
    {
        let mut store = ArtifactStore::open(&dir).unwrap();
        let mut reg = PlanRegistry::new();
        let id = reg
            .register_with_store(Arc::clone(&net), &plan, 1.0, &mut store)
            .unwrap();
        let s = reg.admission_stats();
        assert_eq!((s.bodies_compiled, s.warm_admissions), (0, 1), "{s:?}");
        let got = reg
            .get(id)
            .unwrap()
            .compiled()
            .output_error_batch(&net, &xs, &mut ws);
        for (g, w) in got.iter().zip(&reference) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        // Second admission in the same process hits the in-process body,
        // not the store again.
        reg.register_with_store(Arc::clone(&net), &plan, 1.0, &mut store)
            .unwrap();
        assert_eq!(reg.admission_stats().dedup_hits, 1);
    }

    // Corrupt every kind-2 record on disk: admission must degrade to a
    // cold compile (checksums reject the record) and still be correct.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("02-") && name.ends_with(".rec") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 1, "expected exactly one compiled-plan record");
    {
        let mut store = ArtifactStore::open(&dir).unwrap();
        let mut reg = PlanRegistry::new();
        let id = reg
            .register_with_store(Arc::clone(&net), &plan, 1.0, &mut store)
            .unwrap();
        let s = reg.admission_stats();
        assert_eq!(s.warm_admissions, 0, "corrupted record must not admit");
        assert_eq!(s.bodies_compiled, 1);
        let got = reg
            .get(id)
            .unwrap()
            .compiled()
            .output_error_batch(&net, &xs, &mut ws);
        for (g, w) in got.iter().zip(&reference) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Families group by network *content*, not `Arc` identity: the same
/// weights rebuilt under a different `Arc` lands in the same family and
/// dedups against its bodies.
#[test]
fn dedup_spans_content_equal_networks() {
    let a = net(57, 2, 5);
    let b = net(57, 2, 5); // same seed → bitwise-equal weights, new Arc
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(NetId::of(&a), NetId::of(&b));

    let mut reg = PlanRegistry::new();
    let plan = stuck(0, 1, 0.5);
    reg.register(Arc::clone(&a), &plan, 1.0).unwrap();
    reg.register(Arc::clone(&b), &plan, 1.0).unwrap();

    assert_eq!(reg.family_count(), 1);
    let s = reg.admission_stats();
    assert_eq!(s.bodies_compiled, 1);
    assert_eq!(s.dedup_hits, 1);
}
