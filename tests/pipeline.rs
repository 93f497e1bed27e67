//! End-to-end pipelines across crates: train → profile → certify → inject,
//! replication (Corollary 1), canonical-bytes round trips, and the
//! distributed simulator's equivalence guarantees.

use std::collections::HashSet;

use neurofail::core::{certify, Capacity, EpsilonBudget, NetworkProfile};
use neurofail::data::functions::GaussianBump;
use neurofail::data::rng::rng;
use neurofail::data::Dataset;
use neurofail::distsim::rounds::run_synchronous;
use neurofail::distsim::{run_boosted, run_threaded, LatencyModel};
use neurofail::inject::{run_campaign, CampaignConfig, FaultSpec, InjectionPlan, TrialKind};
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::train::{train, TrainConfig};
use neurofail::nn::{net_from_bytes, net_to_bytes, Mlp, NetId};
use neurofail::par::Parallelism;
use neurofail::tensor::init::Init;

fn trained_net() -> (Mlp, f64) {
    let target = GaussianBump::centered(2);
    let mut r = rng(1000);
    let data = Dataset::sample(&target, 256, &mut r);
    let mut net = MlpBuilder::new(2)
        .dense(10, Activation::Sigmoid { k: 1.0 })
        .dense(6, Activation::Sigmoid { k: 1.0 })
        .init(Init::Xavier)
        .build(&mut r);
    train(&mut net, &data, &TrainConfig::default(), &mut r);
    let eps_prime = neurofail::nn::metrics::sup_error_halton(&net, &target, 200);
    assert!(eps_prime < 0.2, "training failed: eps' = {eps_prime}");
    (net, eps_prime)
}

#[test]
fn train_certify_inject_holds_end_to_end() {
    let (net, eps_prime) = trained_net();
    // 16× replication: enough head-room that the per-crash Fep of the
    // trained net (w_out ≈ 1.3 at this seed) fits inside the 0.1 slack.
    let wide = net.replicate(16);
    let profile = NetworkProfile::from_mlp(&wide, Capacity::Bounded(1.0)).unwrap();
    let budget = EpsilonBudget::new(eps_prime + 0.1, eps_prime).unwrap();
    let cert = certify(&profile, budget);
    assert!(cert.crash_total() > 0, "replication should buy tolerance");

    // The packed crash distribution survives a randomized campaign.
    let res = run_campaign(
        &wide,
        &cert.crash_packed,
        TrialKind::Neurons(FaultSpec::Crash),
        &CampaignConfig {
            trials: 40,
            inputs_per_trial: 8,
            ..CampaignConfig::default()
        },
        Parallelism::all_cores(),
    );
    assert!(res.max_error() <= budget.slack());
}

#[test]
fn replication_preserves_function_and_scales_tolerance() {
    let (net, eps_prime) = trained_net();
    let budget = EpsilonBudget::new(eps_prime + 0.1, eps_prime).unwrap();
    let mut last_total = 0usize;
    for m in [4usize, 8, 16] {
        let wide = net.replicate(m);
        for x in [[0.2, 0.3], [0.9, 0.1], [0.5, 0.5]] {
            assert!((wide.forward(&x) - net.forward(&x)).abs() < 1e-10);
        }
        let profile = NetworkProfile::from_mlp(&wide, Capacity::Bounded(1.0)).unwrap();
        let cert = certify(&profile, budget);
        assert!(
            cert.crash_total() >= last_total,
            "tolerance should not shrink with m"
        );
        last_total = cert.crash_total();
    }
    assert!(last_total > 0);
}

#[test]
fn trained_network_round_trips_through_canonical_bytes() {
    let (net, _) = trained_net();
    let bytes = net_to_bytes(&net);
    let back = net_from_bytes(&bytes).expect("canonical bytes decode");
    assert_eq!(back, net);
    assert_eq!(net_to_bytes(&back), bytes, "re-encoding is byte-identical");
    assert_eq!(NetId::of(&back), NetId::of(&net));
    for x in [[0.35, 0.65], [0.0, 1.0], [-0.2, 0.9], [0.5, 0.5]] {
        assert_eq!(back.forward(&x).to_bits(), net.forward(&x).to_bits());
    }
}

#[test]
fn all_execution_modes_agree() {
    let (net, _) = trained_net();
    let x = [0.35, 0.65];
    let sequential = net.forward(&x);
    // Synchronous rounds: bit-exact.
    let rounds = run_synchronous(&net, &x, &InjectionPlan::none(), 1.0);
    assert_eq!(rounds.output, sequential);
    // One thread per neuron: bit-exact.
    let threaded = run_threaded(&net, &x, &HashSet::new()).unwrap();
    assert_eq!(threaded, sequential);
    // Full-quorum boosting: no skips, exact value.
    let run = run_boosted(
        &net,
        &x,
        &net.widths(),
        LatencyModel::Exponential { mean: 1.0 },
        1.0,
        &mut rng(2000),
    );
    assert_eq!(run.output, sequential);
    assert_eq!(run.error, 0.0);
}

#[test]
fn crashes_agree_between_executor_rounds_and_threads() {
    let (net, _) = trained_net();
    let crashed: HashSet<(usize, usize)> = [(0usize, 3usize), (1, 1)].into();
    let plan = InjectionPlan::crash(crashed.iter().copied());
    let x = [0.7, 0.2];

    let rounds = run_synchronous(&net, &x, &plan, 1.0);
    let threaded = run_threaded(&net, &x, &crashed).unwrap();
    assert_eq!(rounds.output, threaded);
    // And both disturb the output (the crash is not a no-op).
    assert_ne!(rounds.output, net.forward(&x));
}

#[test]
fn quantization_pipeline_respects_certified_lambda() {
    use neurofail::core::precision::{max_uniform_lambda, ErrorLocus};
    use neurofail::quant::{quantization_error, FixedPoint};

    let (net, _) = trained_net();
    let profile = NetworkProfile::from_mlp(&net, Capacity::Bounded(1.0)).unwrap();
    let target_degradation = 0.05;
    let lambda = max_uniform_lambda(&profile, target_degradation, ErrorLocus::PostActivation);
    let bits = (1.0 / (2.0 * lambda)).log2().ceil().max(1.0) as u32;
    let format = FixedPoint::unit(bits);
    assert!(format.max_error() <= lambda);

    let mut ws = neurofail::nn::Workspace::for_net(&net);
    for i in 0..40 {
        let t = i as f64 / 39.0;
        let err = quantization_error(&net, &[t, 1.0 - t], format, &mut ws);
        assert!(err <= target_degradation, "err {err} at t = {t}");
    }
}
