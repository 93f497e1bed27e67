//! Batched/per-sample equivalence of the training engine — the contract of
//! the minibatch-GEMM rewrite, checked at workspace level:
//!
//! * `Mlp::backward_batch` matches an `accumulate_example` loop over the
//!   same rows to ≤ 1e-10 per gradient element, for any batch size
//!   (including B = 0, B = 1 and the epoch's short final batch), on dense
//!   and mixed conv/dense networks;
//! * gradients flowing through `backward_batch` match central finite
//!   differences of the batch loss;
//! * batched training is **bitwise** deterministic: repeated runs of
//!   `train` with `TrainEngine::Batched` produce identical networks and
//!   traces, including when runs execute concurrently on worker threads of
//!   different `Parallelism` policies;
//! * full training trajectories (momentum, weight decay, Fep penalty) of
//!   the two engines agree within floating-point re-association noise;
//! * the batched engine's gradients and whole training trajectories are
//!   bitwise equal under every supported [`neurofail::tensor::backend`]
//!   kind (determinism contract 11).

use neurofail::data::functions::Ridge;
use neurofail::data::rng::rng;
use neurofail::data::Dataset;
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::train::grads::{accumulate_example, BackpropWs};
use neurofail::nn::train::{train, BatchBackpropWs, Grads, TrainConfig, TrainEngine};
use neurofail::nn::{BatchWorkspace, Mlp, Workspace};
use neurofail::par::combinators::parallel_map;
use neurofail::par::Parallelism;
use neurofail::tensor::init::Init;
use neurofail::tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

/// Random dense network from a compact recipe.
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

/// Mixed conv + dense network (exercises the per-row conv backward path).
fn mixed_net(seed: u64) -> Mlp {
    MlpBuilder::new(6)
        .conv1d(2, 3, Activation::Sigmoid { k: 1.0 })
        .dense(5, Activation::Tanh { k: 0.8 })
        .init(Init::Xavier)
        .build(&mut rng(seed))
}

fn random_batch(seed: u64, batch: usize, d: usize) -> (Matrix, Vec<f64>) {
    let mut r = rng(seed ^ 0x7EA1);
    let xs = Matrix::from_fn(batch, d, |_, _| r.gen_range(0.0..=1.0));
    let ys: Vec<f64> = (0..batch).map(|_| r.gen_range(0.0..=1.0)).collect();
    (xs, ys)
}

/// Per-sample reference gradients for `(xs, ys)` plus the summed loss.
fn per_sample_grads(net: &Mlp, xs: &Matrix, ys: &[f64]) -> (f64, Grads) {
    let mut ws = Workspace::for_net(net);
    let mut bws = BackpropWs::for_net(net);
    let mut grads = Grads::zeros_like(net);
    let mut loss = 0.0;
    for (b, &y) in ys.iter().enumerate() {
        loss += accumulate_example(net, xs.row(b), y, &mut ws, &mut bws, &mut grads);
    }
    (loss, grads)
}

fn assert_grads_close(a: &Grads, b: &Grads, tol: f64, ctx: &str) {
    for (l, (la, lb)) in a.layers.iter().zip(&b.layers).enumerate() {
        for (i, (x, y)) in la.w.data().iter().zip(lb.w.data()).enumerate() {
            assert!((x - y).abs() <= tol, "{ctx}: layer {l} w[{i}]: {x} vs {y}");
        }
        for (i, (x, y)) in la.b.iter().zip(&lb.b).enumerate() {
            assert!((x - y).abs() <= tol, "{ctx}: layer {l} b[{i}]: {x} vs {y}");
        }
    }
    for (i, (x, y)) in a.output.iter().zip(&b.output).enumerate() {
        assert!((x - y).abs() <= tol, "{ctx}: output[{i}]: {x} vs {y}");
    }
    assert!(
        (a.output_bias - b.output_bias).abs() <= tol,
        "{ctx}: output bias: {} vs {}",
        a.output_bias,
        b.output_bias
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// backward_batch ≈ per-sample accumulate_example to 1e-10 per element,
    /// for any batch size including 0, 1 and short batches.
    #[test]
    fn batched_gradients_match_per_sample(
        seed in 0u64..1000,
        depth in 1usize..5,
        width in 3usize..13,
        batch in 0usize..20,
        tanh in proptest::bool::ANY,
        bias in proptest::bool::ANY,
    ) {
        let net = build_net(seed, depth, width, tanh, bias);
        let (xs, ys) = random_batch(seed, batch, 3);
        let (sloss, sgrads) = per_sample_grads(&net, &xs, &ys);
        let mut bbws = BatchBackpropWs::for_net(&net, batch);
        let mut bgrads = Grads::zeros_like(&net);
        let bloss = net.backward_batch(&xs, &ys, &mut bbws, &mut bgrads);
        prop_assert!((sloss - bloss).abs() <= 1e-10, "loss {} vs {}", sloss, bloss);
        assert_grads_close(&sgrads, &bgrads, 1e-10, "prop");
    }

    /// The same property through the conv path.
    #[test]
    fn batched_gradients_match_per_sample_on_conv_nets(
        seed in 0u64..500,
        batch in 0usize..10,
    ) {
        let net = mixed_net(seed);
        let (xs, ys) = random_batch(seed, batch, 6);
        let (sloss, sgrads) = per_sample_grads(&net, &xs, &ys);
        let mut bbws = BatchBackpropWs::for_net(&net, batch);
        let mut bgrads = Grads::zeros_like(&net);
        let bloss = net.backward_batch(&xs, &ys, &mut bbws, &mut bgrads);
        prop_assert!((sloss - bloss).abs() <= 1e-10);
        assert_grads_close(&sgrads, &bgrads, 1e-10, "conv prop");
    }
}

/// Backend sweep over the training engine: `backward_batch` gradients on
/// dense and mixed conv/dense nets, plus a full 6-epoch trajectory, under
/// every supported compute backend against a portable-scoped reference.
/// Every backend must reproduce portable bitwise (contract 11).
#[test]
fn batched_gradients_and_training_agree_across_backends() {
    use neurofail::tensor::backend::{self, BackendKind};

    for net in [build_net(11, 3, 7, true, true), mixed_net(13)] {
        let d = net.input_dim();
        let (xs, ys) = random_batch(5, 9, d);
        let grads_under = |kind: BackendKind| {
            backend::with_backend(kind, || {
                let mut bbws = BatchBackpropWs::for_net(&net, 9);
                let mut grads = Grads::zeros_like(&net);
                let loss = net.backward_batch(&xs, &ys, &mut bbws, &mut grads);
                (loss, grads)
            })
        };
        let (ploss, pgrads) = grads_under(BackendKind::Portable);
        for kind in backend::supported_kinds() {
            let (loss, grads) = grads_under(kind);
            let ctx = format!("backend {} (d={d})", kind.name());
            assert_eq!(loss.to_bits(), ploss.to_bits(), "{ctx}: loss");
            for (l, (a, b)) in grads.layers.iter().zip(&pgrads.layers).enumerate() {
                for (x, y) in a.w.data().iter().zip(b.w.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: layer {l} weights");
                }
                for (x, y) in a.b.iter().zip(&b.b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: layer {l} bias");
                }
            }
            for (x, y) in grads.output.iter().zip(&pgrads.output) {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: output weights");
            }
            assert_eq!(
                grads.output_bias.to_bits(),
                pgrads.output_bias.to_bits(),
                "{ctx}: output bias"
            );
        }
    }

    // Whole trajectories: a short batched training run per backend must
    // reproduce the portable network and report exactly.
    let (net0, data) = training_task();
    let cfg = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let train_under = |kind: BackendKind| {
        backend::with_backend(kind, || {
            let mut net = net0.clone();
            let report = train(&mut net, &data, &cfg, &mut rng(9));
            (net, report)
        })
    };
    let (pnet, preport) = train_under(BackendKind::Portable);
    for kind in backend::supported_kinds() {
        let (net, report) = train_under(kind);
        assert_eq!(net, pnet, "trajectory under {}", kind.name());
        assert_eq!(report, preport, "report under {}", kind.name());
    }
}

#[test]
fn batched_gradients_match_finite_differences() {
    let net = mixed_net(77);
    let (xs, ys) = random_batch(21, 5, 6);
    let mut bbws = BatchBackpropWs::for_net(&net, 5);
    let mut grads = Grads::zeros_like(&net);
    net.backward_batch(&xs, &ys, &mut bbws, &mut grads);

    // Batch loss via the batched forward itself.
    let mut ws = BatchWorkspace::for_net(&net, 5);
    let mut loss = |n: &Mlp| -> f64 {
        n.forward_batch(&xs, &mut ws)
            .iter()
            .zip(&ys)
            .map(|(p, t)| (p - t) * (p - t))
            .sum()
    };
    let h = 1e-6;

    // Output weights and bias-free spot checks in every layer.
    for i in 0..net.output_weights().len() {
        let mut p = net.clone();
        p.output_weights_mut()[i] += h;
        let mut m = net.clone();
        m.output_weights_mut()[i] -= h;
        let fd = (loss(&p) - loss(&m)) / (2.0 * h);
        assert!(
            (grads.output[i] - fd).abs() < 1e-4,
            "output[{i}]: {} vs {fd}",
            grads.output[i]
        );
    }
    for l in 0..net.layers().len() {
        let (rows, cols) = match &net.layers()[l] {
            neurofail::nn::Layer::Dense(d) => (d.weights().rows(), d.weights().cols()),
            neurofail::nn::Layer::Conv1d(c) => (c.kernels().rows(), c.kernels().cols()),
        };
        for (r, c) in [(0, 0), (rows - 1, cols - 1), (rows / 2, cols / 2)] {
            let bump = |delta: f64| {
                let mut n = net.clone();
                match &mut n.layers_mut()[l] {
                    neurofail::nn::Layer::Dense(d) => {
                        let v = d.weights().get(r, c);
                        d.weights_mut().set(r, c, v + delta);
                    }
                    neurofail::nn::Layer::Conv1d(cv) => {
                        let v = cv.kernels().get(r, c);
                        cv.kernels_mut().set(r, c, v + delta);
                    }
                }
                n
            };
            let fd = (loss(&bump(h)) - loss(&bump(-h))) / (2.0 * h);
            let got = grads.layers[l].w.get(r, c);
            assert!(
                (got - fd).abs() < 1e-4,
                "layer {l} w[{r}][{c}]: {got} vs {fd}"
            );
        }
    }
}

fn training_task() -> (Mlp, Dataset) {
    let mut r = rng(0x7121);
    let target = Ridge::canonical(2);
    // 100 examples with batch 16 ⇒ every epoch ends in a short batch of 4.
    let data = Dataset::sample(&target, 100, &mut r);
    let net = MlpBuilder::new(2)
        .dense(12, Activation::Sigmoid { k: 1.0 })
        .dense(8, Activation::Sigmoid { k: 1.0 })
        .init(Init::Xavier)
        .build(&mut r);
    (net, data)
}

#[test]
fn batched_training_is_bitwise_deterministic_across_runs_and_parallelism() {
    let (net0, data) = training_task();
    let cfg = TrainConfig {
        epochs: 12,
        ..TrainConfig::default()
    };
    assert_eq!(cfg.engine, TrainEngine::Batched, "batched is the default");
    let mut reference = net0.clone();
    let ref_report = train(&mut reference, &data, &cfg, &mut rng(9));

    // Repeated run: bit-identical (Mlp/TrainReport equality is exact f64).
    let mut again = net0.clone();
    let again_report = train(&mut again, &data, &cfg, &mut rng(9));
    assert_eq!(reference, again);
    assert_eq!(ref_report, again_report);

    // Runs executing on the worker threads of different Parallelism
    // policies: the batched engine's fixed per-element summation order
    // makes every copy bit-identical to the sequential reference.
    for policy in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(5),
    ] {
        let results = parallel_map(policy, 4, |i| {
            let mut net = net0.clone();
            let report = train(&mut net, &data, &cfg, &mut rng(9));
            (i, net, report)
        });
        for (i, net, report) in results {
            assert_eq!(net, reference, "copy {i} under {policy:?}");
            assert_eq!(report, ref_report, "copy {i} under {policy:?}");
        }
    }
}

#[test]
fn trained_loss_trajectories_match_the_scalar_engine() {
    let (net0, data) = training_task();
    for (name, cfg) in [
        (
            "plain",
            TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
        ),
        (
            "decay+fep",
            TrainConfig {
                epochs: 40,
                weight_decay: 1e-3,
                fep_penalty: Some(neurofail::nn::train::FepPenalty {
                    strength: 1e-3,
                    sharpness: 16.0,
                }),
                ..TrainConfig::default()
            },
        ),
    ] {
        let mut batched = net0.clone();
        let rb = train(&mut batched, &data, &cfg, &mut rng(31));
        let mut scalar = net0.clone();
        let rs = train(
            &mut scalar,
            &data,
            &TrainConfig {
                engine: TrainEngine::PerSample,
                ..cfg
            },
            &mut rng(31),
        );
        assert_eq!(rb.epoch_mse.len(), rs.epoch_mse.len());
        for (e, (b, s)) in rb.epoch_mse.iter().zip(&rs.epoch_mse).enumerate() {
            assert!(
                (b - s).abs() <= 1e-6 * s.abs().max(1e-3),
                "{name}: epoch {e}: batched {b} vs scalar {s}"
            );
        }
        // Both engines end in genuinely trained, near-identical networks.
        assert!(
            rb.final_mse() < rb.epoch_mse[0] / 2.0,
            "{name}: no learning"
        );
        for (b, s) in batched.output_weights().iter().zip(scalar.output_weights()) {
            assert!(
                (b - s).abs() <= 1e-5,
                "{name}: weights diverged: {b} vs {s}"
            );
        }
    }
}

#[test]
fn per_sample_engine_remains_available_and_deterministic() {
    let (net0, data) = training_task();
    let cfg = TrainConfig {
        epochs: 5,
        engine: TrainEngine::PerSample,
        ..TrainConfig::default()
    };
    let mut a = net0.clone();
    let ra = train(&mut a, &data, &cfg, &mut rng(4));
    let mut b = net0.clone();
    let rb = train(&mut b, &data, &cfg, &mut rng(4));
    assert_eq!(a, b);
    assert_eq!(ra, rb);
}
