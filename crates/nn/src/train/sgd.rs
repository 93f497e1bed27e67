//! Mini-batch SGD with momentum, weight decay and the Fep penalty.

use neurofail_data::{rng::DetRng, Dataset};
use neurofail_tensor::Matrix;

use crate::network::{Layer, Mlp, Workspace};
use crate::train::grads::{accumulate_example, BackpropWs, BatchBackpropWs, Grads};
use crate::train::penalty::FepPenalty;

/// Which backpropagation engine [`train`] drives.
///
/// Both engines consume identical batch schedules (same RNG stream) and
/// produce gradients that agree to ≤ 1e-10 per step; they differ only in
/// arithmetic staging. The per-sample engine is retained as the reference
/// for equivalence testing and for debugging single examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainEngine {
    /// Minibatch-GEMM backpropagation ([`Mlp::backward_batch`]): one GEMM +
    /// one vectorised elementwise sweep per layer per batch, in both
    /// directions. The default.
    #[default]
    Batched,
    /// The original scalar path: one [`accumulate_example`] call per
    /// example.
    PerSample,
}

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Classical momentum coefficient (0 disables).
    pub momentum: f64,
    /// L2 weight decay coefficient (0 disables). One of the two
    /// robustness/learning trade-off knobs of Section V-C ("imposing low
    /// weights leaves some room for higher numbers of faults").
    pub weight_decay: f64,
    /// Optional Fep-aware penalty (Section VI future work, experiment E15).
    pub fep_penalty: Option<FepPenalty>,
    /// Which backpropagation engine to use (batched GEMM by default).
    pub engine: TrainEngine,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 0.1,
            epochs: 200,
            batch: 16,
            momentum: 0.9,
            weight_decay: 0.0,
            fep_penalty: None,
            engine: TrainEngine::Batched,
        }
    }
}

/// Per-epoch training trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean squared training error after each epoch.
    pub epoch_mse: Vec<f64>,
}

impl TrainReport {
    /// MSE after the final epoch (`inf` if no epochs ran).
    pub fn final_mse(&self) -> f64 {
        self.epoch_mse.last().copied().unwrap_or(f64::INFINITY)
    }

    /// First epoch (0-based) whose MSE dropped below `threshold`, if any —
    /// the "ease of learning" metric of experiment E12.
    pub fn epochs_to_reach(&self, threshold: f64) -> Option<usize> {
        self.epoch_mse.iter().position(|&m| m <= threshold)
    }
}

/// Train `net` in place on `data`; returns the per-epoch trace.
///
/// Deterministic for a given `(net, data, cfg, rng)`: the batched engine's
/// gradients are bitwise reproducible (fixed per-element summation order;
/// see [`Mlp::backward_batch`]), so repeated runs — under any ambient
/// `Parallelism` policy — produce bit-identical networks and traces. The
/// two engines see the same RNG stream (batch schedules match), and their
/// loss trajectories agree within floating-point re-association noise.
///
/// # Example
/// ```
/// use neurofail_data::{functions::Ridge, rng::rng, Dataset};
/// use neurofail_nn::activation::Activation;
/// use neurofail_nn::train::{train, TrainConfig};
/// use neurofail_nn::MlpBuilder;
/// use neurofail_tensor::init::Init;
///
/// let mut r = rng(11);
/// let data = Dataset::sample(&Ridge::canonical(2), 64, &mut r);
/// let mut net = MlpBuilder::new(2)
///     .dense(8, Activation::Sigmoid { k: 1.0 })
///     .init(Init::Xavier)
///     .build(&mut r);
///
/// let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
/// let report = train(&mut net, &data, &cfg, &mut r);
/// assert_eq!(report.epoch_mse.len(), 5);
/// assert!(report.final_mse().is_finite());
/// ```
///
/// # Panics
/// If `data` is empty or its dimension does not match the network.
pub fn train(net: &mut Mlp, data: &Dataset, cfg: &TrainConfig, rng: &mut DetRng) -> TrainReport {
    assert!(!data.is_empty(), "train: empty dataset");
    assert_eq!(
        data.dim(),
        net.input_dim(),
        "train: dataset dimension {} != network input {}",
        data.dim(),
        net.input_dim()
    );
    match cfg.engine {
        TrainEngine::Batched => train_batched(net, data, cfg, rng),
        TrainEngine::PerSample => train_per_sample(net, data, cfg, rng),
    }
}

/// The minibatch-GEMM engine: gather each batch's rows into a reused
/// `B × d` matrix, run [`Mlp::backward_batch`] once per batch.
fn train_batched(
    net: &mut Mlp,
    data: &Dataset,
    cfg: &TrainConfig,
    rng: &mut DetRng,
) -> TrainReport {
    let mut bws = BatchBackpropWs::for_net(net, cfg.batch.min(data.len()));
    let mut grads = Grads::zeros_like(net);
    let mut velocity = Grads::zeros_like(net);
    let mut epoch_mse = Vec::with_capacity(cfg.epochs);
    let d = data.dim();
    let mut xs = Matrix::zeros(cfg.batch.min(data.len()), d);
    let mut ys: Vec<f64> = Vec::with_capacity(cfg.batch);

    for _ in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        for batch in data.batches(cfg.batch, rng) {
            if xs.rows() != batch.len() {
                // Only the epoch's final short batch reshapes (twice per
                // epoch in the steady state).
                xs = Matrix::zeros(batch.len(), d);
            }
            ys.clear();
            for (row, &i) in batch.iter().enumerate() {
                let (x, y) = data.example(i);
                xs.row_mut(row).copy_from_slice(x);
                ys.push(y);
            }
            grads.zero();
            epoch_loss += net.backward_batch(&xs, &ys, &mut bws, &mut grads);
            grads.scale(1.0 / batch.len() as f64);
            add_regularizer_grads(net, cfg, &mut grads);
            apply_update(net, cfg, &grads, &mut velocity);
        }
        epoch_mse.push(epoch_loss / data.len() as f64);
    }
    TrainReport { epoch_mse }
}

/// The reference scalar engine: one backpropagation pass per example.
fn train_per_sample(
    net: &mut Mlp,
    data: &Dataset,
    cfg: &TrainConfig,
    rng: &mut DetRng,
) -> TrainReport {
    let mut ws = Workspace::for_net(net);
    let mut bws = BackpropWs::for_net(net);
    let mut grads = Grads::zeros_like(net);
    let mut velocity = Grads::zeros_like(net);
    let mut epoch_mse = Vec::with_capacity(cfg.epochs);

    for _ in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        for batch in data.batches(cfg.batch, rng) {
            grads.zero();
            for &i in &batch {
                let (x, y) = data.example(i);
                epoch_loss += accumulate_example(net, x, y, &mut ws, &mut bws, &mut grads);
            }
            grads.scale(1.0 / batch.len() as f64);
            add_regularizer_grads(net, cfg, &mut grads);
            apply_update(net, cfg, &grads, &mut velocity);
        }
        epoch_mse.push(epoch_loss / data.len() as f64);
    }
    TrainReport { epoch_mse }
}

/// Add weight-decay and Fep-penalty gradients (regularisers act on
/// parameters, not examples, so they are added once per batch).
fn add_regularizer_grads(net: &Mlp, cfg: &TrainConfig, grads: &mut Grads) {
    if cfg.weight_decay != 0.0 {
        for (layer, lg) in net.layers().iter().zip(&mut grads.layers) {
            let w = match layer {
                Layer::Dense(d) => d.weights().data(),
                Layer::Conv1d(c) => c.kernels().data(),
            };
            for (g, &wi) in lg.w.data_mut().iter_mut().zip(w) {
                *g += cfg.weight_decay * wi;
            }
        }
        for (g, &wi) in grads.output.iter_mut().zip(net.output_weights()) {
            *g += cfg.weight_decay * wi;
        }
    }
    if let Some(pen) = cfg.fep_penalty {
        for (layer, lg) in net.layers().iter().zip(&mut grads.layers) {
            let w = match layer {
                Layer::Dense(d) => d.weights().data(),
                Layer::Conv1d(c) => c.kernels().data(),
            };
            pen.add_grad(w, lg.w.data_mut());
        }
        pen.add_grad(net.output_weights(), &mut grads.output);
    }
}

/// Momentum SGD step: `v = μ·v − lr·g; w += v`.
fn apply_update(net: &mut Mlp, cfg: &TrainConfig, grads: &Grads, velocity: &mut Grads) {
    let step = |w: &mut f64, v: &mut f64, g: f64| {
        *v = cfg.momentum * *v - cfg.lr * g;
        *w += *v;
    };
    for ((layer, lg), lv) in net
        .layers_mut()
        .iter_mut()
        .zip(&grads.layers)
        .zip(&mut velocity.layers)
    {
        let (w, b): (&mut [f64], &mut [f64]) = match layer {
            Layer::Dense(d) => {
                let has_bias = d.has_bias();
                let dl = d;
                let b: &mut [f64] = if has_bias { &mut dl.bias } else { &mut [] };
                // Borrow weights after bias split is resolved structurally.
                (dl.weights.data_mut(), b)
            }
            Layer::Conv1d(c) => (c.kernels.data_mut(), &mut c.bias),
        };
        for ((wi, vi), &gi) in w
            .iter_mut()
            .zip(lv.w.data_mut().iter_mut())
            .zip(lg.w.data())
        {
            step(wi, vi, gi);
        }
        for ((bi, vi), &gi) in b.iter_mut().zip(&mut lv.b).zip(&lg.b) {
            step(bi, vi, gi);
        }
    }
    for ((wi, vi), &gi) in net
        .output_weights
        .iter_mut()
        .zip(&mut velocity.output)
        .zip(&grads.output)
    {
        step(wi, vi, gi);
    }
    step(
        &mut net.output_bias,
        &mut velocity.output_bias,
        grads.output_bias,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::builder::MlpBuilder;
    use neurofail_data::functions::{Ridge, TargetFn};
    use neurofail_data::rng::rng;
    use neurofail_tensor::init::Init;

    fn setup() -> (Mlp, Dataset) {
        let mut r = rng(31);
        let target = Ridge::canonical(2);
        let data = Dataset::sample(&target, 256, &mut r);
        let net = MlpBuilder::new(2)
            .dense(12, Activation::Sigmoid { k: 1.0 })
            .init(Init::Xavier)
            .build(&mut r);
        (net, data)
    }

    #[test]
    fn training_reduces_loss() {
        let (mut net, data) = setup();
        let cfg = TrainConfig {
            epochs: 250,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &data, &cfg, &mut rng(32));
        let first = report.epoch_mse[0];
        let last = report.final_mse();
        assert!(
            last < first / 4.0,
            "MSE did not drop enough: {first} -> {last}"
        );
        assert!(last < 0.01, "final MSE too high: {last}");
    }

    #[test]
    fn training_is_deterministic() {
        let (net0, data) = setup();
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut a = net0.clone();
        let mut b = net0.clone();
        let ra = train(&mut a, &data, &cfg, &mut rng(33));
        let rb = train(&mut b, &data, &cfg, &mut rng(33));
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (net0, data) = setup();
        let mut plain = net0.clone();
        let mut decayed = net0.clone();
        let base = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        train(&mut plain, &data, &base, &mut rng(34));
        train(
            &mut decayed,
            &data,
            &TrainConfig {
                weight_decay: 0.05,
                ..base
            },
            &mut rng(34),
        );
        assert!(
            decayed.max_abs_weight() < plain.max_abs_weight(),
            "decay {} !< plain {}",
            decayed.max_abs_weight(),
            plain.max_abs_weight()
        );
    }

    #[test]
    fn fep_penalty_reduces_wm_versus_plain() {
        let (net0, data) = setup();
        let mut plain = net0.clone();
        let mut fep = net0.clone();
        let base = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        train(&mut plain, &data, &base, &mut rng(35));
        train(
            &mut fep,
            &data,
            &TrainConfig {
                fep_penalty: Some(FepPenalty {
                    strength: 5e-3,
                    sharpness: 16.0,
                }),
                ..base
            },
            &mut rng(35),
        );
        assert!(
            fep.max_abs_weight() < plain.max_abs_weight(),
            "fep {} !< plain {}",
            fep.max_abs_weight(),
            plain.max_abs_weight()
        );
        // And it still learns something.
        let target = Ridge::canonical(2);
        let sup = data.sup_error(|x| fep.forward(x));
        assert!(
            sup < 0.5,
            "fep-trained net unusable: sup={sup} on {}",
            target.name()
        );
    }

    #[test]
    fn epochs_to_reach_finds_crossing() {
        let r = TrainReport {
            epoch_mse: vec![0.5, 0.2, 0.05, 0.01],
        };
        assert_eq!(r.epochs_to_reach(0.1), Some(2));
        assert_eq!(r.epochs_to_reach(1e-9), None);
        assert_eq!(r.final_mse(), 0.01);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let (mut net, _) = setup();
        let empty = Dataset::new(neurofail_tensor::Matrix::zeros(0, 2), vec![]);
        train(&mut net, &empty, &TrainConfig::default(), &mut rng(0));
    }
}
