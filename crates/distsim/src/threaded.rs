//! Genuinely distributed execution: one OS thread per neuron.
//!
//! The paper's model views "each neuron as a single physical entity (that
//! can fail independently)". This runner realises that literally: every
//! neuron is a thread, synapses are `std::sync::mpsc` channels, and a crashed
//! neuron simply stops sending (its receivers read the default 0 of
//! Definition 2 — they know the synchronous round's expected message count
//! and do not wait for the dead).
//!
//! The runner reproduces the sequential forward pass **bit-exactly**: each
//! neuron assembles its incoming values indexed by sender and reduces them
//! with the same dot-product kernel as `DenseLayer::sums_into`, so
//! floating-point order is identical. This is asserted by tests — it is the
//! strongest possible statement that the distributed-system view and the
//! mathematical model of Section II coincide.
//!
//! Scale note: this is a fidelity demonstration, not a throughput engine
//! (Σ N_l threads). Campaign workloads use the sequential executor; the
//! Criterion bench `distsim_rounds` quantifies the gap.

use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};

use neurofail_nn::network::Layer;
use neurofail_nn::Mlp;
use neurofail_tensor::ops;

/// Errors from the threaded runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadedError {
    /// Only dense layers are supported (conv layers use the sequential
    /// executor).
    NonDenseLayer(
        /// 0-based index of the offending layer.
        usize,
    ),
    /// A crash site is outside the network.
    BadCrashSite(
        /// `(layer, neuron)` of the offending site.
        (usize, usize),
    ),
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedError::NonDenseLayer(l) => {
                write!(f, "threaded runner supports dense layers only (layer {l})")
            }
            ThreadedError::BadCrashSite((l, n)) => {
                write!(f, "crash site ({l}, {n}) outside the network")
            }
        }
    }
}

impl std::error::Error for ThreadedError {}

/// Execute `net` on `x` with one thread per neuron; neurons in `crashed`
/// fail-stop (receive, compute, never send).
///
/// Returns the output client's value.
///
/// # Errors
/// [`ThreadedError`] on conv layers or invalid crash sites.
///
/// # Panics
/// If `x.len() != net.input_dim()`.
#[allow(clippy::needless_range_loop)] // (l, j) index channels taken by value
pub fn run_threaded(
    net: &Mlp,
    x: &[f64],
    crashed: &HashSet<(usize, usize)>,
) -> Result<f64, ThreadedError> {
    assert_eq!(x.len(), net.input_dim(), "input dimension mismatch");
    let widths = net.widths();
    let depth = widths.len();
    for (l, layer) in net.layers().iter().enumerate() {
        if !matches!(layer, Layer::Dense(_)) {
            return Err(ThreadedError::NonDenseLayer(l));
        }
    }
    for &(l, n) in crashed {
        if l >= depth || n >= widths[l] {
            return Err(ThreadedError::BadCrashSite((l, n)));
        }
    }

    // One channel per neuron plus the output client's channel.
    type Msg = (usize, f64);
    let mut senders: Vec<Vec<Sender<Msg>>> = Vec::with_capacity(depth);
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> = Vec::with_capacity(depth);
    for &n in &widths {
        let (tx, rx): (Vec<_>, Vec<_>) = (0..n).map(|_| channel::<Msg>()).unzip();
        senders.push(tx);
        receivers.push(rx.into_iter().map(Some).collect());
    }
    let (out_tx, out_rx) = channel::<Msg>();

    // Expected message counts per receiving stage (senders minus crashed).
    let crashed_in_layer =
        |l: usize| -> usize { crashed.iter().filter(|&&(cl, _)| cl == l).count() };
    let expected_from_prev: Vec<usize> = (0..depth)
        .map(|l| {
            if l == 0 {
                x.len()
            } else {
                widths[l - 1] - crashed_in_layer(l - 1)
            }
        })
        .collect();

    let mut output = 0.0;
    std::thread::scope(|scope| {
        for l in 0..depth {
            for j in 0..widths[l] {
                let rx = receivers[l][j].take().expect("receiver taken once");
                let next: Vec<Sender<Msg>> = if l + 1 < depth {
                    senders[l + 1].clone()
                } else {
                    vec![out_tx.clone()]
                };
                let expected = expected_from_prev[l];
                let is_crashed = crashed.contains(&(l, j));
                let fan_in = net.layers()[l].in_dim();
                let net_ref = &*net;
                scope.spawn(move || {
                    // Assemble the round's messages indexed by sender;
                    // silent (crashed) senders default to 0 (Definition 2).
                    let mut vals = vec![0.0; fan_in];
                    for _ in 0..expected {
                        let (i, v) = rx.recv().expect("sender hung up early");
                        vals[i] = v;
                    }
                    let Layer::Dense(dense) = &net_ref.layers()[l] else {
                        unreachable!("checked above")
                    };
                    // Same kernel and order as the sequential forward.
                    let mut s = ops::dot(dense.weights().row(j), &vals);
                    if let Some(&b) = dense.bias().get(j) {
                        s += b;
                    }
                    let y = dense.activation().apply(s);
                    if !is_crashed {
                        for tx in &next {
                            tx.send((j, y)).expect("receiver hung up");
                        }
                    }
                });
            }
        }
        drop(out_tx);

        // Input clients broadcast to layer 0.
        for tx in &senders[0] {
            for (i, &xi) in x.iter().enumerate() {
                tx.send((i, xi)).expect("layer 0 neuron hung up");
            }
        }

        // The output client collects the last layer's round.
        let last = depth - 1;
        let mut vals = vec![0.0; widths[last]];
        for _ in 0..(widths[last] - crashed_in_layer(last)) {
            let (i, v) = out_rx.recv().expect("last layer hung up");
            vals[i] = v;
        }
        output = ops::dot(net.output_weights(), &vals) + net.output_bias();
    });

    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_data::rng::rng;
    use neurofail_inject::plan::InjectionPlan;
    use neurofail_inject::CompiledPlan;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_nn::Workspace;

    fn net() -> Mlp {
        MlpBuilder::new(3)
            .dense(6, Activation::Sigmoid { k: 1.5 })
            .dense(4, Activation::Tanh { k: 0.7 })
            .build(&mut rng(110))
    }

    #[test]
    fn matches_sequential_forward_bit_exactly() {
        let net = net();
        for x in [[0.1, 0.5, 0.9], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]] {
            let threaded = run_threaded(&net, &x, &HashSet::new()).unwrap();
            assert_eq!(threaded, net.forward(&x), "input {x:?}");
        }
    }

    #[test]
    fn crashes_match_the_tap_executor_bit_exactly() {
        let net = net();
        let crashed: HashSet<(usize, usize)> = [(0usize, 2usize), (0, 4), (1, 1)].into();
        let plan = InjectionPlan::crash(crashed.iter().copied());
        let compiled = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
        let mut ws = Workspace::for_net(&net);
        let x = [0.3, 0.8, 0.2];
        let threaded = run_threaded(&net, &x, &crashed).unwrap();
        assert_eq!(threaded, compiled.run(&net, &x, &mut ws));
    }

    #[test]
    fn whole_layer_crash_still_terminates() {
        let net = net();
        let crashed: HashSet<(usize, usize)> = (0..6).map(|n| (0usize, n)).collect();
        let threaded = run_threaded(&net, &[0.5, 0.5, 0.5], &crashed).unwrap();
        // Layer 1 sees all zeros; result is finite and matches sequential.
        let plan = InjectionPlan::crash(crashed.iter().copied());
        let compiled = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
        let mut ws = Workspace::for_net(&net);
        assert_eq!(threaded, compiled.run(&net, &[0.5, 0.5, 0.5], &mut ws));
    }

    #[test]
    fn rejects_bad_crash_site() {
        let net = net();
        let crashed: HashSet<(usize, usize)> = [(9usize, 0usize)].into();
        assert_eq!(
            run_threaded(&net, &[0.1, 0.1, 0.1], &crashed),
            Err(ThreadedError::BadCrashSite((9, 0)))
        );
    }

    #[test]
    fn rejects_conv_layers() {
        let conv = MlpBuilder::new(8)
            .conv1d(1, 3, Activation::Sigmoid { k: 1.0 })
            .build(&mut rng(111));
        assert_eq!(
            run_threaded(&conv, &[0.1; 8], &HashSet::new()),
            Err(ThreadedError::NonDenseLayer(0))
        );
    }
}
