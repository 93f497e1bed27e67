//! The boosting scheme of Corollary 2: quorum waits + resets.
//!
//! Setting (Section V-B): neurons have heterogeneous reactive speeds, but a
//! neuron that has received "a sufficient amount of information from its
//! preceding layer" may fire immediately, sending a *reset* to the slow
//! neurons instead of waiting. Corollary 2 quantifies "sufficient": with an
//! admissible crash distribution `(f_l)`, a quorum of `N_l − f_l` signals
//! per layer preserves the ε-approximation — the reset neurons are treated
//! exactly as crashed, which the network tolerates by assumption.
//!
//! The simulator plays this out on a virtual clock: layer `l+1`'s ready
//! time is the `q_l`-th smallest completion time of layer `l` (instead of
//! the max), stragglers are reset (their values read 0 downstream), and the
//! run reports the makespan against the full-wait baseline together with
//! the output disturbance — which experiments compare against the crash-Fep
//! bound the quorum was derived from.

use neurofail_data::rng::DetRng;
use neurofail_inject::executor::CompiledPlan;
use neurofail_inject::plan::InjectionPlan;
use neurofail_nn::{Mlp, Workspace};

use crate::latency::LatencyModel;

/// Outcome of one boosted execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BoostRun {
    /// Output value under the boosting scheme.
    pub output: f64,
    /// Fault-free (full-wait) output value.
    pub nominal: f64,
    /// `|nominal − output|` — to be checked against the crash-Fep bound.
    pub error: f64,
    /// Virtual completion time with quorum waits.
    pub makespan: f64,
    /// Virtual completion time waiting for every neuron.
    pub full_wait_makespan: f64,
    /// Reset messages sent (one per (receiver, straggler) pair).
    pub resets: u64,
    /// Per layer: the neurons that were reset (treated as crashed).
    pub skipped: Vec<Vec<usize>>,
}

impl BoostRun {
    /// Wall-clock gain of the scheme (`≥ 1` when boosting helps).
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0.0 {
            1.0
        } else {
            self.full_wait_makespan / self.makespan
        }
    }
}

/// Simulate one boosted execution.
///
/// `quorums[l]` is how many layer-`l` signals the next stage waits for
/// (Corollary 2's `N_l − f_l`; pass the widths themselves for full waiting).
/// A quorum of 0 is legal — it means the slack absorbs the loss of the
/// whole layer, so receivers fire immediately on all-default inputs.
/// Latencies are drawn per neuron from `model`.
///
/// # Panics
/// If `quorums` mismatches the depth or any quorum exceeds its layer.
pub fn run_boosted(
    net: &Mlp,
    x: &[f64],
    quorums: &[usize],
    model: LatencyModel,
    capacity: f64,
    rng: &mut DetRng,
) -> BoostRun {
    let widths = net.widths();
    let depth = widths.len();
    assert_eq!(quorums.len(), depth, "need one quorum per layer");
    for (l, (&q, &n)) in quorums.iter().zip(&widths).enumerate() {
        assert!(q <= n, "layer {l}: quorum {q} exceeds {n} neurons");
    }

    // Per-neuron latencies, fixed for both the boosted and full-wait clock.
    let latencies: Vec<Vec<f64>> = widths.iter().map(|&n| model.sample_n(n, rng)).collect();

    // Full-wait clock.
    let mut ready_full = 0.0f64;
    for lat in &latencies {
        ready_full += 0.0; // layers gate on the previous ready time
        ready_full += lat.iter().fold(0.0f64, |m, &t| m.max(t));
    }
    let full_wait_makespan = ready_full;

    // Boosted clock: ready(l+1) = q-th smallest completion of layer l.
    let mut ready = 0.0f64;
    let mut skipped: Vec<Vec<usize>> = Vec::with_capacity(depth);
    let mut resets = 0u64;
    for l in 0..depth {
        let mut completion: Vec<(f64, usize)> = latencies[l]
            .iter()
            .enumerate()
            .map(|(i, &t)| (ready + t, i))
            .collect();
        completion.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = quorums[l];
        if q > 0 {
            ready = completion[q - 1].0;
        } // q == 0: receivers fire immediately at the current ready time.
        let slow: Vec<usize> = completion[q..].iter().map(|&(_, i)| i).collect();
        let receivers = if l + 1 < depth { widths[l + 1] } else { 1 };
        resets += (slow.len() * receivers) as u64;
        skipped.push(slow);
    }
    let makespan = ready;

    // Values: stragglers are crashed neurons (Definition 2).
    let plan = InjectionPlan::crash(
        skipped
            .iter()
            .enumerate()
            .flat_map(|(l, s)| s.iter().map(move |&i| (l, i))),
    );
    let compiled = CompiledPlan::compile(&plan, net, capacity).expect("valid straggler plan");
    let mut ws = Workspace::for_net(net);
    let nominal = net.forward_ws(x, &mut ws);
    let output = compiled.run(net, x, &mut ws);

    BoostRun {
        output,
        nominal,
        error: (nominal - output).abs(),
        makespan,
        full_wait_makespan,
        resets,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_core::{boosting, crash_fep, Capacity, EpsilonBudget, NetworkProfile};
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;

    fn net() -> Mlp {
        MlpBuilder::new(2)
            .dense(12, Activation::Sigmoid { k: 1.0 })
            .dense(8, Activation::Sigmoid { k: 1.0 })
            .init(Init::Uniform { a: 0.05 })
            .bias(false)
            .build(&mut rng(100))
    }

    #[test]
    fn full_quorum_is_exact_and_reset_free() {
        let net = net();
        let run = run_boosted(
            &net,
            &[0.4, 0.6],
            &net.widths(),
            LatencyModel::Exponential { mean: 1.0 },
            1.0,
            &mut rng(101),
        );
        assert_eq!(run.error, 0.0);
        assert_eq!(run.resets, 0);
        assert_eq!(run.makespan, run.full_wait_makespan);
        assert_eq!(run.speedup(), 1.0);
        assert!(run.skipped.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn quorum_waits_speed_up_heavy_tails() {
        let net = net();
        // Skip the 2 slowest of each layer.
        let quorums: Vec<usize> = net.widths().iter().map(|&n| n - 2).collect();
        let run = run_boosted(
            &net,
            &[0.4, 0.6],
            &quorums,
            LatencyModel::Pareto {
                x_min: 1.0,
                alpha: 1.2,
            },
            1.0,
            &mut rng(102),
        );
        assert!(run.speedup() > 1.0, "speedup {}", run.speedup());
        assert_eq!(run.skipped.iter().map(|s| s.len()).sum::<usize>(), 4);
        // Resets: 2 stragglers × 8 receivers + 2 × 1 output.
        assert_eq!(run.resets, 18);
    }

    #[test]
    fn error_respects_the_corollary2_bound() {
        let net = net();
        let profile = NetworkProfile::from_mlp(&net, Capacity::Bounded(1.0)).unwrap();
        let budget = EpsilonBudget::new(0.3, 0.05).unwrap();
        let table = boosting::admissible_quorums(&profile, budget);
        assert!(
            table.faults.iter().sum::<usize>() > 0,
            "profile should afford skips: {:?}",
            table.faults
        );
        let mut r = rng(103);
        for trial in 0..20 {
            let run = run_boosted(
                &net,
                &[0.3 + 0.02 * trial as f64, 0.5],
                &table.quorums,
                LatencyModel::Exponential { mean: 1.0 },
                1.0,
                &mut r,
            );
            let bound = crash_fep(&profile, &table.faults);
            assert!(
                run.error <= bound && bound <= budget.slack(),
                "error {} bound {bound} slack {}",
                run.error,
                budget.slack()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let net = net();
        let quorums: Vec<usize> = net.widths().iter().map(|&n| n - 1).collect();
        let m = LatencyModel::Uniform { lo: 0.5, hi: 2.0 };
        let a = run_boosted(&net, &[0.2, 0.9], &quorums, m, 1.0, &mut rng(104));
        let b = run_boosted(&net, &[0.2, 0.9], &quorums, m, 1.0, &mut rng(104));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_quorum_skips_the_whole_layer() {
        let net = net();
        let run = run_boosted(
            &net,
            &[0.1, 0.1],
            &[0, 8],
            LatencyModel::Constant(1.0),
            1.0,
            &mut rng(105),
        );
        // All 12 layer-0 neurons are reset; the run still completes.
        assert_eq!(run.skipped[0].len(), 12);
        assert!(run.error.is_finite());
        assert!(run.makespan < run.full_wait_makespan);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_quorum_rejected() {
        let net = net();
        let _ = run_boosted(
            &net,
            &[0.1, 0.1],
            &[13, 8],
            LatencyModel::Constant(1.0),
            1.0,
            &mut rng(106),
        );
    }
}
