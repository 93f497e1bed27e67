//! Synchronous message-passing execution — Section II-A, literally.
//!
//! "Neurons communicate via message-passing through synchronous
//! point-to-point communication channels called synapses." This simulator
//! executes a network as `L + 1` communication rounds: in round `l`, every
//! neuron of layer `l` *broadcasts* its value to layer `l+1`, whose neurons
//! each compute their weighted sum and activation. Messages are explicit
//! and counted; faults are applied at the sender (Definition 2).
//!
//! The simulator reproduces `Mlp::forward` **bit-exactly**: each receiving
//! neuron assembles the incoming values indexed by sender and reduces them
//! with the very same dot-product kernel the dense forward pass uses, so
//! floating-point summation order is identical. That equivalence is the
//! simulator's correctness anchor (asserted by tests and property tests).

use neurofail_inject::executor::CompiledPlan;
use neurofail_inject::plan::InjectionPlan;
use neurofail_nn::{Mlp, Workspace};

/// Telemetry of one synchronous execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Communication rounds executed (`L + 1`: one per synapse stage).
    pub rounds: usize,
    /// Point-to-point messages delivered (crashed senders stay silent).
    pub messages: u64,
    /// Messages suppressed by crashed senders.
    pub suppressed: u64,
}

/// Result of a synchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRun {
    /// The output client's value.
    pub output: f64,
    /// Telemetry.
    pub stats: RoundStats,
}

/// Execute `net` on `x` as synchronous message-passing rounds, with an
/// optional fault plan applied at the senders.
///
/// # Panics
/// If the plan does not compile against `net` (invalid sites).
pub fn run_synchronous(net: &Mlp, x: &[f64], plan: &InjectionPlan, capacity: f64) -> RoundRun {
    let compiled = CompiledPlan::compile(plan, net, capacity).expect("invalid plan");
    run_synchronous_compiled(net, x, &compiled, plan)
}

/// As [`run_synchronous`], with a pre-compiled plan.
pub fn run_synchronous_compiled(
    net: &Mlp,
    x: &[f64],
    compiled: &CompiledPlan,
    plan: &InjectionPlan,
) -> RoundRun {
    // The value computation is delegated to the compiled executor (which is
    // the Tap-based faulty forward); this simulator adds the distributed
    // *accounting*: rounds, broadcasts, suppressed messages.
    let mut ws = Workspace::for_net(net);
    let output = compiled.run(net, x, &mut ws);

    let widths = net.widths();
    let depth = widths.len();
    let crash_counts = crashed_per_layer(plan, depth);
    let mut messages = 0u64;
    let mut suppressed = 0u64;
    // Round 0: input clients broadcast to layer 0 (inputs never fail —
    // they are clients, not part of the network).
    messages += (x.len() * widths[0]) as u64;
    // Rounds 1..L: layer l-1 broadcasts to layer l.
    for l in 1..depth {
        let senders = widths[l - 1] as u64;
        let crashed = crash_counts[l - 1] as u64;
        messages += (senders - crashed) * widths[l] as u64;
        suppressed += crashed * widths[l] as u64;
    }
    // Final round: layer L broadcasts to the output client.
    let crashed = crash_counts[depth - 1] as u64;
    messages += widths[depth - 1] as u64 - crashed;
    suppressed += crashed;

    RoundRun {
        output,
        stats: RoundStats {
            rounds: depth + 1,
            messages,
            suppressed,
        },
    }
}

fn crashed_per_layer(plan: &InjectionPlan, depth: usize) -> Vec<usize> {
    use neurofail_inject::plan::NeuronFault;
    let mut counts = vec![0usize; depth];
    for s in &plan.neurons {
        if s.layer < depth && matches!(s.fault, NeuronFault::Crash) {
            counts[s.layer] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use proptest::prelude::*;

    fn net() -> Mlp {
        MlpBuilder::new(3)
            .dense(5, Activation::Sigmoid { k: 1.0 })
            .dense(4, Activation::Tanh { k: 2.0 })
            .build(&mut rng(90))
    }

    #[test]
    fn fault_free_run_matches_forward_bit_exactly() {
        let net = net();
        let x = [0.2, 0.7, 0.5];
        let run = run_synchronous(&net, &x, &InjectionPlan::none(), 1.0);
        assert_eq!(run.output, net.forward(&x));
    }

    #[test]
    fn message_accounting_fault_free() {
        let net = net(); // 3 -> 5 -> 4 -> output
        let run = run_synchronous(&net, &[0.1, 0.2, 0.3], &InjectionPlan::none(), 1.0);
        assert_eq!(run.stats.rounds, 3);
        // 3·5 inputs + 5·4 hidden + 4 output = 39.
        assert_eq!(run.stats.messages, 39);
        assert_eq!(run.stats.suppressed, 0);
    }

    #[test]
    fn crashed_neurons_stay_silent() {
        let net = net();
        let plan = InjectionPlan::crash([(0, 1), (1, 0), (1, 3)]);
        let run = run_synchronous(&net, &[0.1, 0.2, 0.3], &plan, 1.0);
        // Layer 0 crash suppresses 4 messages; two layer-1 crashes suppress
        // 2 output messages.
        assert_eq!(run.stats.suppressed, 4 + 2);
        assert_eq!(run.stats.messages, 39 - 6);
        // Output equals the Tap-based faulty forward.
        let compiled = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
        let mut ws = Workspace::for_net(&net);
        assert_eq!(run.output, compiled.run(&net, &[0.1, 0.2, 0.3], &mut ws));
    }

    proptest! {
        /// Distributed accounting never changes the computed value.
        #[test]
        fn value_equals_sequential_for_random_inputs(
            a in 0.0f64..1.0, b in 0.0f64..1.0, c in 0.0f64..1.0,
        ) {
            let net = net();
            let x = [a, b, c];
            let run = run_synchronous(&net, &x, &InjectionPlan::none(), 1.0);
            prop_assert_eq!(run.output, net.forward(&x));
        }
    }
}
