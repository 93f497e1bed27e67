//! Random plan generation for Monte-Carlo campaigns.
//!
//! A sampler draws injection plans matching a per-layer fault *count*
//! distribution `(f_l)` — the quantity the bounds speak about — with the
//! faulty sites chosen uniformly without replacement inside each layer.

use neurofail_data::rng::DetRng;
use neurofail_nn::Mlp;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::plan::{
    ByzantineStrategy, InjectionPlan, NeuronFault, NeuronSite, SynapseFault, SynapseSite,
    SynapseTarget,
};

/// What kind of fault the sampled neurons exhibit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// All sampled neurons crash.
    Crash,
    /// All sampled neurons send +C.
    ByzantineMaxPositive,
    /// All sampled neurons send −C.
    ByzantineMaxNegative,
    /// Each sampled neuron sends a fixed pseudo-random value in `[−C, C]`.
    ByzantineRandom,
    /// Each sampled neuron opposes its nominal output at ±C.
    ByzantineOpposeNominal,
    /// All sampled neurons stick at the given value.
    StuckAt(f64),
}

impl FaultSpec {
    fn to_fault(self, rng: &mut DetRng) -> NeuronFault {
        match self {
            FaultSpec::Crash => NeuronFault::Crash,
            FaultSpec::ByzantineMaxPositive => {
                NeuronFault::Byzantine(ByzantineStrategy::MaxPositive)
            }
            FaultSpec::ByzantineMaxNegative => {
                NeuronFault::Byzantine(ByzantineStrategy::MaxNegative)
            }
            FaultSpec::ByzantineRandom => {
                NeuronFault::Byzantine(ByzantineStrategy::Random { seed: rng.gen() })
            }
            FaultSpec::ByzantineOpposeNominal => {
                NeuronFault::Byzantine(ByzantineStrategy::OpposeNominal)
            }
            FaultSpec::StuckAt(v) => NeuronFault::StuckAt(v),
        }
    }
}

/// Sample a neuron-fault plan with exactly `counts[l]` faulty neurons in
/// each 0-based layer `l`.
///
/// # Panics
/// If `counts` mismatches the network depth or exceeds a layer width.
pub fn sample_neuron_plan(
    net: &Mlp,
    counts: &[usize],
    spec: FaultSpec,
    rng: &mut DetRng,
) -> InjectionPlan {
    let widths = net.widths();
    assert_eq!(counts.len(), widths.len(), "counts/depth mismatch");
    let mut neurons = Vec::new();
    for (layer, (&count, &width)) in counts.iter().zip(&widths).enumerate() {
        assert!(
            count <= width,
            "layer {layer}: {count} faults > {width} neurons"
        );
        let mut idx: Vec<usize> = (0..width).collect();
        idx.shuffle(rng);
        for &neuron in idx.iter().take(count) {
            neurons.push(NeuronSite {
                layer,
                neuron,
                fault: spec.to_fault(rng),
            });
        }
    }
    InjectionPlan {
        neurons,
        synapses: Vec::new(),
    }
}

/// Sample a synapse-fault plan with `counts[l]` faulty synapses entering
/// each 0-based layer `l` (`counts[L]` = output synapses). Byzantine
/// synapses get deviations uniform in `[−c, c]` when `byzantine` is true,
/// otherwise synapses crash.
///
/// # Panics
/// If `counts.len() != depth + 1` or a count exceeds the synapse population
/// of its layer.
pub fn sample_synapse_plan(
    net: &Mlp,
    counts: &[usize],
    byzantine: bool,
    capacity: f64,
    rng: &mut DetRng,
) -> InjectionPlan {
    let widths = net.widths();
    let depth = widths.len();
    assert_eq!(counts.len(), depth + 1, "need depth+1 synapse counts");
    let mut synapses = Vec::new();
    for layer in 0..depth {
        let fan_in = if layer == 0 {
            net.input_dim()
        } else {
            widths[layer - 1]
        };
        let population = fan_in * widths[layer];
        assert!(
            counts[layer] <= population,
            "layer {layer}: {} synapse faults > {population} synapses",
            counts[layer]
        );
        let mut flat: Vec<usize> = (0..population).collect();
        flat.shuffle(rng);
        for &s in flat.iter().take(counts[layer]) {
            let to = s / fan_in;
            let from = s % fan_in;
            synapses.push(SynapseSite {
                target: SynapseTarget::Hidden { layer, to, from },
                fault: sample_synapse_fault(byzantine, capacity, rng),
            });
        }
    }
    let out_pop = widths[depth - 1];
    assert!(counts[depth] <= out_pop, "too many output synapse faults");
    let mut flat: Vec<usize> = (0..out_pop).collect();
    flat.shuffle(rng);
    for &from in flat.iter().take(counts[depth]) {
        synapses.push(SynapseSite {
            target: SynapseTarget::Output { from },
            fault: sample_synapse_fault(byzantine, capacity, rng),
        });
    }
    InjectionPlan {
        neurons: Vec::new(),
        synapses,
    }
}

fn sample_synapse_fault(byzantine: bool, capacity: f64, rng: &mut DetRng) -> SynapseFault {
    if byzantine {
        SynapseFault::Byzantine(rng.gen_range(-capacity..=capacity))
    } else {
        SynapseFault::Crash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;

    fn net() -> Mlp {
        MlpBuilder::new(3)
            .dense(6, Activation::Sigmoid { k: 1.0 })
            .dense(4, Activation::Sigmoid { k: 1.0 })
            .build(&mut rng(50))
    }

    #[test]
    fn neuron_plan_matches_requested_counts() {
        let net = net();
        let plan = sample_neuron_plan(&net, &[3, 2], FaultSpec::Crash, &mut rng(51));
        assert_eq!(plan.neuron_counts(2), vec![3, 2]);
        // Sites are distinct within each layer.
        let mut seen = std::collections::HashSet::new();
        for s in &plan.neurons {
            assert!(seen.insert((s.layer, s.neuron)));
        }
    }

    #[test]
    fn neuron_plan_is_deterministic() {
        let net = net();
        let a = sample_neuron_plan(&net, &[2, 1], FaultSpec::ByzantineRandom, &mut rng(52));
        let b = sample_neuron_plan(&net, &[2, 1], FaultSpec::ByzantineRandom, &mut rng(52));
        assert_eq!(a, b);
    }

    #[test]
    fn synapse_plan_matches_counts() {
        let net = net();
        let plan = sample_synapse_plan(&net, &[4, 3, 2], true, 1.0, &mut rng(53));
        assert_eq!(plan.synapse_counts(2), vec![4, 3, 2]);
        // Byzantine deviations respect the capacity.
        for s in &plan.synapses {
            if let SynapseFault::Byzantine(d) = s.fault {
                assert!(d.abs() <= 1.0);
            } else {
                panic!("expected Byzantine faults");
            }
        }
    }

    #[test]
    fn crash_synapse_plan() {
        let net = net();
        let plan = sample_synapse_plan(&net, &[1, 0, 1], false, 1.0, &mut rng(54));
        assert!(plan
            .synapses
            .iter()
            .all(|s| matches!(s.fault, SynapseFault::Crash)));
    }

    #[test]
    #[should_panic(expected = "faults >")]
    fn too_many_faults_panics() {
        let net = net();
        let _ = sample_neuron_plan(&net, &[7, 0], FaultSpec::Crash, &mut rng(55));
    }
}
