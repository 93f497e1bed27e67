//! Injection plans: *which* components fail *how*.
//!
//! A plan is pure data (hashable into reports; the fleet wire encodes it
//! with `plan_to_bytes`) naming faulty neurons and synapses with their
//! failure semantics, mirroring the paper's Definition 2 (crash /
//! Byzantine neurons) and Section II-A's synapse fault model (crashed
//! synapse ≙ weight 0; Byzantine synapse ≙ bounded arbitrary
//! transmission).

/// How a Byzantine neuron picks the value it sends (always delivered
/// clamped to the synaptic capacity ±C — Assumption 1 is enforced by the
/// channel, not trusted to the adversary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzantineStrategy {
    /// Send +C.
    MaxPositive,
    /// Send −C.
    MaxNegative,
    /// Send `±C`, the sign chosen per-site to *oppose* the neuron's nominal
    /// output (a simple gradient-free adversary).
    OpposeNominal,
    /// Send a fixed pseudo-random value in `[−C, C]` derived from `seed`
    /// and the site coordinates (deterministic per plan — "arbitrary but
    /// fixed", keeping campaigns reproducible).
    Random {
        /// Per-plan seed.
        seed: u64,
    },
}

/// Failure semantics for one neuron (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NeuronFault {
    /// The neuron stops sending; receivers read `y = 0`.
    Crash,
    /// The neuron sends adversarial values (bounded by the capacity).
    Byzantine(ByzantineStrategy),
    /// The neuron's output sticks at a constant (clamped to ±C) — the
    /// classic hardware stuck-at model, a determinate special case of
    /// Byzantine behaviour.
    StuckAt(f64),
}

/// A faulty neuron: `layer` is 0-based (code convention; paper layer
/// `layer + 1`), `neuron` indexes within the layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuronSite {
    /// 0-based layer index.
    pub layer: usize,
    /// Neuron index within the layer.
    pub neuron: usize,
    /// Failure semantics.
    pub fault: NeuronFault,
}

/// Which synapse fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SynapseTarget {
    /// Synapse from neuron `from` (of layer `layer − 1`, or the input for
    /// `layer == 0`) into neuron `to` of 0-based layer `layer`.
    Hidden {
        /// Receiving 0-based layer.
        layer: usize,
        /// Receiving neuron index.
        to: usize,
        /// Sending neuron (left-layer) index.
        from: usize,
    },
    /// Synapse from last-layer neuron `from` into the output node.
    Output {
        /// Sending neuron index in layer L.
        from: usize,
    },
}

/// Failure semantics for one synapse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SynapseFault {
    /// Stops transmitting: the contribution `w·y` is removed (weight 0).
    Crash,
    /// Shifts the receiving sum by `delta` (clamped to ±C by the channel —
    /// the `λ` of Lemma 2).
    Byzantine(f64),
}

/// A faulty synapse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynapseSite {
    /// Which synapse.
    pub target: SynapseTarget,
    /// Failure semantics.
    pub fault: SynapseFault,
}

/// A complete injection plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InjectionPlan {
    /// Faulty neurons.
    pub neurons: Vec<NeuronSite>,
    /// Faulty synapses.
    pub synapses: Vec<SynapseSite>,
}

impl InjectionPlan {
    /// An empty (fault-free) plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Plan crashing the given `(layer, neuron)` sites.
    pub fn crash(sites: impl IntoIterator<Item = (usize, usize)>) -> Self {
        InjectionPlan {
            neurons: sites
                .into_iter()
                .map(|(layer, neuron)| NeuronSite {
                    layer,
                    neuron,
                    fault: NeuronFault::Crash,
                })
                .collect(),
            synapses: Vec::new(),
        }
    }

    /// Plan sticking the given `(layer, neuron)` sites at fixed values.
    pub fn stuck_at(sites: impl IntoIterator<Item = ((usize, usize), f64)>) -> Self {
        InjectionPlan {
            neurons: sites
                .into_iter()
                .map(|((layer, neuron), v)| NeuronSite {
                    layer,
                    neuron,
                    fault: NeuronFault::StuckAt(v),
                })
                .collect(),
            synapses: Vec::new(),
        }
    }

    /// Plan making the given sites Byzantine with one strategy.
    pub fn byzantine(
        sites: impl IntoIterator<Item = (usize, usize)>,
        strategy: ByzantineStrategy,
    ) -> Self {
        InjectionPlan {
            neurons: sites
                .into_iter()
                .map(|(layer, neuron)| NeuronSite {
                    layer,
                    neuron,
                    fault: NeuronFault::Byzantine(strategy),
                })
                .collect(),
            synapses: Vec::new(),
        }
    }

    /// Number of faulty neurons per 0-based layer (`depth` entries) — the
    /// `(f_l)` consumed by the bounds.
    pub fn neuron_counts(&self, depth: usize) -> Vec<usize> {
        let mut counts = vec![0usize; depth];
        for s in &self.neurons {
            if s.layer < depth {
                counts[s.layer] += 1;
            }
        }
        counts
    }

    /// Number of faulty synapses per receiving layer, `depth + 1` entries
    /// (last = output synapses) — Theorem 4's `(f_l)`.
    pub fn synapse_counts(&self, depth: usize) -> Vec<usize> {
        let mut counts = vec![0usize; depth + 1];
        for s in &self.synapses {
            match s.target {
                SynapseTarget::Hidden { layer, .. } if layer < depth => counts[layer] += 1,
                SynapseTarget::Output { .. } => counts[depth] += 1,
                _ => {}
            }
        }
        counts
    }

    /// Total number of faulty components.
    pub fn fault_count(&self) -> usize {
        self.neurons.len() + self.synapses.len()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.neurons.is_empty() && self.synapses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_counts() {
        let p = InjectionPlan::crash([(0, 1), (0, 3), (2, 0)]);
        assert_eq!(p.fault_count(), 3);
        assert_eq!(p.neuron_counts(3), vec![2, 0, 1]);
        assert!(!p.is_empty());
        assert!(InjectionPlan::none().is_empty());
    }

    #[test]
    fn synapse_counts_split_hidden_and_output() {
        let p = InjectionPlan {
            neurons: vec![],
            synapses: vec![
                SynapseSite {
                    target: SynapseTarget::Hidden {
                        layer: 1,
                        to: 0,
                        from: 2,
                    },
                    fault: SynapseFault::Crash,
                },
                SynapseSite {
                    target: SynapseTarget::Output { from: 4 },
                    fault: SynapseFault::Byzantine(0.5),
                },
                SynapseSite {
                    target: SynapseTarget::Output { from: 1 },
                    fault: SynapseFault::Crash,
                },
            ],
        };
        assert_eq!(p.synapse_counts(2), vec![0, 1, 2]);
    }

    #[test]
    fn out_of_depth_sites_are_ignored_in_counts() {
        let p = InjectionPlan::crash([(7, 0)]);
        assert_eq!(p.neuron_counts(2), vec![0, 0]);
    }
}
