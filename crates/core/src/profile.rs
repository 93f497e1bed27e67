//! Network profiles: the bound inputs `(L, N_l, w_m^(l), K_l, C)`.
//!
//! A [`NetworkProfile`] is everything the paper's theorems consume — a pure
//! function of the network's *topology* ("computing this quantity only
//! requires looking at the topology of the network", Section I). It is
//! extracted from a trained `neurofail-nn` network via [`Topology`], or
//! built directly for closed-form tests and what-if analyses.
//!
//! Indexing convention: `layers[i]` is the paper's layer `l = i + 1`.
//! Generalisation: the paper uses a single network-wide Lipschitz constant
//! `K`; profiles carry a per-layer `k_l` (products `Π K_{l'}` replace the
//! paper's `K^{L−l}`), which reduces to the paper's formulas when all `k_l`
//! are equal. All bound functions document both forms.

use neurofail_nn::{Mlp, Topology};

/// Synaptic transmission capacity — the paper's Assumption 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Capacity {
    /// Transmission bounded by `C` in absolute value.
    Bounded(f64),
    /// No bound: the regime of Lemma 1, where a single Byzantine neuron
    /// defeats any network.
    Unbounded,
}

impl Capacity {
    /// The numeric capacity (`+inf` for unbounded).
    pub fn value(&self) -> f64 {
        match *self {
            Capacity::Bounded(c) => c,
            Capacity::Unbounded => f64::INFINITY,
        }
    }

    /// Whether Assumption 1 holds.
    pub fn is_bounded(&self) -> bool {
        matches!(self, Capacity::Bounded(_))
    }
}

/// Profile of one layer of neurons (paper layer `l`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerProfile {
    /// `N_l`: number of (failable) neurons. Constant bias neurons are not
    /// counted — they cannot fail and do not propagate error.
    pub n: usize,
    /// `w_m^(l)`: max |w| over synapses entering this layer from failable
    /// neurons (bias synapses excluded) — the error-propagation factor.
    pub w_in: f64,
    /// Max |w| over **all** synapses entering this layer, bias synapses
    /// included — the statistic for synapse-failure bounds (Theorem 4),
    /// where bias synapses can fail like any other.
    pub w_in_all: f64,
    /// `K_l`: Lipschitz constant of this layer's activation.
    pub k: f64,
}

/// Errors raised when a profile cannot support a requested bound.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// A crash-fault bound needs `sup |ϕ|`, but an activation is unbounded
    /// (e.g. ReLU) — outside the universality-theorem hypotheses.
    UnboundedActivation,
    /// The network has no layers.
    Empty,
    /// A parameter was non-finite or non-positive where positivity is
    /// required.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::UnboundedActivation => {
                write!(f, "activation is unbounded: sup|phi| does not exist (paper requires a squashing function)")
            }
            ProfileError::Empty => write!(f, "network has no layers"),
            ProfileError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// The complete bound input: per-layer profiles, output synapse max, the
/// transmission capacity `C` and the activation supremum.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// One entry per paper layer `1..=L`.
    pub layers: Vec<LayerProfile>,
    /// `w_m^(L+1)`: max |w| over the output node's incoming synapses.
    pub w_out: f64,
    /// The Byzantine value magnitude `C` (Assumption 1); `+inf` encodes the
    /// unbounded regime of Lemma 1.
    pub capacity: f64,
    /// `sup |ϕ|` — substituted for `C` in the crash-only case ("C can be
    /// replaced by the maximum of the activation function", Section IV-B).
    pub sup_activation: f64,
}

impl NetworkProfile {
    /// Build from an extracted [`Topology`] under Assumption 1 capacity
    /// `cap`.
    ///
    /// # Errors
    /// [`ProfileError::UnboundedActivation`] if any activation has no
    /// supremum; [`ProfileError::Empty`] for empty networks.
    pub fn from_topology(topo: &Topology, cap: Capacity) -> Result<Self, ProfileError> {
        if topo.layers.is_empty() {
            return Err(ProfileError::Empty);
        }
        let sup = topo
            .sup_activation()
            .ok_or(ProfileError::UnboundedActivation)?;
        if let Capacity::Bounded(c) = cap {
            if !(c.is_finite() && c > 0.0) {
                return Err(ProfileError::InvalidParameter("capacity"));
            }
        }
        Ok(NetworkProfile {
            layers: topo
                .layers
                .iter()
                .map(|l| LayerProfile {
                    n: l.neurons,
                    w_in: l.w_max_nonbias,
                    w_in_all: l.w_max,
                    k: l.lipschitz,
                })
                .collect(),
            w_out: topo.output.w_max,
            capacity: cap.value(),
            sup_activation: sup,
        })
    }

    /// Build directly from a network.
    ///
    /// # Errors
    /// Propagates [`NetworkProfile::from_topology`] errors.
    pub fn from_mlp(net: &Mlp, cap: Capacity) -> Result<Self, ProfileError> {
        Self::from_topology(&Topology::of(net), cap)
    }

    /// Uniform synthetic profile: `l` layers of `n` neurons, all weight
    /// maxima `w`, Lipschitz `k`, capacity `c` — the shape of the paper's
    /// worked discussions. Panics on non-positive parameters.
    pub fn uniform(l: usize, n: usize, w: f64, k: f64, c: f64) -> Self {
        assert!(
            l > 0 && n > 0,
            "uniform: need at least one layer and neuron"
        );
        assert!(
            w > 0.0 && k > 0.0 && c > 0.0,
            "uniform: parameters must be positive"
        );
        NetworkProfile {
            layers: vec![
                LayerProfile {
                    n,
                    w_in: w,
                    w_in_all: w,
                    k,
                };
                l
            ],
            w_out: w,
            capacity: c,
            sup_activation: 1.0,
        }
    }

    /// Number of layers `L`.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Neurons per layer.
    pub fn widths(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.n).collect()
    }

    /// Network-wide `K = max_l K_l` (the paper's single constant).
    pub fn lipschitz(&self) -> f64 {
        self.layers.iter().map(|l| l.k).fold(0.0, f64::max)
    }

    /// Whether Assumption 1 holds for this profile.
    pub fn is_bounded(&self) -> bool {
        self.capacity.is_finite()
    }

    /// The per-fault error magnitude for a fault class: `sup |ϕ|` for
    /// crashes, the capacity `C` for paper-convention Byzantine faults, and
    /// `C + sup |ϕ|` for the strict accounting (see [`FaultClass`]).
    pub fn fault_magnitude(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::Crash => self.sup_activation,
            FaultClass::Byzantine => self.capacity,
            FaultClass::ByzantineStrict => self.capacity + self.sup_activation,
        }
    }

    /// Profile transform for Corollary 1 over-provisioning: widen every
    /// layer by `m` while scaling all weights by `1/m` (the represented
    /// function is preserved to first order: `m` times more neurons, each
    /// contributing `1/m` of the signal). Under this transform every Fep
    /// term shrinks like `1/m`, which is what makes Corollary 1
    /// constructive.
    #[must_use]
    pub fn widened(&self, m: usize) -> NetworkProfile {
        assert!(m >= 1, "widened: factor must be at least 1");
        let mf = m as f64;
        NetworkProfile {
            layers: self
                .layers
                .iter()
                .map(|l| LayerProfile {
                    n: l.n * m,
                    w_in: l.w_in / mf,
                    w_in_all: l.w_in_all / mf,
                    k: l.k,
                })
                .collect(),
            w_out: self.w_out / mf,
            capacity: self.capacity,
            sup_activation: self.sup_activation,
        }
    }

    /// Retune all layers' Lipschitz constants (the Figure 3 sweep).
    #[must_use]
    pub fn with_lipschitz(&self, k: f64) -> NetworkProfile {
        assert!(k > 0.0, "with_lipschitz: K must be positive");
        let mut p = self.clone();
        for l in &mut p.layers {
            l.k = k;
        }
        p
    }

    /// Validate a per-layer fault distribution `(f_l)` against this profile.
    ///
    /// # Panics
    /// If `faults.len() != L` or any `f_l > N_l`.
    pub(crate) fn check_faults(&self, faults: &[usize]) {
        assert_eq!(
            faults.len(),
            self.layers.len(),
            "fault distribution length {} != {} layers",
            faults.len(),
            self.layers.len()
        );
        for (i, (&f, l)) in faults.iter().zip(&self.layers).enumerate() {
            assert!(
                f <= l.n,
                "layer {} ({} neurons) cannot lose {} neurons",
                i + 1,
                l.n,
                f
            );
        }
    }
}

/// The neuron-failure semantics of Definition 2, plus the strict Byzantine
/// accounting (a reproduction finding — see below).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Crash: the neuron stops sending; others read `y = 0`. Worst-case
    /// per-fault magnitude is `sup |ϕ|` (the lost nominal output).
    Crash,
    /// Byzantine with the **paper's** per-fault magnitude `C`: Theorem 2's
    /// proof bounds the faulty *transmitted value* `|v| ≤ C` (Assumption 1)
    /// and uses `C` as the per-fault error magnitude.
    Byzantine,
    /// Byzantine with the **strict** per-fault magnitude `C + sup ϕ`: the
    /// output *error* of a value-bounded Byzantine neuron is
    /// `|v − y| ≤ C + sup ϕ` — an adversary sending `−C` against a
    /// saturated nominal `y ≈ sup ϕ` exceeds the paper's `C` whenever the
    /// nominal is non-negligible (observably so for `C < sup ϕ`). The
    /// fault-injection suite validates against this class; experiment E6
    /// reports both. This is reproduction finding #2 in DESIGN.md.
    ByzantineStrict,
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_net() -> Mlp {
        MlpBuilder::new(3)
            .dense(8, Activation::Sigmoid { k: 2.0 })
            .dense(4, Activation::Sigmoid { k: 1.0 })
            .init(Init::Uniform { a: 0.5 })
            .bias(false)
            .build(&mut SmallRng::seed_from_u64(7))
    }

    #[test]
    fn from_mlp_extracts_shape() {
        let p = NetworkProfile::from_mlp(&sample_net(), Capacity::Bounded(2.0)).unwrap();
        assert_eq!(p.depth(), 2);
        assert_eq!(p.widths(), vec![8, 4]);
        assert_eq!(p.lipschitz(), 2.0);
        assert_eq!(p.capacity, 2.0);
        assert_eq!(p.sup_activation, 1.0);
        assert!(p.layers.iter().all(|l| l.w_in <= 0.5 && l.w_in > 0.0));
    }

    #[test]
    fn unbounded_capacity_is_infinite() {
        let p = NetworkProfile::from_mlp(&sample_net(), Capacity::Unbounded).unwrap();
        assert!(!p.is_bounded());
        assert_eq!(p.capacity, f64::INFINITY);
    }

    #[test]
    fn relu_networks_are_rejected() {
        let net = MlpBuilder::new(2)
            .dense(3, Activation::Relu)
            .build(&mut SmallRng::seed_from_u64(1));
        let err = NetworkProfile::from_mlp(&net, Capacity::Bounded(1.0)).unwrap_err();
        assert_eq!(err, ProfileError::UnboundedActivation);
    }

    #[test]
    fn invalid_capacity_rejected() {
        let err = NetworkProfile::from_mlp(&sample_net(), Capacity::Bounded(-1.0)).unwrap_err();
        assert_eq!(err, ProfileError::InvalidParameter("capacity"));
    }

    #[test]
    fn uniform_profile_shape() {
        let p = NetworkProfile::uniform(3, 10, 0.2, 1.5, 1.0);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.widths(), vec![10, 10, 10]);
        assert_eq!(p.w_out, 0.2);
        assert_eq!(p.lipschitz(), 1.5);
    }

    #[test]
    fn widened_scales_inversely() {
        let p = NetworkProfile::uniform(2, 4, 0.8, 1.0, 1.0);
        let w = p.widened(4);
        assert_eq!(w.widths(), vec![16, 16]);
        assert_eq!(w.layers[0].w_in, 0.2);
        assert_eq!(w.w_out, 0.2);
        assert_eq!(w.capacity, p.capacity);
    }

    #[test]
    fn fault_magnitude_by_class() {
        let p = NetworkProfile::uniform(1, 4, 0.5, 1.0, 3.0);
        assert_eq!(p.fault_magnitude(FaultClass::Crash), 1.0);
        assert_eq!(p.fault_magnitude(FaultClass::Byzantine), 3.0);
        assert_eq!(p.fault_magnitude(FaultClass::ByzantineStrict), 4.0);
    }

    #[test]
    #[should_panic(expected = "cannot lose")]
    fn check_faults_rejects_overfull_layer() {
        let p = NetworkProfile::uniform(2, 4, 0.5, 1.0, 1.0);
        p.check_faults(&[5, 0]);
    }

    #[test]
    fn with_lipschitz_sets_all_layers() {
        let p = NetworkProfile::uniform(3, 4, 0.5, 1.0, 1.0).with_lipschitz(0.25);
        assert!(p.layers.iter().all(|l| l.k == 0.25));
    }
}
