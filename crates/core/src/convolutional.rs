//! The convolutional extension of Section VI.
//!
//! In a convolutional layer each neuron sees only `R(l)` left-neurons and
//! all neurons share one kernel, so "the maximal weight constraint `w_m^(l)`
//! … will run only on the `R(l)`-different values of the weights" — there
//! are simply far fewer distinct weights over which the max can grow. For
//! trained networks this makes the conv `w_m^(l)` stochastically smaller
//! than a dense layer's max over `N_l × N_{l−1}` weights, hence less
//! restrictive bounds ("tolerating larger amounts of failures").
//!
//! Profile extraction already does the right thing mechanically (a conv
//! layer's `w_m` is its kernel max); this module quantifies the structural
//! difference and packages the comparison used by experiment E13.

use neurofail_nn::Topology;

use crate::budget::EpsilonBudget;
use crate::profile::{Capacity, FaultClass, NetworkProfile, ProfileError};
use crate::tolerance::max_uniform_faults;

/// Number of *distinct* weight values feeding one layer: `R(l)` for a
/// convolutional layer (shared kernel), `fan_in × N_l` for a dense layer.
pub fn distinct_weight_count(stats: &neurofail_nn::topology::LayerStats) -> usize {
    match stats.receptive_field {
        Some(r) => r,
        None => stats.fan_in * stats.neurons,
    }
}

/// Per-layer structural summary of where the Section VI advantage comes
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvAdvantage {
    /// Distinct weight count per layer (`R(l)` or dense fan-in × N).
    pub distinct_weights: Vec<usize>,
    /// `w_m^(l)` per layer.
    pub w_max: Vec<f64>,
    /// Max uniform per-layer fault count tolerated (crash), under the given
    /// budget.
    pub uniform_crash_tolerance: usize,
}

/// Summarise a topology's convolutional bound inputs.
///
/// # Errors
/// Propagates [`ProfileError`] from profile extraction.
pub fn conv_advantage(
    topo: &Topology,
    budget: EpsilonBudget,
    capacity: Capacity,
) -> Result<ConvAdvantage, ProfileError> {
    let profile = NetworkProfile::from_topology(topo, capacity)?;
    Ok(ConvAdvantage {
        distinct_weights: topo.layers.iter().map(distinct_weight_count).collect(),
        w_max: topo.layers.iter().map(|l| l.w_max_nonbias).collect(),
        uniform_crash_tolerance: max_uniform_faults(&profile, budget, FaultClass::Crash),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn distinct_weights_conv_vs_dense() {
        let mut rng = SmallRng::seed_from_u64(8);
        let conv = MlpBuilder::new(16)
            .conv1d(1, 4, Activation::Sigmoid { k: 1.0 })
            .bias(false)
            .build(&mut rng);
        let dense = MlpBuilder::new(16)
            .dense(13, Activation::Sigmoid { k: 1.0 }) // same 13 neurons
            .bias(false)
            .build(&mut rng);
        let tc = neurofail_nn::Topology::of(&conv);
        let td = neurofail_nn::Topology::of(&dense);
        assert_eq!(distinct_weight_count(&tc.layers[0]), 4); // R(l)
        assert_eq!(distinct_weight_count(&td.layers[0]), 16 * 13);
    }

    #[test]
    fn conv_layer_wm_is_kernel_max() {
        use neurofail_nn::conv::Conv1dLayer;
        use neurofail_nn::network::{Layer, Mlp};
        use neurofail_tensor::Matrix;
        let net = Mlp::new(
            vec![Layer::Conv1d(Conv1dLayer::new(
                Matrix::from_vec(1, 3, vec![0.2, -0.9, 0.1]),
                vec![],
                Activation::Sigmoid { k: 1.0 },
                8,
            ))],
            vec![0.5; 6],
            0.0,
        );
        let p = NetworkProfile::from_mlp(&net, Capacity::Bounded(1.0)).unwrap();
        assert_eq!(p.layers[0].w_in, 0.9);
    }

    #[test]
    fn advantage_summary_runs() {
        let mut rng = SmallRng::seed_from_u64(9);
        let conv = MlpBuilder::new(12)
            .conv1d(2, 3, Activation::Sigmoid { k: 1.0 })
            .init(Init::Uniform { a: 0.05 })
            .bias(false)
            .build(&mut rng);
        let topo = neurofail_nn::Topology::of(&conv);
        let adv = conv_advantage(
            &topo,
            EpsilonBudget::new(0.3, 0.1).unwrap(),
            Capacity::Bounded(1.0),
        )
        .unwrap();
        assert_eq!(adv.distinct_weights, vec![3]); // kernel width R(l)
        assert_eq!(adv.w_max.len(), 1);
        assert!(adv.w_max[0] <= 0.05);
    }
}
