//! Memory-cost model for reduced-precision deployments.
//!
//! The Proteus-style trade-off (paper ref. 31) that Theorem 5 explains: fewer bits per
//! stored value → less memory → more output error. This model counts the
//! stored values of a network (weights, biases, output weights, plus one
//! activation slot per neuron) and prices them at a given bit width against
//! the `f64` baseline.

use neurofail_nn::network::Layer;
use neurofail_nn::Mlp;

/// Bit budget of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Stored weight values (incl. biases and output weights).
    pub weight_values: u64,
    /// Activation storage slots (one per neuron).
    pub activation_values: u64,
    /// Bits per weight value.
    pub weight_bits: u32,
    /// Bits per activation value.
    pub activation_bits: u32,
    /// Total bits at the given widths.
    pub total_bits: u64,
    /// Total bits at the `f64` baseline.
    pub baseline_bits: u64,
}

impl MemoryReport {
    /// Fraction of the baseline memory used (< 1 = savings).
    pub fn ratio(&self) -> f64 {
        self.total_bits as f64 / self.baseline_bits as f64
    }

    /// Percent saved versus the baseline.
    pub fn savings_percent(&self) -> f64 {
        100.0 * (1.0 - self.ratio())
    }
}

/// Count a network's stored values and price them.
pub fn memory_report(net: &Mlp, weight_bits: u32, activation_bits: u32) -> MemoryReport {
    let mut weight_values = net.output_weights().len() as u64;
    let mut activation_values = 0u64;
    for layer in net.layers() {
        weight_values += match layer {
            Layer::Dense(d) => (d.weights().rows() * d.weights().cols() + d.bias().len()) as u64,
            Layer::Conv1d(c) => (c.kernels().rows() * c.kernels().cols() + c.bias().len()) as u64,
        };
        activation_values += layer.out_dim() as u64;
    }
    let total_bits =
        weight_values * weight_bits as u64 + activation_values * activation_bits as u64;
    let baseline_bits = (weight_values + activation_values) * 64;
    MemoryReport {
        weight_values,
        activation_values,
        weight_bits,
        activation_bits,
        total_bits,
        baseline_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;

    #[test]
    fn counts_dense_network() {
        let net = MlpBuilder::new(3)
            .dense(4, Activation::Sigmoid { k: 1.0 })
            .bias(true)
            .build(&mut rng(130));
        let r = memory_report(&net, 8, 8);
        // 3·4 weights + 4 biases + 4 output weights = 20; 4 activations.
        assert_eq!(r.weight_values, 20);
        assert_eq!(r.activation_values, 4);
        assert_eq!(r.total_bits, 24 * 8);
        assert_eq!(r.baseline_bits, 24 * 64);
        assert!((r.ratio() - 0.125).abs() < 1e-12);
        assert!((r.savings_percent() - 87.5).abs() < 1e-12);
    }

    #[test]
    fn conv_layers_share_weights() {
        let net = MlpBuilder::new(10)
            .conv1d(2, 3, Activation::Sigmoid { k: 1.0 })
            .bias(false)
            .build(&mut rng(131));
        let r = memory_report(&net, 16, 16);
        // 2 kernels × 3 + 16 output weights = 22 weights, 16 activations —
        // weight sharing means far fewer stored weights than the 10×16
        // dense equivalent.
        assert_eq!(r.weight_values, 22);
        assert_eq!(r.activation_values, 16);
    }

    #[test]
    fn fewer_bits_save_memory() {
        let net = MlpBuilder::new(4)
            .dense(8, Activation::Sigmoid { k: 1.0 })
            .build(&mut rng(132));
        let r8 = memory_report(&net, 8, 8);
        let r16 = memory_report(&net, 16, 16);
        assert!(r8.total_bits < r16.total_bits);
        assert_eq!(r8.baseline_bits, r16.baseline_bits);
    }
}
