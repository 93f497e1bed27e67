//! The precision sweep — experiment E9's engine.
//!
//! For each bit width, measure the worst observed output degradation of
//! activation quantisation over a deterministic input set, alongside the
//! Theorem 5 bound and the memory cost. The rows reproduce the shape of
//! the Proteus trade-off the paper's Section V-A explains: memory falls
//! linearly in bits, the error bound falls geometrically (factor 2 per
//! bit), and the measured error hugs the bound from below.

use neurofail_core::precision::{precision_bound, ErrorLocus};
use neurofail_core::profile::NetworkProfile;
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_tensor::Matrix;

use crate::fixed::FixedPoint;
use crate::memory::memory_report;
use crate::network::{activation_lambdas, quantization_error_batch_from_nominal};

/// One row of the precision sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Fractional bits per activation.
    pub frac_bits: u32,
    /// Storage bits per value.
    pub bits: u32,
    /// Worst measured `|F_neu − F_quant|` over the input set.
    pub measured: f64,
    /// Theorem 5 bound for `λ_l = step/2`.
    pub bound: f64,
    /// Memory fraction versus the f64 baseline.
    pub memory_ratio: f64,
}

/// Run the sweep over the given fractional bit widths.
///
/// The whole input set is evaluated through the batched engine: the nominal
/// outputs are computed **once** ([`Mlp::forward_batch`]), then each format
/// costs a single quantised batch pass
/// ([`quantization_error_batch_from_nominal`]) — one GEMM + one activation
/// sweep per layer per format, instead of `2·|inputs|` scalar forward
/// passes per format.
///
/// # Panics
/// If `inputs` is empty or dimensions mismatch.
pub fn precision_sweep(
    net: &Mlp,
    profile: &NetworkProfile,
    inputs: &[Vec<f64>],
    frac_bits: &[u32],
) -> Vec<SweepRow> {
    assert!(!inputs.is_empty(), "precision_sweep: need inputs");
    let d = inputs[0].len();
    let mut xs = Matrix::zeros(inputs.len(), d);
    for (row, x) in inputs.iter().enumerate() {
        xs.row_mut(row).copy_from_slice(x);
    }
    let mut ws = BatchWorkspace::for_net(net, inputs.len());
    let nominal = net.forward_batch(&xs, &mut ws);
    frac_bits
        .iter()
        .map(|&fb| {
            let format = FixedPoint::unit(fb);
            let errors = quantization_error_batch_from_nominal(net, &xs, &nominal, format, &mut ws);
            let measured = errors.into_iter().fold(0.0f64, f64::max);
            let bound = precision_bound(
                profile,
                &activation_lambdas(net.depth(), format),
                ErrorLocus::PostActivation,
            );
            let mem = memory_report(net, format.bits(), format.bits());
            SweepRow {
                frac_bits: fb,
                bits: format.bits(),
                measured,
                bound,
                memory_ratio: mem.ratio(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_core::Capacity;
    use neurofail_data::grid::halton_points;
    use neurofail_data::rng::rng;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::builder::MlpBuilder;
    use neurofail_tensor::init::Init;

    #[test]
    fn sweep_rows_are_sound_and_monotone() {
        let net = MlpBuilder::new(2)
            .dense(8, Activation::Sigmoid { k: 1.0 })
            .dense(4, Activation::Sigmoid { k: 1.0 })
            .init(Init::Uniform { a: 0.5 })
            .bias(false)
            .build(&mut rng(140));
        let profile = NetworkProfile::from_mlp(&net, Capacity::Bounded(1.0)).unwrap();
        let inputs = halton_points(2, 64);
        let rows = precision_sweep(&net, &profile, &inputs, &[2, 4, 6, 8, 10]);
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            // Bound halves per extra bit; memory grows with bits.
            assert!(w[1].bound < w[0].bound);
            assert!(w[1].memory_ratio > w[0].memory_ratio);
        }
        for r in &rows {
            assert!(
                r.measured <= r.bound,
                "{} bits: measured {} > bound {}",
                r.frac_bits,
                r.measured,
                r.bound
            );
        }
        // Coarse quantisation must actually disturb the output.
        assert!(rows[0].measured > 0.0);
    }

    #[test]
    #[should_panic(expected = "need inputs")]
    fn empty_inputs_panic() {
        let net = MlpBuilder::new(2)
            .dense(3, Activation::Sigmoid { k: 1.0 })
            .build(&mut rng(141));
        let profile = NetworkProfile::from_mlp(&net, Capacity::Bounded(1.0)).unwrap();
        let _ = precision_sweep(&net, &profile, &[], &[4]);
    }
}
