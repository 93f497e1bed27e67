//! Per-neuron compute-latency models for the boosting simulation.
//!
//! Corollary 2's setting: "a network where neurons do not have the same
//! reactive speed to inputs". These models sample how long each neuron
//! takes to produce its output once its own quorum is satisfied; the
//! heavy-tailed variants are the interesting regime (a few stragglers
//! dominate the full-wait makespan, which is precisely what the boosting
//! scheme removes).

use neurofail_data::rng::DetRng;
use rand::Rng;

/// A latency distribution (all in abstract time units, strictly positive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every neuron takes exactly `t`.
    Constant(f64),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Exponential with the given mean (memoryless stragglers).
    Exponential {
        /// Mean latency.
        mean: f64,
    },
    /// Pareto with scale `x_min` and shape `alpha` (heavy tail; infinite
    /// variance for `alpha ≤ 2` — the pathological straggler regime).
    Pareto {
        /// Scale (minimum latency).
        x_min: f64,
        /// Tail index (smaller = heavier).
        alpha: f64,
    },
}

impl LatencyModel {
    /// Draw one latency.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        match *self {
            LatencyModel::Constant(t) => t,
            LatencyModel::Uniform { lo, hi } => {
                debug_assert!(lo <= hi);
                rng.gen_range(lo..=hi)
            }
            LatencyModel::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            LatencyModel::Pareto { x_min, alpha } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                x_min / u.powf(1.0 / alpha)
            }
        }
    }

    /// Draw `n` latencies.
    pub fn sample_n(&self, n: usize, rng: &mut DetRng) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_data::rng::rng;

    #[test]
    fn constant_is_constant() {
        let mut r = rng(1);
        assert_eq!(
            LatencyModel::Constant(2.5).sample_n(10, &mut r),
            vec![2.5; 10]
        );
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = rng(2);
        for t in (LatencyModel::Uniform { lo: 1.0, hi: 3.0 }).sample_n(1000, &mut r) {
            assert!((1.0..=3.0).contains(&t));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng(3);
        let xs = LatencyModel::Exponential { mean: 2.0 }.sample_n(20_000, &mut r);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!(xs.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let mut r = rng(4);
        let xs = LatencyModel::Pareto {
            x_min: 1.0,
            alpha: 1.5,
        }
        .sample_n(20_000, &mut r);
        assert!(xs.iter().all(|&t| t >= 1.0));
        // Heavy tail: the max dwarfs the median.
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        let max = sorted[xs.len() - 1];
        assert!(max / median > 20.0, "max/median = {}", max / median);
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = LatencyModel::Exponential { mean: 1.0 }.sample_n(5, &mut rng(9));
        let b = LatencyModel::Exponential { mean: 1.0 }.sample_n(5, &mut rng(9));
        assert_eq!(a, b);
    }
}
