//! Closed-form continuous targets `F : [0,1]^d → [0,1]`.
//!
//! Each target is smooth (so a modest network can reach a small ε', the
//! paper's over-provisioned regime) and has a known analytic form (so
//! experiments can measure `‖F − F_fail‖` exactly rather than against a
//! held-out set).

use std::f64::consts::PI;

/// A continuous target function on the unit hypercube, mapping into `[0,1]`.
///
/// This is the space `A = C([0,1]^d, [0,1])` of the paper's Definition 1.
pub trait TargetFn: Sync {
    /// Input dimension `d`.
    fn dim(&self) -> usize;

    /// Evaluate at `x ∈ [0,1]^d`.
    ///
    /// Implementations must return values in `[0,1]` for inputs in the cube;
    /// callers may pass slightly out-of-cube points (e.g. grid edges after
    /// fp rounding), which are clamped by the implementations here.
    fn eval(&self, x: &[f64]) -> f64;

    /// Short identifier used in experiment reports.
    fn name(&self) -> &'static str;
}

/// Squash an arbitrary real into `[0,1]`.
#[inline]
fn unit(v: f64) -> f64 {
    v.clamp(0.0, 1.0)
}

/// Barron-class sigmoidal ridge: `σ(s·(a·x − b))` rescaled into `[0,1]`.
///
/// Ridge functions are the canonical members of the class for which Barron's
/// approximation bound `N_min(ε) = Θ(1/ε)` (cited by the paper's
/// over-provisioning discussion, Section II-C) is tight.
#[derive(Debug, Clone)]
pub struct Ridge {
    /// Direction vector `a` (defines `d`).
    pub direction: Vec<f64>,
    /// Offset `b`.
    pub offset: f64,
    /// Slope `s` of the ridge sigmoid.
    pub slope: f64,
}

impl Ridge {
    /// A well-conditioned default ridge in dimension `d`.
    pub fn canonical(d: usize) -> Self {
        Ridge {
            direction: (0..d).map(|i| 1.0 / (i as f64 + 1.0)).collect(),
            offset: 0.5,
            slope: 3.0,
        }
    }
}

impl TargetFn for Ridge {
    fn dim(&self) -> usize {
        self.direction.len()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let s: f64 = self
            .direction
            .iter()
            .zip(x)
            .map(|(a, xi)| a * xi)
            .sum::<f64>()
            / self
                .direction
                .iter()
                .map(|a| a.abs())
                .sum::<f64>()
                .max(1e-12);
        unit(1.0 / (1.0 + (-self.slope * (s - self.offset)).exp()))
    }

    fn name(&self) -> &'static str {
        "ridge"
    }
}

/// Isotropic Gaussian bump centred at `c`: `exp(−‖x−c‖² / 2σ²)`.
#[derive(Debug, Clone)]
pub struct GaussianBump {
    /// Centre of the bump (defines `d`).
    pub center: Vec<f64>,
    /// Standard deviation σ.
    pub sigma: f64,
}

impl GaussianBump {
    /// Bump centred in the cube with moderate width.
    pub fn centered(d: usize) -> Self {
        GaussianBump {
            center: vec![0.5; d],
            sigma: 0.25,
        }
    }
}

impl TargetFn for GaussianBump {
    fn dim(&self) -> usize {
        self.center.len()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let d2: f64 = self
            .center
            .iter()
            .zip(x)
            .map(|(c, xi)| (xi - c) * (xi - c))
            .sum();
        unit((-d2 / (2.0 * self.sigma * self.sigma)).exp())
    }

    fn name(&self) -> &'static str {
        "gaussian-bump"
    }
}

/// Separable sine product `Π_i (1 + sin(2π ω x_i + φ)) / 2`, a smooth
/// oscillatory target exercising every input coordinate.
#[derive(Debug, Clone)]
pub struct SineProduct {
    /// Input dimension.
    pub d: usize,
    /// Frequency ω per coordinate.
    pub freq: f64,
    /// Phase φ.
    pub phase: f64,
}

impl SineProduct {
    /// Gentle one-period default.
    pub fn gentle(d: usize) -> Self {
        SineProduct {
            d,
            freq: 1.0,
            phase: 0.0,
        }
    }
}

impl TargetFn for SineProduct {
    fn dim(&self) -> usize {
        self.d
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let mut p = 1.0;
        for &xi in x {
            p *= 0.5 * (1.0 + (2.0 * PI * self.freq * xi + self.phase).sin());
        }
        unit(p)
    }

    fn name(&self) -> &'static str {
        "sine-product"
    }
}

/// Smooth two-input XOR: the function Minsky used against single-layer
/// perceptrons (paper Section I), mollified to be continuous on `[0,1]²`
/// and extended to `d` inputs by pairing coordinates.
#[derive(Debug, Clone)]
pub struct SmoothXor {
    /// Input dimension (pairs of coordinates are XOR-ed; odd tail ignored).
    pub d: usize,
    /// Sharpness of the smooth threshold.
    pub sharpness: f64,
}

impl SmoothXor {
    /// Classic two-input smooth XOR.
    pub fn classic() -> Self {
        SmoothXor {
            d: 2,
            sharpness: 8.0,
        }
    }
}

impl TargetFn for SmoothXor {
    fn dim(&self) -> usize {
        self.d
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let sig = |v: f64| 1.0 / (1.0 + (-self.sharpness * (v - 0.5)).exp());
        let mut acc = 0.0;
        let mut pairs = 0;
        let mut i = 0;
        while i + 1 < x.len() {
            let (a, b) = (sig(x[i]), sig(x[i + 1]));
            // soft a XOR b = a + b − 2ab
            acc += a + b - 2.0 * a * b;
            pairs += 1;
            i += 2;
        }
        if pairs == 0 {
            return 0.0;
        }
        unit(acc / pairs as f64)
    }

    fn name(&self) -> &'static str {
        "smooth-xor"
    }
}

/// Multivariate polynomial `Σ_i c_i x_i + Σ_i q_i x_i²`, affinely rescaled
/// into `[0,1]` by its exact extrema over the cube (coordinate-separable, so
/// the extrema are per-coordinate).
#[derive(Debug, Clone)]
pub struct Quadratic {
    /// Linear coefficients (defines `d`).
    pub linear: Vec<f64>,
    /// Quadratic coefficients (same length as `linear`).
    pub quad: Vec<f64>,
    lo: f64,
    hi: f64,
}

impl Quadratic {
    /// Build and pre-compute the exact range over `[0,1]^d`.
    ///
    /// # Panics
    /// If coefficient lengths differ.
    pub fn new(linear: Vec<f64>, quad: Vec<f64>) -> Self {
        assert_eq!(
            linear.len(),
            quad.len(),
            "Quadratic: coefficient length mismatch"
        );
        let (mut lo, mut hi) = (0.0, 0.0);
        for (&c, &q) in linear.iter().zip(&quad) {
            // extrema of c·t + q·t² over t ∈ [0,1]: endpoints plus the vertex.
            let mut cands = vec![0.0, c + q];
            if q != 0.0 {
                let t = -c / (2.0 * q);
                if (0.0..=1.0).contains(&t) {
                    cands.push(c * t + q * t * t);
                }
            }
            lo += cands.iter().cloned().fold(f64::INFINITY, f64::min);
            hi += cands.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        }
        Quadratic {
            linear,
            quad,
            lo,
            hi,
        }
    }
}

impl TargetFn for Quadratic {
    fn dim(&self) -> usize {
        self.linear.len()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let mut v = 0.0;
        for ((&c, &q), &xi) in self.linear.iter().zip(&self.quad).zip(x) {
            v += c * xi + q * xi * xi;
        }
        if self.hi <= self.lo {
            return 0.5;
        }
        unit((v - self.lo) / (self.hi - self.lo))
    }

    fn name(&self) -> &'static str {
        "quadratic"
    }
}

/// The constant-½ function; the degenerate baseline (any network with zero
/// output weights and a 0.5 bias realises it with ε' = 0).
#[derive(Debug, Clone, Copy)]
pub struct ConstantHalf {
    /// Input dimension.
    pub d: usize,
}

impl TargetFn for ConstantHalf {
    fn dim(&self) -> usize {
        self.d
    }

    fn eval(&self, _x: &[f64]) -> f64 {
        0.5
    }

    fn name(&self) -> &'static str {
        "constant-half"
    }
}

/// The standard catalogue used by experiment binaries: one target per shape
/// class, all in dimension `d`.
pub fn catalogue(d: usize) -> Vec<Box<dyn TargetFn>> {
    vec![
        Box::new(Ridge::canonical(d)),
        Box::new(GaussianBump::centered(d)),
        Box::new(SineProduct::gentle(d)),
        Box::new(SmoothXor { d, sharpness: 8.0 }),
        Box::new(Quadratic::new(
            (0..d).map(|i| 1.0 - 0.1 * i as f64).collect(),
            (0..d).map(|i| -0.5 + 0.05 * i as f64).collect(),
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube_points(d: usize) -> Vec<Vec<f64>> {
        // Corners plus centre plus a few interior points.
        let mut pts = vec![vec![0.0; d], vec![1.0; d], vec![0.5; d]];
        pts.push((0..d).map(|i| (i as f64 * 0.37) % 1.0).collect());
        pts.push((0..d).map(|i| (i as f64 * 0.61 + 0.13) % 1.0).collect());
        pts
    }

    #[test]
    fn all_catalogue_targets_map_into_unit_interval() {
        for d in [1, 2, 3, 5, 8] {
            for f in catalogue(d) {
                assert_eq!(f.dim(), d, "{}", f.name());
                for x in cube_points(d) {
                    let y = f.eval(&x);
                    assert!((0.0..=1.0).contains(&y), "{} at {x:?} gave {y}", f.name());
                }
            }
        }
    }

    #[test]
    fn ridge_is_monotone_along_direction() {
        let r = Ridge::canonical(3);
        let lo = r.eval(&[0.0, 0.0, 0.0]);
        let mid = r.eval(&[0.5, 0.5, 0.5]);
        let hi = r.eval(&[1.0, 1.0, 1.0]);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn bump_peaks_at_center() {
        let g = GaussianBump::centered(4);
        let peak = g.eval(&[0.5; 4]);
        assert!((peak - 1.0).abs() < 1e-12);
        assert!(g.eval(&[0.0; 4]) < peak);
    }

    #[test]
    fn smooth_xor_matches_truth_table_asymptotically() {
        let f = SmoothXor {
            d: 2,
            sharpness: 50.0,
        };
        assert!(f.eval(&[0.0, 0.0]) < 0.1);
        assert!(f.eval(&[1.0, 1.0]) < 0.1);
        assert!(f.eval(&[1.0, 0.0]) > 0.9);
        assert!(f.eval(&[0.0, 1.0]) > 0.9);
    }

    #[test]
    fn quadratic_range_is_tight() {
        // f(x) = x − x² on [0,1]: range [0, 1/4] → rescaled range [0,1].
        let q = Quadratic::new(vec![1.0], vec![-1.0]);
        assert!((q.eval(&[0.5]) - 1.0).abs() < 1e-12); // vertex hits max
        assert!(q.eval(&[0.0]).abs() < 1e-12);
        assert!(q.eval(&[1.0]).abs() < 1e-12);
    }

    #[test]
    fn constant_half_everywhere() {
        let c = ConstantHalf { d: 3 };
        for x in cube_points(3) {
            assert_eq!(c.eval(&x), 0.5);
        }
    }

    #[test]
    fn sine_product_period_endpoints_agree() {
        let s = SineProduct::gentle(2);
        assert!((s.eval(&[0.0, 0.0]) - s.eval(&[1.0, 1.0])).abs() < 1e-9);
    }
}
