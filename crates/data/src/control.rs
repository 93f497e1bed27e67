//! Synthetic flight-control surface — the critical-application stand-in.
//!
//! The paper's first motivating application is adaptive neural flight
//! control (paper ref. 8), where "stopping a neural network and recovering its failures
//! through a new learning phase is not an option". Real control laws and
//! telemetry are proprietary; this module provides a smooth pitch-axis
//! command surface with the qualitative structure of a longitudinal
//! controller: a trim region, saturation at envelope edges, and airspeed
//! gain-scheduling. It is exactly the kind of `C([0,1]^3, [0,1])` target the
//! paper's Definition 1 quantifies over.

use crate::functions::TargetFn;

/// Normalised pitch-command surface `u = F(α, q, V)`.
///
/// Inputs (all pre-normalised to `[0,1]`):
/// * `x[0]` — angle of attack α over the permitted envelope,
/// * `x[1]` — pitch rate q,
/// * `x[2]` — airspeed V.
///
/// Output: elevator command in `[0,1]` (0.5 = trim). The law is a
/// gain-scheduled PD controller wrapped in a `tanh` saturation:
/// `u = 0.5 + 0.5·tanh( g(V) · (k_α·(α−α₀) + k_q·(q−q₀)) )`,
/// with the gain `g` decreasing in airspeed (control surfaces are more
/// effective at speed, so commanded deflection shrinks).
#[derive(Debug, Clone, Copy)]
pub struct PitchController {
    /// Proportional gain on angle-of-attack error.
    pub k_alpha: f64,
    /// Derivative gain on pitch rate.
    pub k_q: f64,
    /// Trim angle of attack (normalised).
    pub alpha_trim: f64,
    /// Trim pitch rate (normalised).
    pub q_trim: f64,
}

impl Default for PitchController {
    fn default() -> Self {
        PitchController {
            k_alpha: 4.0,
            k_q: 2.0,
            alpha_trim: 0.4,
            q_trim: 0.5,
        }
    }
}

impl PitchController {
    /// Airspeed gain schedule: high authority at low speed, tapering to 40%.
    fn gain(v: f64) -> f64 {
        1.0 - 0.6 * v.clamp(0.0, 1.0)
    }
}

impl TargetFn for PitchController {
    fn dim(&self) -> usize {
        3
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let (alpha, q, v) = (x[0], x[1], x[2]);
        let pd = self.k_alpha * (alpha - self.alpha_trim) + self.k_q * (q - self.q_trim);
        0.5 + 0.5 * (Self::gain(v) * pd).tanh()
    }

    fn name(&self) -> &'static str {
        "pitch-controller"
    }
}

/// Synthetic radar return classifier surface — the second critical
/// application stand-in (paper ref. 9: neural network radar processors).
///
/// Inputs: `x[0]` = normalised echo amplitude, `x[1]` = Doppler shift,
/// `x[2]` = pulse width, `x[3]` = sweep angle. Output: probability that the
/// return is a target rather than clutter — a smooth bump in
/// (amplitude, Doppler) modulated by pulse width, with a slow angular term.
#[derive(Debug, Clone, Copy)]
pub struct RadarReturn {
    /// Sharpness of the clutter/target separation.
    pub sharpness: f64,
}

impl Default for RadarReturn {
    fn default() -> Self {
        RadarReturn { sharpness: 6.0 }
    }
}

impl TargetFn for RadarReturn {
    fn dim(&self) -> usize {
        4
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let (amp, dop, pw, ang) = (x[0], x[1], x[2], x[3]);
        let sig = |v: f64| 1.0 / (1.0 + (-self.sharpness * v).exp());
        // Targets: strong echo, nonzero Doppler (moving), narrow pulse.
        let echo = sig(amp - 0.45);
        let moving = 1.0 - (-8.0 * (dop - 0.5) * (dop - 0.5) / 0.08).exp();
        let narrow = sig(0.6 - pw);
        let angular = 0.9 + 0.1 * (std::f64::consts::PI * ang).cos();
        (echo * moving * narrow * angular).clamp(0.0, 1.0)
    }

    fn name(&self) -> &'static str {
        "radar-return"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_is_at_trim_at_trim_point() {
        let c = PitchController::default();
        let u = c.eval(&[c.alpha_trim, c.q_trim, 0.5]);
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn controller_pushes_nose_down_at_high_alpha() {
        let c = PitchController::default();
        // High angle of attack and pitch-up rate → command far from trim.
        let u = c.eval(&[1.0, 1.0, 0.2]);
        assert!(u > 0.9);
        let u = c.eval(&[0.0, 0.0, 0.2]);
        assert!(u < 0.1);
    }

    #[test]
    fn controller_authority_decreases_with_airspeed() {
        let c = PitchController::default();
        let slow = (c.eval(&[0.8, 0.5, 0.0]) - 0.5).abs();
        let fast = (c.eval(&[0.8, 0.5, 1.0]) - 0.5).abs();
        assert!(slow > fast);
    }

    #[test]
    fn controller_output_in_unit_interval() {
        let c = PitchController::default();
        for a in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for q in [0.0, 0.5, 1.0] {
                for v in [0.0, 0.5, 1.0] {
                    let u = c.eval(&[a, q, v]);
                    assert!((0.0..=1.0).contains(&u));
                }
            }
        }
    }

    #[test]
    fn radar_separates_target_from_clutter() {
        let r = RadarReturn::default();
        // Strong moving narrow-pulse echo → target.
        let target = r.eval(&[0.9, 0.9, 0.2, 0.3]);
        // Weak static wide-pulse echo → clutter.
        let clutter = r.eval(&[0.1, 0.5, 0.9, 0.3]);
        assert!(target > 0.6, "target score {target}");
        assert!(clutter < 0.1, "clutter score {clutter}");
    }

    #[test]
    fn radar_output_in_unit_interval() {
        let r = RadarReturn::default();
        for a in [0.0, 0.5, 1.0] {
            for d in [0.0, 0.5, 1.0] {
                for p in [0.0, 0.5, 1.0] {
                    for g in [0.0, 0.5, 1.0] {
                        let y = r.eval(&[a, d, p, g]);
                        assert!((0.0..=1.0).contains(&y));
                    }
                }
            }
        }
    }
}
