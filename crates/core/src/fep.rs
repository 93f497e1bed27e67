//! Forward Error Propagation — Theorem 2, the paper's central quantity.
//!
//! When `f_l` neurons of layer `l` emit outputs off by at most `C` each, the
//! worst-case effect on the network output is
//!
//! ```text
//! Fep = C · Σ_{l=1..L} [ f_l · K^(L−l) · Π_{l'=l+1..L+1} (N_{l'} − f_{l'}) · w_m^(l') ]
//! ```
//!
//! with the convention `N_{L+1} = 1, f_{L+1} = 0` (the output node), so the
//! last product factor is `w_m^(L+1)`. Each term reads mechanically off the
//! worst case: the `f_l` faulty values (≤ C each) enter every correct neuron
//! of layer `l+1` through weights ≤ `w_m^(l+1)`, get squashed (× K), are
//! relayed by all `N_{l'} − f_{l'}` correct neurons of each subsequent layer
//! (faulty ones are accounted by their own term), and finally reach the
//! linear output through `w_m^(L+1)`.
//!
//! This module computes `Fep` in O(L) by suffix products, exposes a
//! per-layer breakdown (which term dominates tells the designer *where*
//! robustness is thin), and a log-space variant for very deep/wide profiles
//! whose products overflow `f64`.

use crate::profile::{FaultClass, NetworkProfile};

/// `Fep` for a Byzantine per-layer fault distribution `(f_l)` (Theorem 2
/// with per-value magnitude `C` from Assumption 1).
///
/// Returns `+inf` when the profile is unbounded and any fault is present
/// (Lemma 1's regime).
///
/// # Panics
/// If `faults.len() != L` or any `f_l > N_l`.
pub fn fep(profile: &NetworkProfile, faults: &[usize]) -> f64 {
    fep_with_magnitude(profile, faults, profile.capacity)
}

/// `Fep` for crash faults: the per-value magnitude is `sup |ϕ|` instead of
/// `C` — a crashed neuron's worst effect is its lost nominal output
/// (Section IV-B), so Assumption 1 is not needed.
///
/// # Panics
/// As [`fep`].
pub fn crash_fep(profile: &NetworkProfile, faults: &[usize]) -> f64 {
    fep_with_magnitude(profile, faults, profile.sup_activation)
}

/// `Fep` for a given [`FaultClass`].
pub fn fep_for(profile: &NetworkProfile, faults: &[usize], class: FaultClass) -> f64 {
    fep_with_magnitude(profile, faults, profile.fault_magnitude(class))
}

/// `Fep` with an explicit per-value error magnitude (the `C` slot). Used
/// directly by Theorem 5's precision analysis and the synapse bounds.
///
/// # Panics
/// As [`fep`].
pub fn fep_with_magnitude(profile: &NetworkProfile, faults: &[usize], magnitude: f64) -> f64 {
    let mut scratch = Vec::new();
    fep_with_magnitude_into(profile, faults, magnitude, &mut scratch)
}

/// Allocation-free [`fep_with_magnitude`]: the suffix products go through a
/// caller-owned scratch buffer (resized on first use, reused afterwards).
///
/// This is the batched-evaluation primitive of the inverse tolerance
/// search: `greedy_max_faults` and the exact lattice enumeration evaluate
/// thousands to millions of candidate distributions, and the two `Vec`
/// allocations per candidate of the naive path dominated their profiles.
/// The returned value is **bitwise identical** to [`fep_with_magnitude`]
/// (same products, same left-to-right term sum).
///
/// # Panics
/// As [`fep`].
pub fn fep_with_magnitude_into(
    profile: &NetworkProfile,
    faults: &[usize],
    magnitude: f64,
    suffix_scratch: &mut Vec<f64>,
) -> f64 {
    suffix_products_into(profile, faults, suffix_scratch);
    debug_assert!(magnitude >= 0.0);
    let mut acc = 0.0;
    for (i, &f) in faults.iter().enumerate() {
        acc += if f == 0 {
            // Avoid 0 × ∞ = NaN in the unbounded-capacity regime.
            0.0
        } else {
            magnitude * f as f64 * suffix_scratch[i + 1]
        };
    }
    acc
}

/// [`fep_for`] through a reusable scratch buffer (see
/// [`fep_with_magnitude_into`]).
///
/// # Panics
/// As [`fep`].
pub fn fep_for_into(
    profile: &NetworkProfile,
    faults: &[usize],
    class: FaultClass,
    suffix_scratch: &mut Vec<f64>,
) -> f64 {
    fep_with_magnitude_into(
        profile,
        faults,
        profile.fault_magnitude(class),
        suffix_scratch,
    )
}

/// Batched Fep over the single-increment neighborhood of `faults`:
/// `out[i]` is `Some(Fep(faults + e_i))` when layer `i + 1` has a spare
/// neuron, `None` when the layer is already fully faulty. One call
/// evaluates the whole candidate frontier of a greedy packing step through
/// one shared scratch buffer; each candidate's value is bitwise identical
/// to a standalone [`fep_for`] call on the incremented distribution.
///
/// # Panics
/// As [`fep`].
pub fn increment_feps(
    profile: &NetworkProfile,
    faults: &mut [usize],
    class: FaultClass,
    suffix_scratch: &mut Vec<f64>,
    out: &mut Vec<Option<f64>>,
) {
    profile.check_faults(faults);
    out.clear();
    for i in 0..faults.len() {
        if faults[i] >= profile.layers[i].n {
            out.push(None);
            continue;
        }
        faults[i] += 1;
        out.push(Some(fep_for_into(profile, faults, class, suffix_scratch)));
        faults[i] -= 1;
    }
}

/// Write the suffix products for `(profile, faults)` into `suffix`
/// (resized to `L + 1`): `suffix[i] = Π_{j=i..L-1} (n_j − f_j)·k_j·w_in_j
/// · w_out`, the factor a unit error entering code-layer `i` picks up on
/// its way to the output; `suffix[L] = w_out`.
fn suffix_products_into(profile: &NetworkProfile, faults: &[usize], suffix: &mut Vec<f64>) {
    profile.check_faults(faults);
    let l = profile.depth();
    suffix.clear();
    suffix.resize(l + 1, 0.0);
    suffix[l] = profile.w_out;
    for i in (0..l).rev() {
        let lay = &profile.layers[i];
        suffix[i] = suffix[i + 1] * (lay.n - faults[i]) as f64 * lay.k * lay.w_in;
    }
}

/// The per-layer terms of the Fep sum: `terms[i]` is layer `i+1`'s
/// contribution. Their sum is [`fep_with_magnitude`].
///
/// # Panics
/// As [`fep`].
pub fn per_layer_terms(profile: &NetworkProfile, faults: &[usize], magnitude: f64) -> Vec<f64> {
    debug_assert!(magnitude >= 0.0);
    let mut suffix = Vec::new();
    suffix_products_into(profile, faults, &mut suffix);
    faults
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            if f == 0 {
                0.0
            } else {
                magnitude * f as f64 * suffix[i + 1]
            }
        })
        .collect()
}

/// Natural log of [`fep_with_magnitude`], computed without forming the
/// products (stable for profiles whose terms overflow `f64`). Returns
/// `-inf` for a fault-free distribution and `+inf` in the unbounded regime.
///
/// # Panics
/// As [`fep`].
pub fn fep_ln(profile: &NetworkProfile, faults: &[usize], magnitude: f64) -> f64 {
    profile.check_faults(faults);
    let l = profile.depth();
    // ln_suffix[i] = ln suffix[i] as in `per_layer_terms`.
    let mut ln_suffix = vec![0.0; l + 1];
    ln_suffix[l] = profile.w_out.ln();
    for i in (0..l).rev() {
        let lay = &profile.layers[i];
        ln_suffix[i] =
            ln_suffix[i + 1] + ((lay.n - faults[i]) as f64).ln() + lay.k.ln() + lay.w_in.ln();
    }
    let ln_terms: Vec<f64> = (0..l)
        .filter(|&i| faults[i] > 0)
        .map(|i| magnitude.ln() + (faults[i] as f64).ln() + ln_suffix[i + 1])
        .collect();
    log_sum_exp(&ln_terms)
}

/// `ln Σ exp(x_i)`, stable; `-inf` for empty input.
fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m; // empty (−inf) or a +inf term dominates
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// A rendered Fep analysis: the bound, its per-layer decomposition, and the
/// dominant layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FepBreakdown {
    /// Total `Fep`.
    pub total: f64,
    /// Per-layer contributions (paper layers `1..=L`).
    pub per_layer: Vec<f64>,
    /// Per-value magnitude used (the `C` slot).
    pub magnitude: f64,
    /// The fault distribution analysed.
    pub faults: Vec<usize>,
}

impl FepBreakdown {
    /// Analyse `(profile, faults)` for a fault class.
    pub fn analyse(profile: &NetworkProfile, faults: &[usize], class: FaultClass) -> Self {
        let magnitude = profile.fault_magnitude(class);
        let per_layer = per_layer_terms(profile, faults, magnitude);
        FepBreakdown {
            total: per_layer.iter().sum(),
            per_layer,
            magnitude,
            faults: faults.to_vec(),
        }
    }

    /// The paper layer (1-based) contributing the most error, if any fault
    /// is present.
    pub fn dominant_layer(&self) -> Option<usize> {
        self.per_layer
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > 0.0)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i + 1)
    }
}

impl std::fmt::Display for FepBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fep = {:.6e} (per-value magnitude {})",
            self.total, self.magnitude
        )?;
        for (i, (t, fl)) in self.per_layer.iter().zip(&self.faults).enumerate() {
            writeln!(f, "  layer {:>2}: f={:<4} term={:.6e}", i + 1, fl, t)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Hand-computed L=1 case: Fep = C·f·w_out (Inequality 9).
    #[test]
    fn single_layer_closed_form() {
        let p = NetworkProfile::uniform(1, 10, 0.5, 2.0, 3.0);
        assert_eq!(fep(&p, &[4]), 3.0 * 4.0 * 0.5);
        assert_eq!(crash_fep(&p, &[4]), 1.0 * 4.0 * 0.5);
        assert_eq!(fep(&p, &[0]), 0.0);
    }

    /// Hand-computed L=2 case:
    /// term(l=1) = C·f1·K·(N2−f2)·w2·w3, term(l=2) = C·f2·w3.
    #[test]
    fn two_layer_closed_form() {
        let mut p = NetworkProfile::uniform(2, 5, 0.5, 2.0, 1.5);
        p.layers[1].w_in = 0.4; // w^(2) between the layers
        p.w_out = 0.25; // w^(3)
        let f = [2usize, 1usize];
        let t1 = 1.5 * 2.0 * 2.0 * (5.0 - 1.0) * 0.4 * 0.25;
        let t2 = 1.5 * 1.0 * 0.25;
        let terms = per_layer_terms(&p, &f, 1.5);
        assert!((terms[0] - t1).abs() < 1e-12, "{} vs {t1}", terms[0]);
        assert!((terms[1] - t2).abs() < 1e-12);
        assert!((fep(&p, &f) - (t1 + t2)).abs() < 1e-12);
    }

    /// Depth dependency: a fault at depth l picks up K^(L−l) — failures
    /// deeper from the output are amplified exponentially when K·N·w > 1.
    #[test]
    fn early_layer_faults_amplify_when_gain_above_one() {
        let p = NetworkProfile::uniform(4, 10, 0.5, 2.0, 1.0);
        // Per-crossing gain: (N−f)·K·w = 9·2·0.5 = 9 > 1.
        let t = per_layer_terms(&p, &[1, 1, 1, 1], 1.0);
        assert!(t[0] > t[1] && t[1] > t[2] && t[2] > t[3]);
        assert!((t[0] / t[1] - 9.0).abs() < 1e-9);
    }

    /// ... and attenuated when the per-crossing gain is below one.
    #[test]
    fn early_layer_faults_attenuate_when_gain_below_one() {
        let p = NetworkProfile::uniform(4, 4, 0.1, 0.5, 1.0);
        // Gain: 4·0.5·0.1 = 0.2 < 1.
        let t = per_layer_terms(&p, &[1, 1, 1, 1], 1.0);
        assert!(t[0] < t[1] && t[1] < t[2] && t[2] < t[3]);
    }

    #[test]
    fn unbounded_capacity_yields_infinite_fep_iff_faulty() {
        let mut p = NetworkProfile::uniform(2, 5, 0.5, 1.0, 1.0);
        p.capacity = f64::INFINITY;
        assert_eq!(fep(&p, &[0, 0]), 0.0);
        assert_eq!(fep(&p, &[1, 0]), f64::INFINITY);
        // Crash Fep stays finite: it uses sup ϕ, not C.
        assert!(crash_fep(&p, &[1, 0]).is_finite());
    }

    #[test]
    fn breakdown_identifies_dominant_layer() {
        let p = NetworkProfile::uniform(3, 10, 0.5, 2.0, 1.0);
        let b = FepBreakdown::analyse(&p, &[0, 2, 0], FaultClass::Byzantine);
        assert_eq!(b.dominant_layer(), Some(2));
        assert_eq!(b.per_layer[0], 0.0);
        assert!(b.total > 0.0);
        let none = FepBreakdown::analyse(&p, &[0, 0, 0], FaultClass::Byzantine);
        assert_eq!(none.dominant_layer(), None);
        assert_eq!(none.total, 0.0);
    }

    #[test]
    fn display_renders() {
        let p = NetworkProfile::uniform(2, 5, 0.5, 1.0, 1.0);
        let b = FepBreakdown::analyse(&p, &[1, 0], FaultClass::Crash);
        let s = format!("{b}");
        assert!(s.contains("Fep"));
        assert!(s.contains("layer  1"));
    }

    #[test]
    #[should_panic(expected = "fault distribution length")]
    fn wrong_fault_length_panics() {
        let p = NetworkProfile::uniform(2, 5, 0.5, 1.0, 1.0);
        let _ = fep(&p, &[1]);
    }

    #[test]
    fn increment_feps_matches_standalone_calls_bitwise() {
        let mut p = NetworkProfile::uniform(3, 5, 0.4, 1.5, 1.2);
        p.layers[1].w_in = 0.7;
        let mut faults = vec![1usize, 5, 0];
        let snapshot = faults.clone();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        increment_feps(
            &p,
            &mut faults,
            FaultClass::Byzantine,
            &mut scratch,
            &mut out,
        );
        assert_eq!(faults, snapshot, "increment_feps must restore its input");
        assert_eq!(out.len(), 3);
        assert_eq!(out[1], None, "full layer has no increment");
        for (i, got) in out.iter().enumerate() {
            let Some(got) = got else { continue };
            let mut f = faults.clone();
            f[i] += 1;
            assert_eq!(*got, fep_for(&p, &f, FaultClass::Byzantine), "layer {i}");
        }
    }

    #[test]
    fn fep_into_reuses_scratch_across_profiles_of_different_depth() {
        let mut scratch = Vec::new();
        let deep = NetworkProfile::uniform(5, 4, 0.3, 1.0, 1.0);
        let shallow = NetworkProfile::uniform(2, 9, 0.2, 2.0, 1.0);
        let a = fep_with_magnitude_into(&deep, &[1, 0, 2, 0, 1], 1.0, &mut scratch);
        assert_eq!(a, fep_with_magnitude(&deep, &[1, 0, 2, 0, 1], 1.0));
        let b = fep_with_magnitude_into(&shallow, &[3, 1], 1.0, &mut scratch);
        assert_eq!(b, fep_with_magnitude(&shallow, &[3, 1], 1.0));
    }

    proptest! {
        /// Log-space and direct evaluation agree.
        #[test]
        fn ln_matches_direct(
            l in 1usize..5,
            n in 1usize..30,
            w in 0.01f64..2.0,
            k in 0.1f64..4.0,
            c in 0.1f64..4.0,
            seed in 0u64..1000,
        ) {
            let p = NetworkProfile::uniform(l, n, w, k, c);
            let faults: Vec<usize> = (0..l).map(|i| {
                (seed.wrapping_mul(i as u64 + 1) % (n as u64 + 1)) as usize
            }).collect();
            let direct = fep(&p, &faults);
            let ln = fep_ln(&p, &faults, c);
            if direct == 0.0 {
                prop_assert_eq!(ln, f64::NEG_INFINITY);
            } else {
                prop_assert!((ln - direct.ln()).abs() < 1e-9,
                    "ln {} vs direct.ln {}", ln, direct.ln());
            }
        }

        /// Fep is monotone in the capacity C, the Lipschitz K and w_out.
        #[test]
        fn monotone_in_scalar_parameters(
            n in 2usize..20,
            f in 1usize..20,
            w in 0.05f64..1.0,
            k in 0.2f64..3.0,
        ) {
            let f = f.min(n);
            let p = NetworkProfile::uniform(3, n, w, k, 1.0);
            let faults = vec![f, 0, f];
            let base = fep(&p, &faults);

            let mut pc = p.clone();
            pc.capacity = 2.0;
            prop_assert!(fep(&pc, &faults) >= base);

            let pk = p.with_lipschitz(k * 2.0);
            prop_assert!(fep(&pk, &faults) >= base);

            let mut pw = p.clone();
            pw.w_out *= 3.0;
            prop_assert!(fep(&pw, &faults) >= base);
        }

        /// Zero faults ⇒ zero Fep; full faults ⇒ finite (no correct relays
        /// beyond the output).
        #[test]
        fn boundary_distributions(l in 1usize..5, n in 1usize..20) {
            let p = NetworkProfile::uniform(l, n, 0.5, 1.0, 1.0);
            prop_assert_eq!(fep(&p, &vec![0; l]), 0.0);
            let full = fep(&p, &vec![n; l]);
            prop_assert!(full.is_finite() && full > 0.0);
        }

        /// Corollary 1's engine: under widening by m, every Fep term is
        /// bounded by U/m where U uses the *full* relay populations —
        /// (mn−f)(w/m) ≤ nw and the output weights contribute the 1/m. So
        /// Fep(widened(m)) ≤ U/m → 0, which is what makes the corollary
        /// constructive. (Pointwise monotonicity in m does NOT hold — a
        /// fault-saturated layer can kill relays at m=1 and revive them at
        /// m=2 — so we assert the 1/m envelope, not monotonicity.)
        #[test]
        fn widening_obeys_the_one_over_m_envelope(
            l in 1usize..4,
            n in 2usize..10,
            m in 1usize..50,
            f in 1usize..10,
        ) {
            let f = f.min(n);
            let p = NetworkProfile::uniform(l, n, 0.5, 1.5, 1.0);
            let faults = vec![f; l];
            // U = C Σ_i f_i Π_{j>i} (n_j k_j w_j) · w_out (full populations).
            let mut u = 0.0;
            for i in 0..l {
                let mut t = p.capacity * f as f64 * p.w_out;
                for j in (i + 1)..l {
                    t *= p.layers[j].n as f64 * p.layers[j].k * p.layers[j].w_in;
                }
                u += t;
            }
            let wide = p.widened(m);
            prop_assert!(fep(&wide, &faults) <= u / m as f64 + 1e-12);
        }
    }
}
