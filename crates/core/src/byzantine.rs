//! Theorem 3 (Byzantine neuron tolerance) and Lemma 1 (the unbounded case).
//!
//! A network realising an ε'-approximation tolerates a per-layer Byzantine
//! distribution `(f_l)` iff `Fep ≤ ε − ε'` (Theorem 3; the bound is tight).
//! Without Assumption 1 (bounded synaptic transmission), no network
//! tolerates even one Byzantine neuron (Lemma 1) — here that appears as
//! `Fep = +inf` whenever capacity is unbounded and any `f_l > 0`.

use crate::budget::EpsilonBudget;
use crate::fep::{fep, fep_for};
use crate::profile::{FaultClass, NetworkProfile};

/// Theorem 3: does the profile tolerate the Byzantine distribution `(f_l)`?
///
/// # Panics
/// If `faults` does not match the profile.
pub fn tolerates(profile: &NetworkProfile, faults: &[usize], budget: EpsilonBudget) -> bool {
    fep(profile, faults) <= budget.slack()
}

/// Remaining budget `(ε − ε') − Fep` (negative = violated).
pub fn margin(profile: &NetworkProfile, faults: &[usize], budget: EpsilonBudget) -> f64 {
    budget.slack() - fep(profile, faults)
}

/// Lemma 1 as a predicate: with unbounded transmission, no non-empty fault
/// distribution is tolerated.
pub fn lemma1_zero_tolerance(profile: &NetworkProfile, faults: &[usize]) -> bool {
    !profile.is_bounded() && faults.iter().any(|&f| f > 0)
}

/// The largest number of Byzantine neurons tolerated in a *single* layer
/// `l` (1-based), all other layers correct. Fep is linear in `f_l` when the
/// other layers are clean, so this is a closed form, the multilayer analogue
/// of Theorem 1:
///
/// `f_l ≤ (ε − ε') / (C · K^(L−l) · Π_{l'>l} N_{l'} w_m^(l') · w_m^(L+1))`.
///
/// Returns `N_l` (capped) when the per-fault effect is 0, and 0 in the
/// unbounded-capacity regime.
///
/// # Panics
/// If `layer` is not in `1..=L`.
pub fn max_faults_in_layer(
    profile: &NetworkProfile,
    layer: usize,
    budget: EpsilonBudget,
    class: FaultClass,
) -> usize {
    assert!(
        (1..=profile.depth()).contains(&layer),
        "layer {layer} out of 1..={}",
        profile.depth()
    );
    let n_l = profile.layers[layer - 1].n;
    // Per-fault output effect: Fep for a single fault in `layer`.
    let mut single = vec![0usize; profile.depth()];
    single[layer - 1] = 1;
    let per_fault = fep_for(profile, &single, class);
    if per_fault == 0.0 {
        return n_l;
    }
    if per_fault.is_infinite() {
        return 0; // Lemma 1
    }
    let by_budget = (budget.slack() / per_fault).floor() as usize;
    by_budget.min(n_l)
}

/// A tolerance verdict for one distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ToleranceVerdict {
    /// The distribution checked.
    pub faults: Vec<usize>,
    /// Fault class used.
    pub class: FaultClass,
    /// The Fep of the distribution.
    pub fep: f64,
    /// The available slack `ε − ε'`.
    pub slack: f64,
    /// Whether Theorem 3's condition holds.
    pub tolerated: bool,
}

/// Evaluate Theorem 3 and package the result.
pub fn verdict(
    profile: &NetworkProfile,
    faults: &[usize],
    budget: EpsilonBudget,
    class: FaultClass,
) -> ToleranceVerdict {
    let f = fep_for(profile, faults, class);
    ToleranceVerdict {
        faults: faults.to_vec(),
        class,
        fep: f,
        slack: budget.slack(),
        tolerated: f <= budget.slack(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn budget(e: f64, ep: f64) -> EpsilonBudget {
        EpsilonBudget::new(e, ep).unwrap()
    }

    #[test]
    fn tolerance_follows_fep_threshold() {
        let p = NetworkProfile::uniform(1, 20, 0.01, 1.0, 1.0);
        let b = budget(0.1, 0.05);
        // Fep(f) = f · 0.01; slack = 0.05 → f* = 5.
        assert!(tolerates(&p, &[5], b));
        assert!(!tolerates(&p, &[6], b));
        assert_eq!(max_faults_in_layer(&p, 1, b, FaultClass::Byzantine), 5);
    }

    #[test]
    fn lemma1_unbounded_tolerates_nothing() {
        let mut p = NetworkProfile::uniform(3, 10, 0.5, 1.0, 1.0);
        p.capacity = f64::INFINITY;
        let b = budget(10.0, 0.1); // even a huge slack
        assert!(!tolerates(&p, &[1, 0, 0], b));
        assert!(lemma1_zero_tolerance(&p, &[1, 0, 0]));
        assert!(!lemma1_zero_tolerance(&p, &[0, 0, 0]));
        for l in 1..=3 {
            assert_eq!(max_faults_in_layer(&p, l, b, FaultClass::Byzantine), 0);
        }
        // Crashes are still tolerable: Assumption 1 is not needed for them.
        assert!(max_faults_in_layer(&p, 3, b, FaultClass::Crash) > 0);
    }

    #[test]
    fn capacity_shrinks_tolerance() {
        // Doubling C halves the admissible faults (Theorem 3's dependence).
        let p1 = NetworkProfile::uniform(1, 100, 0.001, 1.0, 1.0);
        let mut p2 = p1.clone();
        p2.capacity = 2.0;
        let b = budget(0.2, 0.1);
        let f1 = max_faults_in_layer(&p1, 1, b, FaultClass::Byzantine);
        let f2 = max_faults_in_layer(&p2, 1, b, FaultClass::Byzantine);
        assert_eq!(f1, 100); // budget allows all
        assert_eq!(f2, 50);
    }

    #[test]
    fn deeper_layers_tolerate_more_when_gain_above_one() {
        // With per-crossing gain (N·K·w) > 1, a fault near the input is
        // amplified more, so fewer are tolerated there (Section IV-B).
        let p = NetworkProfile::uniform(3, 10, 0.5, 2.0, 1.0);
        let b = budget(1.0, 0.5);
        let f1 = max_faults_in_layer(&p, 1, b, FaultClass::Byzantine);
        let f3 = max_faults_in_layer(&p, 3, b, FaultClass::Byzantine);
        assert!(f3 >= f1);
    }

    #[test]
    fn verdict_agrees_with_tolerates_and_reports_slack() {
        let p = NetworkProfile::uniform(2, 8, 0.05, 1.0, 1.0);
        let b = budget(0.375, 0.125);
        let v = verdict(&p, &[2, 1], b, FaultClass::Byzantine);
        assert_eq!(v.tolerated, tolerates(&p, &[2, 1], b));
        assert!((v.slack - 0.25).abs() < 1e-15);
    }

    proptest! {
        /// Tightness of `max_faults_in_layer`: the returned count is
        /// tolerated, one more is not (unless capped by N_l or slack 0).
        #[test]
        fn max_faults_is_maximal(
            l in 1usize..4,
            n in 2usize..30,
            w in 0.01f64..0.5,
            k in 0.2f64..2.0,
            slack_scale in 0.1f64..10.0,
        ) {
            let p = NetworkProfile::uniform(l, n, w, k, 1.0);
            let eps_prime = 0.05;
            let eps = eps_prime + 0.05 * slack_scale;
            let b = budget(eps, eps_prime);
            for layer in 1..=l {
                let fmax = max_faults_in_layer(&p, layer, b, FaultClass::Byzantine);
                let mut faults = vec![0; l];
                faults[layer - 1] = fmax;
                prop_assert!(tolerates(&p, &faults, b));
                if fmax < n {
                    faults[layer - 1] = fmax + 1;
                    prop_assert!(!tolerates(&p, &faults, b));
                }
            }
        }

        /// Crash tolerance dominates Byzantine tolerance when C ≥ sup ϕ.
        #[test]
        fn crash_at_least_as_tolerable(
            n in 2usize..20,
            c in 1.0f64..5.0,
        ) {
            let p = NetworkProfile::uniform(2, n, 0.1, 1.0, c);
            let b = budget(0.5, 0.1);
            for layer in 1..=2 {
                let fc = max_faults_in_layer(&p, layer, b, FaultClass::Crash);
                let fb = max_faults_in_layer(&p, layer, b, FaultClass::Byzantine);
                prop_assert!(fc >= fb, "crash {fc} < byz {fb}");
            }
        }
    }
}
