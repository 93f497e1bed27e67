//! Lemma 2 and Theorem 4: failures of synapses.
//!
//! Lemma 2 reduces a synapse error to a neuron error: an error of value
//! `λ ≤ C` on a synapse into neuron `j` of layer `l` shifts `j`'s received
//! sum by `λ`, so (K-Lipschitzness) `j`'s *output* is off by at most `C·K`.
//! Composing with Theorem 2's propagation gives a bound per synapse-failure
//! distribution `(f_l), l = 1..=L+1` (layer `L+1` = synapses into the
//! output node, which are part of the network).
//!
//! ## Two forms, one reproduction finding
//!
//! [`SynapseBoundForm::Verbatim`] evaluates the paper's Theorem 4 formula
//! exactly as printed:
//!
//! ```text
//! C Σ_{l=1..L+1} f_l · K^(L+1−l) · w_m^(l) · Π_{l'=l+1..L+1} (N_{l'}−f_{l'}) w_m^(l')
//! ```
//!
//! [`SynapseBoundForm::Lemma2`] composes Lemma 2 with Theorem 2 directly:
//! the failing synapse adds ≤ C to its target's sum (no `w_m^(l)` factor —
//! the synapse error enters the sum *directly*, not through a weight), the
//! target's output is off by ≤ `C·K_l` (≤ C for the linear output node),
//! and that propagates as usual:
//!
//! ```text
//! C [ Σ_{l=1..L} f_l · K_l · K^(L−l) · Π_{l'=l+1..L+1} (N_{l'}−f_{l'}) w_m^(l')  +  f_{L+1} ]
//! ```
//!
//! The printed formula multiplies each term by the failing layer's own
//! `w_m^(l)`; when `w_m^(l) < 1` that makes the verbatim bound *smaller*
//! than the worst case Lemma 2 admits (and our fault-injection experiments
//! exhibit violations — see experiment E8). The soundness suite therefore
//! validates against `Lemma2`; `Verbatim` is kept for fidelity and for the
//! EXPERIMENTS.md comparison.

use crate::budget::EpsilonBudget;
use crate::profile::NetworkProfile;

/// Which formula to evaluate (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynapseBoundForm {
    /// The paper's Theorem 4 formula, verbatim.
    Verbatim,
    /// The direct Lemma-2 composition (sound; used by the test suite).
    Lemma2,
}

/// Worst-case output error for a Byzantine-synapse distribution.
///
/// `faults[i]` for `i in 0..L` counts failing synapses entering paper layer
/// `i+1`; `faults[L]` counts failing synapses into the output node.
///
/// Capacity semantics follow Lemma 2: each failing synapse shifts its
/// target's received sum by at most `C` (`profile.capacity`).
///
/// # Panics
/// If `faults.len() != L + 1`.
pub fn synapse_fep(profile: &NetworkProfile, faults: &[usize], form: SynapseBoundForm) -> f64 {
    let l = profile.depth();
    assert_eq!(
        faults.len(),
        l + 1,
        "synapse distribution must have L+1 = {} entries, got {}",
        l + 1,
        faults.len()
    );
    let c = profile.capacity;
    if faults.iter().all(|&f| f == 0) {
        return 0.0;
    }
    if c.is_infinite() {
        return f64::INFINITY;
    }

    // Propagation suffix identical to neuron-Fep, but with the *neuron*
    // population intact (synapse faults poison targets; the paper's (N−f)
    // convention treats each poisoned target as this layer's "failing"
    // neuron, so we subtract the synapse counts just as Theorem 4 does).
    // suffix[i] = Π_{j=i..L-1} (n_j − f_j)·k_j·w_in_j · w_out; suffix[L] = w_out.
    let mut suffix = vec![0.0; l + 1];
    suffix[l] = profile.w_out;
    for i in (0..l).rev() {
        let lay = &profile.layers[i];
        let correct = lay.n.saturating_sub(faults[i]) as f64;
        suffix[i] = suffix[i + 1] * correct * lay.k * lay.w_in;
    }

    let mut total = 0.0;
    for i in 0..l {
        if faults[i] == 0 {
            continue;
        }
        let lay = &profile.layers[i];
        // Lemma 2: target neuron's output error ≤ C · K_l; then propagate
        // through layers i+1.. like a neuron fault at layer i.
        let mut term = c * faults[i] as f64 * lay.k * suffix[i + 1];
        if form == SynapseBoundForm::Verbatim {
            // The printed formula's extra w_m^(l) factor (synapse faults can
            // hit bias synapses too, hence the all-synapse statistic).
            term *= lay.w_in_all;
        }
        total += term;
    }
    // Output-node synapses: the node is linear, error adds directly.
    if faults[l] > 0 {
        let mut term = c * faults[l] as f64;
        if form == SynapseBoundForm::Verbatim {
            term *= profile.w_out;
        }
        total += term;
    }
    total
}

/// Theorem 4's tolerance condition: `synapse_fep ≤ ε − ε'`.
pub fn synapse_tolerates(
    profile: &NetworkProfile,
    faults: &[usize],
    budget: EpsilonBudget,
    form: SynapseBoundForm,
) -> bool {
    synapse_fep(profile, faults, form) <= budget.slack()
}

/// Lemma 2 in isolation: worst-case *output error of the receiving neuron*
/// for a synapse error of magnitude ≤ `c` into a layer with Lipschitz `k`.
pub fn lemma2_neuron_error(c: f64, k: f64) -> f64 {
    debug_assert!(c >= 0.0 && k >= 0.0);
    c * k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fep::fep;
    use proptest::prelude::*;

    #[test]
    fn lemma2_is_a_product() {
        assert_eq!(lemma2_neuron_error(2.0, 0.5), 1.0);
        assert_eq!(lemma2_neuron_error(0.0, 3.0), 0.0);
    }

    #[test]
    fn single_layer_closed_forms() {
        // L=1, synapses into layer 1 and into the output node.
        let p = NetworkProfile::uniform(1, 10, 0.5, 2.0, 1.5);
        // One synapse into layer 1 (Lemma2): C·K·(N1−f1)·... wait: the
        // poisoned neuron propagates via the remaining suffix = w_out, and
        // Theorem 4's (N−f) convention removes it from the relay count.
        // term = C·K1·w_out with the (N1−1) relays irrelevant because the
        // fault *is at* layer 1: suffix[1] = w_out.
        let lemma2 = synapse_fep(&p, &[1, 0], SynapseBoundForm::Lemma2);
        assert!((lemma2 - 1.5 * 2.0 * 0.5).abs() < 1e-12);
        // Verbatim multiplies by w_m^(1) = 0.5.
        let verbatim = synapse_fep(&p, &[1, 0], SynapseBoundForm::Verbatim);
        assert!((verbatim - lemma2 * 0.5).abs() < 1e-12);
        // One output synapse: direct C (Lemma2) vs C·w_out (verbatim).
        assert!((synapse_fep(&p, &[0, 1], SynapseBoundForm::Lemma2) - 1.5).abs() < 1e-12);
        assert!((synapse_fep(&p, &[0, 1], SynapseBoundForm::Verbatim) - 1.5 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn verbatim_undershoots_lemma2_when_weights_below_one() {
        let p = NetworkProfile::uniform(2, 8, 0.3, 1.0, 1.0);
        let faults = [1usize, 1, 1];
        let v = synapse_fep(&p, &faults, SynapseBoundForm::Verbatim);
        let l2 = synapse_fep(&p, &faults, SynapseBoundForm::Lemma2);
        assert!(
            v < l2,
            "with w_m < 1 the printed bound is the smaller one: {v} vs {l2}"
        );
    }

    #[test]
    fn verbatim_exceeds_lemma2_when_weights_above_one() {
        let p = NetworkProfile::uniform(2, 8, 2.0, 1.0, 1.0);
        let faults = [1usize, 1, 1];
        let v = synapse_fep(&p, &faults, SynapseBoundForm::Verbatim);
        let l2 = synapse_fep(&p, &faults, SynapseBoundForm::Lemma2);
        assert!(v > l2);
    }

    #[test]
    fn zero_faults_zero_bound_even_unbounded() {
        let mut p = NetworkProfile::uniform(2, 5, 0.5, 1.0, 1.0);
        p.capacity = f64::INFINITY;
        assert_eq!(synapse_fep(&p, &[0, 0, 0], SynapseBoundForm::Lemma2), 0.0);
        assert_eq!(
            synapse_fep(&p, &[1, 0, 0], SynapseBoundForm::Lemma2),
            f64::INFINITY
        );
    }

    #[test]
    fn tolerance_condition() {
        let p = NetworkProfile::uniform(1, 10, 0.1, 1.0, 1.0);
        let b = EpsilonBudget::new(0.5, 0.1).unwrap();
        // Output-synapse faults (Lemma2): f ≤ 0.4 / C = 0.4 → f = 0... C=1:
        // each output synapse costs 1.0 > 0.4 slack.
        assert!(!synapse_tolerates(&p, &[0, 1], b, SynapseBoundForm::Lemma2));
        // Hidden-synapse faults cost C·K·w_out = 0.1 each → 4 tolerated.
        assert!(synapse_tolerates(&p, &[4, 0], b, SynapseBoundForm::Lemma2));
        assert!(!synapse_tolerates(&p, &[5, 0], b, SynapseBoundForm::Lemma2));
    }

    #[test]
    #[should_panic(expected = "L+1")]
    fn wrong_length_panics() {
        let p = NetworkProfile::uniform(2, 5, 0.5, 1.0, 1.0);
        let _ = synapse_fep(&p, &[1, 0], SynapseBoundForm::Lemma2);
    }

    proptest! {
        /// Hidden-synapse faults relate to neuron faults through Lemma 2:
        /// a synapse fault at layer l is at worst K_l times a neuron fault
        /// at layer l (same propagation suffix).
        #[test]
        fn synapse_equals_k_times_neuron_fep(
            l in 1usize..5,
            n in 2usize..20,
            w in 0.05f64..1.5,
            k in 0.2f64..3.0,
            layer in 0usize..5,
        ) {
            let layer = layer % l;
            let p = NetworkProfile::uniform(l, n, w, k, 1.0);
            let mut nf = vec![0usize; l];
            nf[layer] = 1;
            let mut sf = vec![0usize; l + 1];
            sf[layer] = 1;
            let neuron = fep(&p, &nf);
            let syn = synapse_fep(&p, &sf, SynapseBoundForm::Lemma2);
            prop_assert!((syn - k * neuron).abs() <= 1e-9 * syn.abs().max(1.0),
                "syn {} vs k*neuron {}", syn, k * neuron);
        }

        /// Both forms are monotone in the capacity.
        #[test]
        fn monotone_in_capacity(n in 2usize..10, f in 1usize..10) {
            let f = f.min(n);
            let p1 = NetworkProfile::uniform(2, n, 0.5, 1.0, 1.0);
            let mut p2 = p1.clone();
            p2.capacity = 2.5;
            let faults = vec![f, f, f];
            for form in [SynapseBoundForm::Verbatim, SynapseBoundForm::Lemma2] {
                prop_assert!(
                    synapse_fep(&p2, &faults, form) >= synapse_fep(&p1, &faults, form)
                );
            }
        }
    }
}
