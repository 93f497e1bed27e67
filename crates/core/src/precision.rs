//! Theorem 5: accuracy degradation under reduced per-neuron precision.
//!
//! Section V-A explains the memory/accuracy trade-off observed by Proteus
//! ref. 31: implementing each neuron of layer `l` with an error at most `λ_l`
//! (e.g. from quantised arithmetic) degrades the output by at most
//!
//! ```text
//! ‖F_neu − F_λ‖ ≤ Σ_{l=1..L} K^(L−l) · λ_l · Π_{l'=l..L} N_{l'} · w_m^(l'+1)
//! ```
//!
//! Unlike Theorem 2's failure bound, *every* neuron of layer `l` is affected
//! (hence the full `N_l` — including the erroneous layer itself — in the
//! product), and the per-value magnitude is the layer-specific `λ_l` rather
//! than the uniform capacity `C`.
//!
//! The theorem statement places `λ_l` on the neuron's *output*
//! ([`ErrorLocus::PostActivation`]); the paper's inductive proof narrates a
//! variant where the error enters the *received sum* and is squashed once
//! more (an extra `K_l` factor) — exposed as [`ErrorLocus::PreActivation`].
//! We default to the statement.

use crate::profile::NetworkProfile;

/// Where the per-neuron implementation error `λ_l` enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorLocus {
    /// On the neuron's output `y_j` (Theorem 5 as printed). Quantising
    /// stored activations matches this locus.
    PostActivation,
    /// On the received sum `s_j`, squashed by ϕ (the proof's narration —
    /// one extra `K_l`). Quantising the accumulator matches this locus.
    PreActivation,
}

/// Theorem 5's bound for per-layer error magnitudes `lambdas[i] = λ_{i+1}`.
///
/// # Panics
/// If `lambdas.len() != L` or any `λ_l < 0`.
pub fn precision_bound(profile: &NetworkProfile, lambdas: &[f64], locus: ErrorLocus) -> f64 {
    let l = profile.depth();
    assert_eq!(
        lambdas.len(),
        l,
        "need one lambda per layer ({l}), got {}",
        lambdas.len()
    );
    assert!(
        lambdas.iter().all(|&x| x >= 0.0),
        "lambdas must be non-negative"
    );
    // suffix[i] = Π_{j=i..L-1} n_j · (k_{j+1}…) · w_(j+2) … — concretely:
    // contribution factor for an output-level error at layer i's neurons:
    // every neuron of layer j relays through w into layer j+1 with its K.
    // factor(i) = n_i · w_(i+2)^m · Π_{j=i+1..L-1} [k_j · n_j · w_(j+2)^m]
    // where w_(j+2)^m is w_in of code layer j+1, or w_out for j = L-1.
    // Implemented as a right-to-left recurrence:
    //   acc(L-1) = n_{L-1} · w_out
    //   acc(i)   = n_i · w_in(i+1) · k(i+1) · acc(i+1) / … —
    // easier: factor(i) = n_i · w_next(i) · Π_{j=i+1..L-1} k_j n_j w_next(j)
    // with w_next(j) = w_in(j+1) for j < L-1, w_out for j = L-1.
    let w_next = |j: usize| -> f64 {
        if j + 1 < l {
            profile.layers[j + 1].w_in
        } else {
            profile.w_out
        }
    };
    let mut total = 0.0;
    // Right-to-left accumulation of Π_{j=i+1..L-1} k_j n_j w_next(j).
    let mut tail = 1.0;
    for i in (0..l).rev() {
        let lay = &profile.layers[i];
        let mut term = lambdas[i] * lay.n as f64 * w_next(i) * tail;
        if locus == ErrorLocus::PreActivation {
            term *= lay.k;
        }
        total += term;
        tail *= lay.k * lay.n as f64 * w_next(i);
    }
    total
}

/// Uniform-λ convenience: all layers share the same per-neuron error.
pub fn precision_bound_uniform(profile: &NetworkProfile, lambda: f64, locus: ErrorLocus) -> f64 {
    precision_bound(profile, &vec![lambda; profile.depth()], locus)
}

/// Invert Theorem 5 for hardware sizing: the largest uniform per-neuron
/// error `λ` keeping the output degradation within `target` (0 if even
/// λ = 0 misses, which cannot happen: the bound is linear in λ).
pub fn max_uniform_lambda(profile: &NetworkProfile, target: f64, locus: ErrorLocus) -> f64 {
    assert!(target >= 0.0, "target degradation must be non-negative");
    let per_unit = precision_bound_uniform(profile, 1.0, locus);
    if per_unit == 0.0 {
        f64::INFINITY
    } else {
        target / per_unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_layer_closed_form() {
        // L=1: bound = λ·N1·w^(2) (the proof's base case).
        let p = NetworkProfile::uniform(1, 8, 0.25, 2.0, 1.0);
        let b = precision_bound(&p, &[0.1], ErrorLocus::PostActivation);
        assert!((b - 0.1 * 8.0 * 0.25).abs() < 1e-12);
        // Pre-activation adds one K = 2 factor.
        let bp = precision_bound(&p, &[0.1], ErrorLocus::PreActivation);
        assert!((bp - 2.0 * b).abs() < 1e-12);
    }

    #[test]
    fn two_layer_closed_form() {
        // L=2 (paper formula):
        //   l=1: K^(1)·λ1·N1·w^(2)·N2·w^(3)
        //   l=2: K^(0)·λ2·N2·w^(3)
        let mut p = NetworkProfile::uniform(2, 4, 0.5, 3.0, 1.0);
        p.layers[1].w_in = 0.5; // w^(2)
        p.w_out = 0.2; // w^(3)
        let l1 = 0.01;
        let l2 = 0.02;
        let expect = 3.0 * l1 * 4.0 * 0.5 * 4.0 * 0.2 + l2 * 4.0 * 0.2;
        let got = precision_bound(&p, &[l1, l2], ErrorLocus::PostActivation);
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn zero_lambda_zero_bound() {
        let p = NetworkProfile::uniform(3, 16, 0.5, 1.0, 1.0);
        assert_eq!(
            precision_bound_uniform(&p, 0.0, ErrorLocus::PostActivation),
            0.0
        );
    }

    #[test]
    fn max_uniform_lambda_inverts_bound() {
        let p = NetworkProfile::uniform(2, 8, 0.3, 1.5, 1.0);
        let target = 0.05;
        let lam = max_uniform_lambda(&p, target, ErrorLocus::PostActivation);
        let achieved = precision_bound_uniform(&p, lam, ErrorLocus::PostActivation);
        assert!((achieved - target).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one lambda per layer")]
    fn wrong_lambda_count_panics() {
        let p = NetworkProfile::uniform(2, 4, 0.5, 1.0, 1.0);
        let _ = precision_bound(&p, &[0.1], ErrorLocus::PostActivation);
    }

    proptest! {
        /// The bound is linear in a uniform λ.
        #[test]
        fn linear_in_lambda(
            l in 1usize..5,
            n in 1usize..20,
            lam in 0.0f64..0.5,
            scale in 1.0f64..10.0,
        ) {
            let p = NetworkProfile::uniform(l, n, 0.4, 1.2, 1.0);
            let b1 = precision_bound_uniform(&p, lam, ErrorLocus::PostActivation);
            let b2 = precision_bound_uniform(&p, lam * scale, ErrorLocus::PostActivation);
            prop_assert!((b2 - scale * b1).abs() <= 1e-9 * b2.abs().max(1e-12));
        }

        /// Pre-activation locus dominates post-activation iff K ≥ 1
        /// (errors get amplified by the extra squashing when K > 1).
        #[test]
        fn locus_ordering(k in 0.1f64..4.0, n in 1usize..10) {
            let p = NetworkProfile::uniform(2, n, 0.5, k, 1.0);
            let post = precision_bound_uniform(&p, 0.1, ErrorLocus::PostActivation);
            let pre = precision_bound_uniform(&p, 0.1, ErrorLocus::PreActivation);
            if k >= 1.0 {
                prop_assert!(pre >= post);
            } else {
                prop_assert!(pre <= post);
            }
        }

        /// Degradation grows with network size (more neurons carry error).
        #[test]
        fn monotone_in_width(n in 1usize..20) {
            let small = NetworkProfile::uniform(2, n, 0.5, 1.0, 1.0);
            let big = NetworkProfile::uniform(2, n + 1, 0.5, 1.0, 1.0);
            let bs = precision_bound_uniform(&small, 0.1, ErrorLocus::PostActivation);
            let bb = precision_bound_uniform(&big, 0.1, ErrorLocus::PostActivation);
            prop_assert!(bb > bs);
        }
    }
}
