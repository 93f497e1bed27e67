//! Search over admissible fault distributions.
//!
//! Theorem 3 certifies a *given* distribution `(f_l)`; designers usually ask
//! the inverse question: *how many* failures fit inside the slack `ε − ε'`?
//! This module provides:
//!
//! * a closed-form per-layer maximum ([`crate::byzantine::max_faults_in_layer`]),
//! * a greedy multi-layer packing ([`greedy_max_faults`]),
//! * exact exhaustive search with a budgeted state space
//!   ([`exact_max_total_faults`]),
//! * uniform-distribution search ([`max_uniform_faults`]).
//!
//! A subtlety worth stating: `Fep` is **not monotone** in `(f_l)`. Raising
//! `f_{l'}` shrinks the `(N_{l'} − f_{l'})` relay factor of *earlier* layers'
//! terms, so the admissible set is not downward closed and greedy results
//! are maximal, not necessarily maximum. The exact search exists precisely
//! to quantify that gap (it is tiny in practice — see EXPERIMENTS.md E6).
//!
//! All searches here run on the **batched** Fep path
//! ([`crate::fep::increment_feps`] / [`crate::fep::fep_for_into`]): each
//! step evaluates its whole candidate frontier through one reused scratch
//! buffer instead of allocating per candidate. Values are bitwise identical
//! to per-candidate [`crate::fep::fep_for`] calls, so search results are unchanged —
//! only the evaluation rate differs (see the `tolerance_search` bench).

use crate::budget::EpsilonBudget;
use crate::fep::{fep_for_into, increment_feps};
use crate::profile::{FaultClass, NetworkProfile};

/// Greedily pack faults one at a time: at each step, add the fault (to any
/// layer) that minimises the resulting Fep, as long as the result stays
/// within the slack. Returns the final distribution (maximal: no single
/// additional fault fits). Each step's candidate frontier is one batched
/// [`increment_feps`] evaluation.
pub fn greedy_max_faults(
    profile: &NetworkProfile,
    budget: EpsilonBudget,
    class: FaultClass,
) -> Vec<usize> {
    let l = profile.depth();
    let slack = budget.slack();
    let mut faults = vec![0usize; l];
    let mut scratch = Vec::new();
    let mut frontier = Vec::new();
    loop {
        increment_feps(profile, &mut faults, class, &mut scratch, &mut frontier);
        let mut best: Option<(usize, f64)> = None;
        for (i, f) in frontier.iter().enumerate() {
            let Some(f) = *f else { continue };
            if f <= slack {
                match best {
                    Some((_, bf)) if bf <= f => {}
                    _ => best = Some((i, f)),
                }
            }
        }
        match best {
            Some((i, _)) => faults[i] += 1,
            None => return faults,
        }
    }
}

/// Whether no single extra fault keeps `(f_l)` admissible (local/Pareto
/// maximality on the fault lattice). One batched frontier evaluation.
pub fn is_maximal(
    profile: &NetworkProfile,
    faults: &[usize],
    budget: EpsilonBudget,
    class: FaultClass,
) -> bool {
    let slack = budget.slack();
    let mut scratch = Vec::new();
    if fep_for_into(profile, faults, class, &mut scratch) > slack {
        return false;
    }
    let mut work = faults.to_vec();
    let mut frontier = Vec::new();
    increment_feps(profile, &mut work, class, &mut scratch, &mut frontier);
    !frontier.iter().flatten().any(|&f| f <= slack)
}

/// Result of an exact search.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSearch {
    /// A distribution attaining the maximum total.
    pub witness: Vec<usize>,
    /// The maximum total `Σ f_l` over admissible distributions.
    pub total: usize,
    /// Number of lattice points evaluated.
    pub evaluated: u64,
}

/// Exhaustively maximise `Σ f_l` subject to `Fep ≤ ε − ε'`.
///
/// The state space is `Π (N_l + 1)`; returns `None` when it exceeds
/// `state_limit` (the caller should fall back to [`greedy_max_faults`]).
/// This is the "discouraging combinatorial explosion" the paper's analytic
/// bound exists to avoid — kept here deliberately so experiment E14 can
/// measure the explosion against the O(L) bound evaluation.
pub fn exact_max_total_faults(
    profile: &NetworkProfile,
    budget: EpsilonBudget,
    class: FaultClass,
    state_limit: u64,
) -> Option<ExactSearch> {
    let sizes: Vec<u64> = profile.layers.iter().map(|l| l.n as u64 + 1).collect();
    let space: u64 = sizes.iter().try_fold(1u64, |a, &s| a.checked_mul(s))?;
    if space > state_limit {
        return None;
    }
    let slack = budget.slack();
    let l = profile.depth();
    let mut faults = vec![0usize; l];
    let mut scratch = Vec::new();
    let mut best = ExactSearch {
        witness: faults.clone(),
        total: 0,
        evaluated: 0,
    };
    loop {
        best.evaluated += 1;
        let total: usize = faults.iter().sum();
        if total > best.total && fep_for_into(profile, &faults, class, &mut scratch) <= slack {
            best.total = total;
            best.witness = faults.clone();
        }
        // Odometer increment over the mixed-radix fault lattice.
        let mut i = 0;
        loop {
            if i == l {
                return Some(best);
            }
            if faults[i] < profile.layers[i].n {
                faults[i] += 1;
                break;
            }
            faults[i] = 0;
            i += 1;
        }
    }
}

/// The largest `f` such that the uniform distribution `(f, f, …, f)` is
/// admissible. Scans all feasible `f` (Fep is not monotone in `f`, so the
/// result is the max admissible value, not a binary-search crossover).
pub fn max_uniform_faults(
    profile: &NetworkProfile,
    budget: EpsilonBudget,
    class: FaultClass,
) -> usize {
    let n_min = profile.layers.iter().map(|l| l.n).min().unwrap_or(0);
    let slack = budget.slack();
    let l = profile.depth();
    let mut scratch = Vec::new();
    let mut candidate = vec![0usize; l];
    (0..=n_min)
        .rev()
        .find(|&f| {
            candidate.fill(f);
            fep_for_into(profile, &candidate, class, &mut scratch) <= slack
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fep::fep_for;

    fn budget(e: f64, ep: f64) -> EpsilonBudget {
        EpsilonBudget::new(e, ep).unwrap()
    }

    #[test]
    fn greedy_matches_closed_form_on_single_layer() {
        // L=1: Fep = C·f·w_out; slack 0.4, per-fault 0.01 → 40 faults.
        let p = NetworkProfile::uniform(1, 100, 0.01, 1.0, 1.0);
        let g = greedy_max_faults(&p, budget(0.5, 0.1), FaultClass::Byzantine);
        assert_eq!(g, vec![40]);
        assert!(is_maximal(&p, &g, budget(0.5, 0.1), FaultClass::Byzantine));
    }

    #[test]
    fn greedy_is_admissible_and_maximal() {
        let p = NetworkProfile::uniform(3, 12, 0.2, 1.0, 1.0);
        let b = budget(0.6, 0.2);
        let g = greedy_max_faults(&p, b, FaultClass::Byzantine);
        assert!(crate::byzantine::tolerates(&p, &g, b));
        assert!(is_maximal(&p, &g, b, FaultClass::Byzantine));
    }

    #[test]
    fn exact_search_dominates_greedy() {
        let p = NetworkProfile::uniform(2, 6, 0.15, 1.2, 1.0);
        let b = budget(0.5, 0.1);
        let g = greedy_max_faults(&p, b, FaultClass::Byzantine);
        let e = exact_max_total_faults(&p, b, FaultClass::Byzantine, 1 << 20).unwrap();
        assert!(e.total >= g.iter().sum::<usize>());
        assert!(crate::byzantine::tolerates(&p, &e.witness, b));
        assert_eq!(e.evaluated, 49); // (6+1)^2 lattice points
    }

    #[test]
    fn exact_search_respects_state_limit() {
        let p = NetworkProfile::uniform(4, 100, 0.1, 1.0, 1.0);
        assert!(
            exact_max_total_faults(&p, budget(0.5, 0.1), FaultClass::Byzantine, 1000).is_none()
        );
    }

    #[test]
    fn uniform_faults_consistent_with_tolerance() {
        let p = NetworkProfile::uniform(3, 10, 0.1, 1.0, 1.0);
        let b = budget(0.4, 0.1);
        let f = max_uniform_faults(&p, b, FaultClass::Byzantine);
        assert!(crate::byzantine::tolerates(&p, &[f; 3], b));
        // Check maximality among uniform distributions.
        if f < 10 {
            let all_higher_inadmissible =
                ((f + 1)..=10).all(|g| !crate::byzantine::tolerates(&p, &[g; 3], b));
            assert!(all_higher_inadmissible);
        }
    }

    #[test]
    fn zero_slack_packs_nothing() {
        let p = NetworkProfile::uniform(2, 5, 0.3, 1.0, 1.0);
        let b = budget(0.1, 0.1);
        assert_eq!(greedy_max_faults(&p, b, FaultClass::Byzantine), vec![0, 0]);
        assert_eq!(max_uniform_faults(&p, b, FaultClass::Byzantine), 0);
    }

    #[test]
    fn unbounded_capacity_packs_nothing_byzantine() {
        let mut p = NetworkProfile::uniform(2, 5, 0.3, 1.0, 1.0);
        p.capacity = f64::INFINITY;
        let b = budget(1.0, 0.1);
        assert_eq!(greedy_max_faults(&p, b, FaultClass::Byzantine), vec![0, 0]);
        // Crash packing is unaffected (Lemma 1 is a Byzantine statement).
        assert!(
            greedy_max_faults(&p, b, FaultClass::Crash)
                .iter()
                .sum::<usize>()
                > 0
        );
    }

    #[test]
    fn nonmonotonicity_exists_on_the_lattice() {
        // Demonstrate the documented subtlety: there is a profile and a
        // distribution where *adding* a fault lowers Fep (killed relays).
        let p = NetworkProfile::uniform(2, 4, 1.0, 1.0, 1.0);
        // Fault at layer 1 propagates via (N2 − f2) relays.
        let base = fep_for(&p, &[2, 0], FaultClass::Byzantine);
        let more = fep_for(&p, &[2, 4], FaultClass::Byzantine);
        // (2,0): 2·(4)·1·1·1 = 8. (2,4): 2·0·… + 4·1 = 4 < 8.
        assert!(more < base, "{more} !< {base}");
    }
}
