//! Corollary 2: boosting computations with quorum waits.
//!
//! If a crash distribution `(f_l)` satisfies Theorem 3 (with `C = sup ϕ`),
//! then each neuron of layer `l` needs only `N_{l−1} − f_{l−1}` signals from
//! layer `l−1` before firing: missing (slow) neurons can be *reset* and
//! treated as crashed — by assumption the network tolerates that — so
//! nobody ever waits for stragglers beyond the quorum. The distributed
//! simulation of this scheme (wait-for-quorum, reset the rest, measure the
//! makespan) lives in `neurofail-distsim::boost`; this module computes the
//! quorum table.

use crate::budget::EpsilonBudget;
use crate::crash::crash_tolerates;
use crate::profile::{FaultClass, NetworkProfile};
use crate::tolerance::greedy_max_faults;

/// The per-layer wait quotas implied by a crash distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumTable {
    /// The admissible crash distribution backing the table.
    pub faults: Vec<usize>,
    /// `quorums[i] = N_{i+1} − f_{i+1}`: how many layer-(i+1) signals a
    /// neuron of layer i+2 (or the output node for the last entry) must
    /// wait for.
    pub quorums: Vec<usize>,
}

impl QuorumTable {
    /// Fraction of signals that may be skipped per layer (`f_l / N_l`).
    pub fn skip_fractions(&self, profile: &NetworkProfile) -> Vec<f64> {
        self.faults
            .iter()
            .zip(&profile.layers)
            .map(|(&f, l)| f as f64 / l.n.max(1) as f64)
            .collect()
    }
}

/// Quorum table for a *given* admissible crash distribution.
///
/// # Panics
/// If `faults` mismatches the profile; asserts (debug) that the
/// distribution is indeed tolerated, which Corollary 2 requires.
pub fn quorums_for(
    profile: &NetworkProfile,
    faults: &[usize],
    budget: EpsilonBudget,
) -> QuorumTable {
    profile_quorums(profile, faults, Some(budget))
}

/// Quorum table for the greedy-maximal admissible crash distribution: the
/// most waiting the network can provably skip.
pub fn admissible_quorums(profile: &NetworkProfile, budget: EpsilonBudget) -> QuorumTable {
    let faults = greedy_max_faults(profile, budget, FaultClass::Crash);
    profile_quorums(profile, &faults, None)
}

fn profile_quorums(
    profile: &NetworkProfile,
    faults: &[usize],
    check: Option<EpsilonBudget>,
) -> QuorumTable {
    profile.check_faults(faults);
    if let Some(budget) = check {
        assert!(
            crash_tolerates(profile, faults, budget),
            "Corollary 2 requires an admissible crash distribution"
        );
    }
    QuorumTable {
        faults: faults.to_vec(),
        quorums: profile
            .layers
            .iter()
            .zip(faults)
            .map(|(l, &f)| l.n - f)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(e: f64, ep: f64) -> EpsilonBudget {
        EpsilonBudget::new(e, ep).unwrap()
    }

    #[test]
    fn quorums_complement_faults() {
        let p = NetworkProfile::uniform(3, 10, 0.01, 1.0, 1.0);
        let b = budget(0.5, 0.1);
        let t = quorums_for(&p, &[2, 3, 0], b);
        assert_eq!(t.quorums, vec![8, 7, 10]);
        assert_eq!(t.skip_fractions(&p), vec![0.2, 0.3, 0.0]);
    }

    #[test]
    fn admissible_table_is_tolerated() {
        let p = NetworkProfile::uniform(2, 20, 0.02, 1.0, 1.0);
        let b = budget(0.6, 0.1);
        let t = admissible_quorums(&p, b);
        assert!(crash_tolerates(&p, &t.faults, b));
        assert!(t.faults.iter().sum::<usize>() > 0, "slack should buy skips");
        for (q, (f, l)) in t.quorums.iter().zip(t.faults.iter().zip(&p.layers)) {
            assert_eq!(q + f, l.n);
        }
    }

    #[test]
    #[should_panic(expected = "admissible crash distribution")]
    fn inadmissible_distribution_is_rejected() {
        let p = NetworkProfile::uniform(1, 10, 1.0, 1.0, 1.0);
        // Slack 0.1 but each crash costs w_out = 1.0.
        let _ = quorums_for(&p, &[5], budget(0.2, 0.1));
    }

    #[test]
    fn zero_slack_means_full_wait() {
        let p = NetworkProfile::uniform(2, 8, 0.1, 1.0, 1.0);
        let t = admissible_quorums(&p, budget(0.1, 0.1));
        assert_eq!(t.faults, vec![0, 0]);
        assert_eq!(t.quorums, vec![8, 8]);
    }
}
