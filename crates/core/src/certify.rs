//! One-call robustness certification.
//!
//! [`certify`] bundles every bound in the crate into a single report for a
//! `(profile, ε, ε')` triple: per-layer and packed crash / Byzantine
//! tolerances (Theorems 1 & 3), synapse tolerances (Theorem 4, Lemma-2
//! form), the boosting quorum table (Corollary 2), and the maximum uniform
//! per-neuron implementation error (Theorem 5). This is the API a
//! deployment pipeline would call before shipping a trained network to
//! unreliable hardware.

use crate::boosting::QuorumTable;
use crate::budget::EpsilonBudget;
use crate::byzantine::max_faults_in_layer;
use crate::fep::fep_for;
use crate::precision::{max_uniform_lambda, ErrorLocus};
use crate::profile::{FaultClass, NetworkProfile};
use crate::synapse::{synapse_fep, SynapseBoundForm};
use crate::tolerance::greedy_max_faults;

/// The full certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Accuracy demanded of the deployed network (Definition 1's ε).
    pub eps: f64,
    /// Accuracy achieved by training (ε').
    pub eps_prime: f64,
    /// The slack `ε − ε'`.
    pub slack: f64,
    /// The synaptic capacity `C` (`+inf` = Assumption 1 absent).
    pub capacity: f64,
    /// Max crashes tolerated in layer `l` alone, per layer.
    pub crash_per_layer: Vec<usize>,
    /// A greedy-maximal simultaneous crash distribution.
    pub crash_packed: Vec<usize>,
    /// Max Byzantine neurons tolerated in layer `l` alone (all zeros when
    /// the capacity is unbounded — Lemma 1).
    pub byzantine_per_layer: Vec<usize>,
    /// A greedy-maximal simultaneous Byzantine distribution.
    pub byzantine_packed: Vec<usize>,
    /// Max Byzantine synapses tolerated per synapse layer `1..=L+1` alone
    /// (Lemma-2 bound form).
    pub synapse_per_layer: Vec<usize>,
    /// Corollary 2 quorum table derived from `crash_packed`.
    pub quorums: QuorumTable,
    /// Max uniform per-neuron output error (Theorem 5, post-activation)
    /// keeping the network within ε.
    pub max_lambda: f64,
}

/// Build the certificate for a profile and budget.
pub fn certify(profile: &NetworkProfile, budget: EpsilonBudget) -> Certificate {
    let l = profile.depth();
    let per_layer = |class: FaultClass| -> Vec<usize> {
        (1..=l)
            .map(|layer| max_faults_in_layer(profile, layer, budget, class))
            .collect()
    };
    let synapse_per_layer = (0..=l)
        .map(|i| {
            let mut single = vec![0usize; l + 1];
            single[i] = 1;
            let per_fault = synapse_fep(profile, &single, SynapseBoundForm::Lemma2);
            if per_fault == 0.0 {
                usize::MAX
            } else if per_fault.is_infinite() {
                0
            } else {
                (budget.slack() / per_fault).floor() as usize
            }
        })
        .collect();
    let crash_packed = greedy_max_faults(profile, budget, FaultClass::Crash);
    Certificate {
        eps: budget.eps(),
        eps_prime: budget.eps_prime(),
        slack: budget.slack(),
        capacity: profile.capacity,
        crash_per_layer: per_layer(FaultClass::Crash),
        byzantine_per_layer: per_layer(FaultClass::Byzantine),
        byzantine_packed: greedy_max_faults(profile, budget, FaultClass::Byzantine),
        quorums: crate::boosting::quorums_for(profile, &crash_packed, budget),
        crash_packed,
        synapse_per_layer,
        max_lambda: max_uniform_lambda(profile, budget.slack(), ErrorLocus::PostActivation),
    }
}

impl Certificate {
    /// Total crashes in the packed distribution.
    pub fn crash_total(&self) -> usize {
        self.crash_packed.iter().sum()
    }

    /// Total Byzantine neurons in the packed distribution.
    pub fn byzantine_total(&self) -> usize {
        self.byzantine_packed.iter().sum()
    }

    /// Residual slack after the packed crash distribution.
    pub fn crash_residual(&self, profile: &NetworkProfile) -> f64 {
        self.slack - fep_for(profile, &self.crash_packed, FaultClass::Crash)
    }
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Robustness certificate (eps = {:.4}, eps' = {:.4}, slack = {:.4}, C = {})",
            self.eps, self.eps_prime, self.slack, self.capacity
        )?;
        writeln!(
            f,
            "  crash     per-layer max: {:?}  packed: {:?} (total {})",
            self.crash_per_layer,
            self.crash_packed,
            self.crash_total()
        )?;
        writeln!(
            f,
            "  byzantine per-layer max: {:?}  packed: {:?} (total {})",
            self.byzantine_per_layer,
            self.byzantine_packed,
            self.byzantine_total()
        )?;
        writeln!(f, "  synapses  per-layer max: {:?}", self.synapse_per_layer)?;
        writeln!(
            f,
            "  boosting quorums: {:?} (skip {:?})",
            self.quorums.quorums, self.quorums.faults
        )?;
        writeln!(
            f,
            "  max uniform per-neuron error (Thm 5): {:.3e}",
            self.max_lambda
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Capacity;

    fn budget(e: f64, ep: f64) -> EpsilonBudget {
        EpsilonBudget::new(e, ep).unwrap()
    }

    #[test]
    fn certificate_is_internally_consistent() {
        let p = NetworkProfile::uniform(3, 12, 0.05, 1.0, 1.0);
        let b = budget(0.5, 0.1);
        let cert = certify(&p, b);
        assert_eq!(cert.crash_per_layer.len(), 3);
        assert_eq!(cert.synapse_per_layer.len(), 4);
        // Packed distributions are admissible.
        assert!(crate::crash::crash_tolerates(&p, &cert.crash_packed, b));
        assert!(crate::byzantine::tolerates(&p, &cert.byzantine_packed, b));
        assert!(cert.crash_residual(&p) >= 0.0);
        // Packed per-layer never exceeds the per-layer-alone maximum... not
        // guaranteed in general (non-monotone lattice), but quorums must
        // complement the packed faults exactly.
        for ((q, f), l) in cert
            .quorums
            .quorums
            .iter()
            .zip(&cert.quorums.faults)
            .zip(&p.layers)
        {
            assert_eq!(q + f, l.n);
        }
        // λ inverts to the slack.
        let back = crate::precision::precision_bound_uniform(
            &p,
            cert.max_lambda,
            ErrorLocus::PostActivation,
        );
        assert!((back - cert.slack).abs() < 1e-12);
    }

    #[test]
    fn unbounded_capacity_zeroes_byzantine_only() {
        let p = {
            let mut p = NetworkProfile::uniform(2, 8, 0.05, 1.0, 1.0);
            p.capacity = f64::INFINITY;
            p
        };
        let cert = certify(&p, budget(0.5, 0.1));
        assert!(cert.byzantine_per_layer.iter().all(|&f| f == 0));
        assert_eq!(cert.byzantine_total(), 0);
        assert!(cert.crash_total() > 0);
        // Output synapse layer also tolerates none.
        assert!(cert.synapse_per_layer.iter().all(|&f| f == 0));
    }

    #[test]
    fn display_renders_the_certificate() {
        let p = NetworkProfile::from_mlp(
            &neurofail_nn::builder::MlpBuilder::new(3)
                .dense(6, neurofail_nn::Activation::Sigmoid { k: 1.0 })
                .bias(false)
                .build(&mut {
                    use rand::SeedableRng;
                    rand::rngs::SmallRng::seed_from_u64(4)
                }),
            Capacity::Bounded(1.0),
        )
        .unwrap();
        let cert = certify(&p, budget(0.5, 0.25));
        let text = format!("{cert}");
        assert!(text.contains("Robustness certificate"));
        assert!(text.contains("boosting quorums"));
    }
}
