//! The over-provisioning budget `ε − ε'`.
//!
//! Section II-C: a network trained to accuracy `ε' ≤ ε` is an
//! *over-provisioned* ε-approximation; every tolerance bound in the paper
//! compares a propagated error against the slack `ε − ε'`.

/// A validated pair `(ε, ε')` with `0 < ε' ≤ ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonBudget {
    eps: f64,
    eps_prime: f64,
}

/// Errors constructing an [`EpsilonBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// ε or ε' was non-finite or ≤ 0.
    NonPositive,
    /// ε' exceeded ε (the network would not even be an ε-approximation).
    PrimeExceedsEps,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::NonPositive => write!(f, "epsilon values must be finite and positive"),
            BudgetError::PrimeExceedsEps => write!(f, "epsilon' must not exceed epsilon"),
        }
    }
}

impl std::error::Error for BudgetError {}

impl EpsilonBudget {
    /// Validate and build.
    ///
    /// # Errors
    /// See [`BudgetError`].
    pub fn new(eps: f64, eps_prime: f64) -> Result<Self, BudgetError> {
        if !(eps.is_finite() && eps_prime.is_finite() && eps > 0.0 && eps_prime > 0.0) {
            return Err(BudgetError::NonPositive);
        }
        if eps_prime > eps {
            return Err(BudgetError::PrimeExceedsEps);
        }
        Ok(EpsilonBudget { eps, eps_prime })
    }

    /// The required accuracy ε (Definition 1).
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The achieved (over-provisioned) accuracy ε'.
    pub fn eps_prime(&self) -> f64 {
        self.eps_prime
    }

    /// The slack `ε − ε'` available to absorb propagated failure error.
    pub fn slack(&self) -> f64 {
        self.eps - self.eps_prime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_budget() {
        let b = EpsilonBudget::new(0.1, 0.02).unwrap();
        assert_eq!(b.eps(), 0.1);
        assert_eq!(b.eps_prime(), 0.02);
        assert!((b.slack() - 0.08).abs() < 1e-15);
    }

    #[test]
    fn equal_eps_gives_zero_slack() {
        let b = EpsilonBudget::new(0.05, 0.05).unwrap();
        assert_eq!(b.slack(), 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            EpsilonBudget::new(0.0, 0.0).unwrap_err(),
            BudgetError::NonPositive
        );
        assert_eq!(
            EpsilonBudget::new(-1.0, 0.1).unwrap_err(),
            BudgetError::NonPositive
        );
        assert_eq!(
            EpsilonBudget::new(f64::NAN, 0.1).unwrap_err(),
            BudgetError::NonPositive
        );
        assert_eq!(
            EpsilonBudget::new(0.1, 0.2).unwrap_err(),
            BudgetError::PrimeExceedsEps
        );
    }
}
