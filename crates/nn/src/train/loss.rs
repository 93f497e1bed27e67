//! Scalar-output loss functions.

/// Loss on the network's scalar output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Squared error `(ŷ − y)²`. The workspace default: the paper's
    /// ε-approximation criterion is a sup-norm on exactly this residual.
    Squared,
}

impl Loss {
    /// Loss value.
    pub fn value(&self, pred: f64, target: f64) -> f64 {
        match self {
            Loss::Squared => {
                let e = pred - target;
                e * e
            }
        }
    }

    /// `dLoss/dpred`.
    pub fn derivative(&self, pred: f64, target: f64) -> f64 {
        match self {
            Loss::Squared => 2.0 * (pred - target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_loss_values() {
        assert!((Loss::Squared.value(0.7, 0.2) - 0.25).abs() < 1e-15);
        assert_eq!(Loss::Squared.value(0.2, 0.2), 0.0);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-7;
        for (p, t) in [(0.3, 0.9), (0.0, 0.0), (-1.0, 2.0)] {
            let fd = (Loss::Squared.value(p + h, t) - Loss::Squared.value(p - h, t)) / (2.0 * h);
            assert!((Loss::Squared.derivative(p, t) - fd).abs() < 1e-6);
        }
    }
}
