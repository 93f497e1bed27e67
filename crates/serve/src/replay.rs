//! Recorded request logs and deterministic replay.
//!
//! With [`ServeConfig::record_log`](crate::ServeConfig::record_log) on,
//! shard workers append every served request — plan, submission sequence
//! number, input, served value — to a shared log. Because every served
//! response is a pure function of `(plan, input)` (the batched engine's
//! per-row independence), the log is a complete, order-free witness of the
//! server's behaviour: replaying each entry as a direct singleton
//! [`output_error_batch`](neurofail_inject::CompiledPlan::output_error_batch)
//! call must reproduce every served value **bitwise**, no matter how the
//! original requests were coalesced, sharded or interleaved. [`RequestLog::verify`]
//! checks exactly that, and is how a long-lived serving deployment
//! re-certifies itself after the fact (cf. reoccurring-failure settings,
//! where certification is a continuous activity rather than a one-shot
//! campaign).

use neurofail_inject::{PlanId, PlanRegistry};
use neurofail_nn::BatchWorkspace;

/// One served request.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Registry index of the plan that served the request (the raw value
    /// of its [`PlanId`]).
    pub plan: usize,
    /// Submission sequence number: globally unique and monotonically
    /// assigned across plans. Consecutive *served* entries may leave gaps
    /// where a `try_submit` was rejected by backpressure (a sequence
    /// number is consumed before the enqueue attempt), so gaps do not by
    /// themselves indicate a dropped request.
    pub seq: u64,
    /// The queried input.
    pub input: Vec<f64>,
    /// The served disturbance `|F_neu(x) − F_fail(x)|`.
    pub value: f64,
}

impl LogEntry {
    /// The plan id this entry was served by.
    pub fn plan_id(&self) -> PlanId {
        PlanId(self.plan)
    }
}

/// Mismatch found by [`RequestLog::verify`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// An entry names a plan the registry does not hold.
    UnknownPlan {
        /// Sequence number of the offending entry.
        seq: u64,
        /// The unknown plan index.
        plan: usize,
    },
    /// An entry's input length does not match its plan's network — a
    /// corrupted or foreign log (the server validates dimensions at
    /// submit, so it never records such an entry itself).
    DimensionMismatch {
        /// Sequence number of the offending entry.
        seq: u64,
        /// Input dimension the plan's network expects.
        expected: usize,
        /// Length of the logged input.
        got: usize,
    },
    /// A replayed value differs from the served one.
    Mismatch {
        /// Sequence number of the offending entry.
        seq: u64,
        /// Value the server returned.
        served: f64,
        /// Value direct singleton evaluation returns.
        replayed: f64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::UnknownPlan { seq, plan } => {
                write!(f, "log entry {seq}: plan #{plan} not in registry")
            }
            ReplayError::DimensionMismatch { seq, expected, got } => {
                write!(
                    f,
                    "log entry {seq}: input length {got}, plan expects {expected}"
                )
            }
            ReplayError::Mismatch {
                seq,
                served,
                replayed,
            } => write!(
                f,
                "log entry {seq}: served {served:e} but replay gives {replayed:e}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A log of served requests, ordered by submission sequence number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestLog {
    /// Entries sorted by `seq`.
    pub entries: Vec<LogEntry>,
}

impl RequestLog {
    /// Number of logged requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Re-evaluate every entry as a direct singleton batch against
    /// `registry` and return the replayed values in `seq` order.
    ///
    /// # Errors
    /// [`ReplayError::UnknownPlan`] if an entry's plan is not registered,
    /// [`ReplayError::DimensionMismatch`] if an entry's input does not fit
    /// its plan's network (a corrupted log) — malformed external data is
    /// reported, never panicked on.
    pub fn replay(&self, registry: &PlanRegistry) -> Result<Vec<f64>, ReplayError> {
        let mut ws = BatchWorkspace::default();
        let mut xs = neurofail_tensor::Matrix::zeros(0, 0);
        self.entries
            .iter()
            .map(|e| {
                let entry = registry.get(e.plan_id()).ok_or(ReplayError::UnknownPlan {
                    seq: e.seq,
                    plan: e.plan,
                })?;
                if e.input.len() != entry.input_dim() {
                    return Err(ReplayError::DimensionMismatch {
                        seq: e.seq,
                        expected: entry.input_dim(),
                        got: e.input.len(),
                    });
                }
                Ok(entry.eval_singleton_with(&e.input, &mut xs, &mut ws))
            })
            .collect()
    }

    /// Replay the log and require **bitwise** equality with every served
    /// value — the serving engine's end-to-end determinism audit.
    ///
    /// # Errors
    /// The first [`ReplayError`] encountered, in `seq` order.
    pub fn verify(&self, registry: &PlanRegistry) -> Result<(), ReplayError> {
        let replayed = self.replay(registry)?;
        for (e, r) in self.entries.iter().zip(replayed) {
            if e.value.to_bits() != r.to_bits() {
                return Err(ReplayError::Mismatch {
                    seq: e.seq,
                    served: e.value,
                    replayed: r,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurofail_inject::InjectionPlan;
    use neurofail_nn::activation::Activation;
    use neurofail_nn::layer::DenseLayer;
    use neurofail_nn::network::Layer;
    use neurofail_nn::Mlp;
    use neurofail_tensor::Matrix;
    use std::sync::Arc;

    fn registry() -> PlanRegistry {
        let net = Arc::new(Mlp::new(
            vec![Layer::Dense(DenseLayer::new(
                Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
                vec![],
                Activation::Identity,
            ))],
            vec![1.0, 2.0],
            0.0,
        ));
        let mut reg = PlanRegistry::new();
        reg.register(net, &InjectionPlan::crash([(0, 1)]), 1.0)
            .unwrap();
        reg
    }

    #[test]
    fn verify_accepts_a_faithful_log_and_rejects_a_tampered_one() {
        let reg = registry();
        let mut ws = BatchWorkspace::default();
        let x = vec![0.5, 0.25];
        let value = reg.get(PlanId(0)).unwrap().eval_singleton(&x, &mut ws);
        let mut log = RequestLog {
            entries: vec![LogEntry {
                plan: 0,
                seq: 0,
                input: x,
                value,
            }],
        };
        assert_eq!(log.verify(&reg), Ok(()));
        // Flip the last mantissa bit — the audit is bitwise, so even a
        // 1-ulp perturbation must be caught.
        log.entries[0].value = f64::from_bits(log.entries[0].value.to_bits() ^ 1);
        assert!(matches!(
            log.verify(&reg),
            Err(ReplayError::Mismatch { seq: 0, .. })
        ));
    }

    #[test]
    fn corrupted_input_dimension_is_reported_not_panicked() {
        let reg = registry();
        let log = RequestLog {
            entries: vec![LogEntry {
                plan: 0,
                seq: 5,
                input: vec![0.5], // plan expects 2 inputs
                value: 0.0,
            }],
        };
        assert_eq!(
            log.replay(&reg),
            Err(ReplayError::DimensionMismatch {
                seq: 5,
                expected: 2,
                got: 1
            })
        );
        assert!(log.verify(&reg).is_err());
    }

    #[test]
    fn unknown_plan_is_reported() {
        let reg = registry();
        let log = RequestLog {
            entries: vec![LogEntry {
                plan: 9,
                seq: 3,
                input: vec![0.0, 0.0],
                value: 0.0,
            }],
        };
        assert_eq!(
            log.replay(&reg),
            Err(ReplayError::UnknownPlan { seq: 3, plan: 9 })
        );
        assert!(log.verify(&reg).is_err());
    }
}
