//! Online statistics for campaign measurements.
//!
//! Fault-injection campaigns produce millions of per-trial error values; we
//! never materialise them. [`OnlineStats`] keeps Welford-style running
//! moments plus extrema, and supports the `merge` operation needed by
//! `neurofail-par`'s tree reductions.

/// Running count/mean/variance/min/max over a stream of `f64` observations.
///
/// Uses Welford's algorithm (numerically stable single-pass moments); merging
/// follows Chan et al.'s pairwise update, so campaign statistics are
/// independent of how trials were sharded over worker threads (up to fp
/// rounding, which tests bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Observe one value.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction step).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`0.0` when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observed value (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The raw accumulator state `(count, mean, m2, min, max)` — the
    /// bitwise transport form for checkpointing or sending an accumulator
    /// over a wire. [`OnlineStats::from_raw`] restores an accumulator
    /// whose every subsequent `push`/`merge` is bit-identical to the
    /// original's.
    pub fn to_raw(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuild an accumulator from [`OnlineStats::to_raw`] output.
    pub fn from_raw(raw: (u64, f64, f64, f64, f64)) -> Self {
        OnlineStats {
            count: raw.0,
            mean: raw.1,
            m2: raw.2,
            min: raw.3,
            max: raw.4,
        }
    }

    /// Snapshot into a plain-data record.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

/// Plain-old-data snapshot of an [`OnlineStats`], for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum observation (0 when empty).
    pub min: f64,
    /// Maximum observation (0 when empty).
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn moments_of_known_sequence() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
        let sum = s.summary();
        assert_eq!(sum.min, 0.0);
        assert_eq!(sum.max, 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    proptest! {
        #[test]
        fn merge_equals_single_stream(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..200),
            split in 0usize..200,
        ) {
            let split = split.min(xs.len());
            let mut whole = OnlineStats::new();
            for &x in &xs { whole.push(x); }

            let mut left = OnlineStats::new();
            let mut right = OnlineStats::new();
            for &x in &xs[..split] { left.push(x); }
            for &x in &xs[split..] { right.push(x); }
            left.merge(&right);

            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
            prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
            prop_assert_eq!(left.min(), whole.min());
            prop_assert_eq!(left.max(), whole.max());
        }

        #[test]
        fn variance_is_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 0..64)) {
            let mut s = OnlineStats::new();
            for &x in &xs { s.push(x); }
            prop_assert!(s.variance() >= 0.0);
        }
    }
}
