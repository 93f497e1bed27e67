//! Sampled datasets with deterministic splits and mini-batching.

use neurofail_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::functions::TargetFn;
use crate::rng::DetRng;

/// A supervised dataset: `n` rows of `(x ∈ [0,1]^d, y ∈ [0,1])`.
///
/// Inputs are stored as an `n × d` row-major matrix so mini-batch forward
/// passes stream rows contiguously.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    inputs: Matrix,
    targets: Vec<f64>,
}

impl Dataset {
    /// Build from parts.
    ///
    /// # Panics
    /// If `inputs.rows() != targets.len()`.
    pub fn new(inputs: Matrix, targets: Vec<f64>) -> Self {
        assert_eq!(
            inputs.rows(),
            targets.len(),
            "Dataset: {} input rows vs {} targets",
            inputs.rows(),
            targets.len()
        );
        Dataset { inputs, targets }
    }

    /// Sample `n` points uniformly from the cube and label them with `f`.
    pub fn sample(f: &dyn TargetFn, n: usize, rng: &mut DetRng) -> Self {
        let d = f.dim();
        let mut data = Vec::with_capacity(n * d);
        let mut targets = Vec::with_capacity(n);
        let mut x = vec![0.0; d];
        for _ in 0..n {
            for xi in &mut x {
                *xi = rng.gen_range(0.0..=1.0);
            }
            data.extend_from_slice(&x);
            targets.push(f.eval(&x));
        }
        Dataset {
            inputs: Matrix::from_vec(n, d, data),
            targets,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.inputs.cols()
    }

    /// The `i`-th example.
    pub fn example(&self, i: usize) -> (&[f64], f64) {
        (self.inputs.row(i), self.targets[i])
    }

    /// Iterate over `(x, y)` examples.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> {
        self.inputs.rows_iter().zip(self.targets.iter().copied())
    }

    /// Deterministic split into `(train, test)` with `test_fraction` of the
    /// rows (rounded down) going to the test set after a seeded shuffle.
    ///
    /// # Panics
    /// If `test_fraction` is outside `[0,1]`.
    pub fn split(&self, test_fraction: f64, rng: &mut DetRng) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&test_fraction),
            "split: test_fraction {test_fraction} outside [0,1]"
        );
        let n = self.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let n_test = (n as f64 * test_fraction).floor() as usize;
        let take = |idx: &[usize]| {
            let mut data = Vec::with_capacity(idx.len() * self.dim());
            let mut targets = Vec::with_capacity(idx.len());
            for &i in idx {
                data.extend_from_slice(self.inputs.row(i));
                targets.push(self.targets[i]);
            }
            Dataset {
                inputs: Matrix::from_vec(idx.len(), self.dim(), data),
                targets,
            }
        };
        (take(&order[n_test..]), take(&order[..n_test]))
    }

    /// Iterate over mini-batches of example indices in a seeded random
    /// order. The final batch may be short.
    pub fn batches(&self, batch: usize, rng: &mut DetRng) -> Vec<Vec<usize>> {
        assert!(batch > 0, "batches: batch size must be positive");
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        order.chunks(batch).map(|c| c.to_vec()).collect()
    }

    /// Mean squared error of a predictor over this dataset.
    pub fn mse(&self, mut predict: impl FnMut(&[f64]) -> f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut s = 0.0;
        for (x, y) in self.iter() {
            let e = predict(x) - y;
            s += e * e;
        }
        s / self.len() as f64
    }

    /// Maximum absolute error of a predictor over this dataset — the
    /// empirical counterpart of the paper's `ε'` (the sup-norm approximation
    /// quality of the over-provisioned network).
    pub fn sup_error(&self, mut predict: impl FnMut(&[f64]) -> f64) -> f64 {
        self.iter()
            .fold(0.0f64, |m, (x, y)| m.max((predict(x) - y).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::Ridge;
    use crate::rng::rng;

    fn toy() -> Dataset {
        Dataset::sample(&Ridge::canonical(3), 100, &mut rng(11))
    }

    #[test]
    fn sample_shapes_and_ranges() {
        let ds = toy();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.dim(), 3);
        for (x, y) in ds.iter() {
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn sample_is_deterministic() {
        let a = Dataset::sample(&Ridge::canonical(2), 10, &mut rng(5));
        let b = Dataset::sample(&Ridge::canonical(2), 10, &mut rng(5));
        assert_eq!(a, b);
    }

    #[test]
    fn split_partitions_without_loss() {
        let ds = toy();
        let (train, test) = ds.split(0.25, &mut rng(1));
        assert_eq!(train.len(), 75);
        assert_eq!(test.len(), 25);
        assert_eq!(train.dim(), 3);
        // Multisets of targets are preserved.
        let mut all: Vec<f64> = train
            .iter()
            .map(|(_, y)| y)
            .chain(test.iter().map(|(_, y)| y))
            .collect();
        let mut orig: Vec<f64> = ds.iter().map(|(_, y)| y).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, orig);
    }

    #[test]
    fn split_extremes() {
        let ds = toy();
        let (train, test) = ds.split(0.0, &mut rng(2));
        assert_eq!(train.len(), 100);
        assert!(test.is_empty());
        let (train, test) = ds.split(1.0, &mut rng(2));
        assert!(train.is_empty());
        assert_eq!(test.len(), 100);
    }

    #[test]
    fn batches_cover_all_indices() {
        let ds = toy();
        let batches = ds.batches(32, &mut rng(3));
        assert_eq!(batches.len(), 4); // 32+32+32+4
        assert_eq!(batches.last().unwrap().len(), 4);
        let mut seen: Vec<usize> = batches.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn perfect_predictor_has_zero_error() {
        let f = Ridge::canonical(3);
        let ds = Dataset::sample(&f, 50, &mut rng(7));
        assert_eq!(ds.mse(|x| f.eval(x)), 0.0);
        assert_eq!(ds.sup_error(|x| f.eval(x)), 0.0);
        // A constant predictor has positive error on a non-constant target.
        assert!(ds.sup_error(|_| 0.5) > 0.0);
    }
}
