//! Classification predictions and accuracy — the paper's image
//! classification workloads report convergence in loss, but accuracy is
//! the metric users act on; the experiment harness exposes both.

use crate::dataset::Dataset;
use crate::model::Model;

/// A model whose output is a class decision.
pub trait Classifier: Model {
    /// The predicted class for a single feature vector.
    fn predict(&self, params: &[f64], x: &[f64]) -> usize;
}

/// Fraction of samples in `range` classified correctly.
///
/// # Panics
///
/// Panics (inside the model) on shape mismatches, or if the dataset is not
/// a classification dataset.
pub fn accuracy<C: Classifier + ?Sized>(
    model: &C,
    params: &[f64],
    data: &Dataset,
    range: (usize, usize),
) -> f64 {
    let (lo, hi) = range;
    assert!(lo <= hi && hi <= data.len(), "bad range [{lo}, {hi})");
    if lo == hi {
        return 0.0;
    }
    let correct = (lo..hi)
        .filter(|&i| model.predict(params, data.features_of(i)) == data.class_of(i))
        .count();
    correct as f64 / (hi - lo) as f64
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

impl Classifier for crate::logistic::SoftmaxRegression {
    fn predict(&self, params: &[f64], x: &[f64]) -> usize {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(x.len(), self.dim(), "feature dimension mismatch");
        let classes = self.classes();
        let dim = self.dim();
        let bias = classes * dim;
        let logits: Vec<f64> = (0..classes)
            .map(|c| {
                params[c * dim..(c + 1) * dim]
                    .iter()
                    .zip(x)
                    .map(|(w, v)| w * v)
                    .sum::<f64>()
                    + params[bias + c]
            })
            .collect();
        argmax(&logits)
    }
}

impl Classifier for crate::mlp::Mlp {
    fn predict(&self, params: &[f64], x: &[f64]) -> usize {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(x.len(), self.dim(), "feature dimension mismatch");
        let (dim, hidden, classes) = (self.dim(), self.hidden(), self.classes());
        let b1 = hidden * dim;
        let w2 = b1 + hidden;
        let b2 = w2 + classes * hidden;
        let h: Vec<f64> = (0..hidden)
            .map(|j| {
                (params[j * dim..(j + 1) * dim]
                    .iter()
                    .zip(x)
                    .map(|(w, v)| w * v)
                    .sum::<f64>()
                    + params[b1 + j])
                    .tanh()
            })
            .collect();
        let logits: Vec<f64> = (0..classes)
            .map(|c| {
                params[w2 + c * hidden..w2 + (c + 1) * hidden]
                    .iter()
                    .zip(&h)
                    .map(|(w, v)| w * v)
                    .sum::<f64>()
                    + params[b2 + c]
            })
            .collect();
        argmax(&logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::logistic::SoftmaxRegression;
    use crate::mlp::Mlp;
    use crate::synthetic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
        assert_eq!(argmax(&[2.0, 2.0]), 0); // ties go to the lower index
    }

    /// Accuracy on `data` of the nearest-class-mean rule, with the class
    /// means estimated from `data` itself.
    fn nearest_class_mean_accuracy(data: &Dataset, classes: usize) -> f64 {
        let mut means = vec![vec![0.0; data.dim()]; classes];
        let mut counts = vec![0usize; classes];
        for i in 0..data.len() {
            let c = data.class_of(i);
            counts[c] += 1;
            for (m, v) in means[c].iter_mut().zip(data.features_of(i)) {
                *m += v;
            }
        }
        for (mean, &count) in means.iter_mut().zip(&counts) {
            for m in mean {
                *m /= count as f64;
            }
        }
        let correct = (0..data.len())
            .filter(|&i| {
                let x = data.features_of(i);
                let dist = |c: usize| -> f64 {
                    means[c].iter().zip(x).map(|(m, v)| (m - v) * (m - v)).sum()
                };
                let nearest = (0..classes)
                    .min_by(|&a, &b| dist(a).total_cmp(&dist(b)))
                    .unwrap();
                nearest == data.class_of(i)
            })
            .count();
        correct as f64 / data.len() as f64
    }

    #[test]
    fn softmax_prediction_matches_trained_separation() {
        // Three random 2-d blob centers can land near one another, so what
        // any classifier can reach depends on the seed. The invariant, on
        // every seed: training beats the untrained model and lands within
        // MARGIN of the nearest-class-mean rule on the same data (the Bayes
        // rule for equal isotropic blobs, up to the estimated centers), and
        // where that rule separates the blobs (≥ 0.99) the model does too.
        const MARGIN: f64 = 0.12;
        for seed in 1..=12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = synthetic::gaussian_blobs(300, 2, 3, 6.0, &mut rng);
            let model = SoftmaxRegression::new(2, 3);
            let mut params = model.init_params(&mut rng);
            let n = data.len() as f64;
            let initial_acc = accuracy(&model, &params, &data, (0, data.len()));
            for _ in 0..150 {
                let mut g = model.gradient(&params, &data, (0, data.len()));
                for gi in &mut g {
                    *gi /= n;
                }
                for (p, gi) in params.iter_mut().zip(&g) {
                    *p -= 0.5 * gi;
                }
            }
            let acc = accuracy(&model, &params, &data, (0, data.len()));
            let reference = nearest_class_mean_accuracy(&data, 3);
            assert!(
                acc > initial_acc,
                "seed {seed}: {acc} after training, {initial_acc} before"
            );
            assert!(
                acc >= reference - MARGIN,
                "seed {seed}: {acc} vs nearest class mean {reference}"
            );
            if reference >= 0.99 {
                assert!(acc >= 0.98, "seed {seed}: separable blobs at {acc}");
            }
        }
    }

    #[test]
    fn mlp_prediction_consistent_with_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = synthetic::image_like(60, 8, 3, &mut rng);
        let model = Mlp::new(8, 6, 3);
        let params = model.init_params(&mut rng);
        // Predictions are valid class indices.
        for i in 0..10 {
            let p = model.predict(&params, data.features_of(i));
            assert!(p < 3);
        }
        let acc = accuracy(&model, &params, &data, (0, 60));
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn accuracy_empty_range_is_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = synthetic::gaussian_blobs(10, 2, 2, 3.0, &mut rng);
        let model = SoftmaxRegression::new(2, 2);
        let params = model.init_params(&mut rng);
        assert_eq!(accuracy(&model, &params, &data, (4, 4)), 0.0);
    }

    #[test]
    fn accuracy_subrange_only_counts_subrange() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = synthetic::gaussian_blobs(40, 2, 2, 8.0, &mut rng);
        let model = SoftmaxRegression::new(2, 2);
        // A hand-made perfect separator along the center line would need
        // the true centers; instead verify determinism: same inputs, same
        // result, and range additivity of the counts.
        let params = model.init_params(&mut rng);
        let a1 = accuracy(&model, &params, &data, (0, 20));
        let a2 = accuracy(&model, &params, &data, (20, 40));
        let all = accuracy(&model, &params, &data, (0, 40));
        assert!(((a1 + a2) / 2.0 - all).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn accuracy_bad_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = synthetic::gaussian_blobs(10, 2, 2, 3.0, &mut rng);
        let model = SoftmaxRegression::new(2, 2);
        let params = model.init_params(&mut rng);
        accuracy(&model, &params, &data, (0, 99));
    }
}
