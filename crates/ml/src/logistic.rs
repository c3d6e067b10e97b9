//! Multinomial logistic (softmax) regression.

use hetgc_coding::kernels;
use rand::RngCore;

use crate::dataset::Dataset;
use crate::loss::{cross_entropy_from_logits, softmax_in_place};
use crate::model::{uniform_init, Model};

/// Softmax regression: logits `z_c = w_cᵀx + b_c`, cross-entropy loss
/// summed over samples.
///
/// Parameters are laid out class-major: `[W (classes×dim, row-major), b
/// (classes)]`.
///
/// # Example
///
/// ```
/// use hetgc_ml::{synthetic, Model, SoftmaxRegression};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let data = synthetic::gaussian_blobs(90, 2, 3, 4.0, &mut rng);
/// let model = SoftmaxRegression::new(2, 3);
/// let params = model.init_params(&mut rng);
/// assert_eq!(params.len(), 3 * 2 + 3);
/// let g = model.gradient(&params, &data, (0, data.len()));
/// assert_eq!(g.len(), params.len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftmaxRegression {
    dim: usize,
    classes: usize,
}

impl SoftmaxRegression {
    /// A softmax model over `dim` features and `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `classes < 2`.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(classes >= 2, "need at least two classes");
        SoftmaxRegression { dim, classes }
    }

    /// `z_c = w_cᵀx + b_c`: the classes are independent folds over the
    /// features, run [`kernels::CHAINS`] side by side.
    fn logits(&self, params: &[f64], x: &[f64], out: &mut Vec<f64>) {
        #[cfg(test)]
        if crate::testing::scalar_folds() {
            return self.logits_scalar(params, x, out);
        }
        out.clear();
        out.resize(self.classes, 0.0);
        let (weights, bias) = params.split_at(self.classes * self.dim);
        kernels::dot_ordered_each(x, weights.chunks_exact(self.dim), out);
        for (z, b) in out.iter_mut().zip(bias) {
            *z += b;
        }
    }

    /// [`Self::logits`] as it was before the ordered multi-dot, verbatim
    /// — one fold per class: the reference of the bitwise tests.
    #[cfg(test)]
    fn logits_scalar(&self, params: &[f64], x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        let bias_base = self.classes * self.dim;
        for c in 0..self.classes {
            let w = &params[c * self.dim..(c + 1) * self.dim];
            let z: f64 =
                w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + params[bias_base + c];
            out.push(z);
        }
    }

    fn check(&self, params: &[f64], data: &Dataset, (lo, hi): (usize, usize)) {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        assert_eq!(
            data.num_classes(),
            Some(self.classes),
            "class count mismatch"
        );
        assert!(lo <= hi && hi <= data.len(), "bad range [{lo}, {hi})");
    }
}

impl Model for SoftmaxRegression {
    fn num_params(&self) -> usize {
        self.classes * self.dim + self.classes
    }

    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
        self.check(params, data, range);
        let mut logits = Vec::with_capacity(self.classes);
        (range.0..range.1)
            .map(|i| {
                self.logits(params, data.features_of(i), &mut logits);
                cross_entropy_from_logits(&logits, data.class_of(i))
            })
            .sum()
    }

    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
        let mut grad = vec![0.0; self.num_params()];
        self.gradient_into(params, data, range, &mut grad);
        grad
    }

    fn gradient_into(
        &self,
        params: &[f64],
        data: &Dataset,
        range: (usize, usize),
        out: &mut [f64],
    ) {
        self.check(params, data, range);
        assert_eq!(out.len(), self.num_params(), "gradient buffer length");
        out.fill(0.0);
        let bias_base = self.classes * self.dim;
        let mut probs = Vec::with_capacity(self.classes);
        for i in range.0..range.1 {
            let x = data.features_of(i);
            self.logits(params, x, &mut probs);
            softmax_in_place(&mut probs);
            let label = data.class_of(i);
            for c in 0..self.classes {
                // ∂CE/∂z_c = p_c − 1{c = label}
                let delta = probs[c] - f64::from(u8::from(c == label));
                let gw = &mut out[c * self.dim..(c + 1) * self.dim];
                for (gj, xj) in gw.iter_mut().zip(x) {
                    *gj += delta * xj;
                }
                out[bias_base + c] += delta;
            }
        }
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        uniform_init(self.num_params(), 0.01, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Targets;
    use crate::model::numeric_gradient;
    use crate::synthetic;
    use crate::testing::{self, Wild};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bitwise_equal_to_the_scalar_folds() {
        for dim in [1, 3, 128, 129] {
            // Every block/tail split of the class chains.
            for classes in [2, 3, 4, 5, 9] {
                for wild in Wild::ALL {
                    let model = SoftmaxRegression::new(dim, classes);
                    let n = testing::ragged_ranges().1;
                    let data = testing::dataset(n, dim, Some(classes), wild);
                    let params = testing::params(&model, wild);
                    let reference = |range| {
                        testing::with_scalar_folds(|| {
                            (
                                model.loss(&params, &data, range),
                                model.gradient(&params, &data, range),
                            )
                        })
                    };
                    let what = format!("d = {dim}, {classes} classes, wild {wild:?}");
                    testing::assert_model_matches(&model, &params, &data, &reference, &what);
                }
            }
        }
    }

    fn tiny() -> Dataset {
        Dataset::new(
            vec![1.0, 0.0, 0.0, 1.0, -1.0, -1.0],
            Targets::Classes {
                labels: vec![0, 1, 2],
                num_classes: 3,
            },
            2,
        )
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = tiny();
        let m = SoftmaxRegression::new(2, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let params = m.init_params(&mut rng);
        let g = m.gradient(&params, &d, (0, 3));
        let ng = numeric_gradient(&m, &params, &d, (0, 3), 1e-6);
        for (a, b) in g.iter().zip(&ng) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_gradients_sum_to_full() {
        let d = tiny();
        let m = SoftmaxRegression::new(2, 3);
        let params = vec![0.1; m.num_params()];
        let full = m.gradient(&params, &d, (0, 3));
        let a = m.gradient(&params, &d, (0, 2));
        let b = m.gradient(&params, &d, (2, 3));
        for j in 0..full.len() {
            assert!((full[j] - a[j] - b[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_params_give_log_c_loss() {
        let d = tiny();
        let m = SoftmaxRegression::new(2, 3);
        let loss = m.loss(&vec![0.0; m.num_params()], &d, (0, 3)) / 3.0;
        assert!((loss - 3f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn training_separates_blobs() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = synthetic::gaussian_blobs(300, 2, 3, 5.0, &mut rng);
        let m = SoftmaxRegression::new(2, 3);
        let mut params = m.init_params(&mut rng);
        let n = d.len() as f64;
        let initial = m.loss(&params, &d, (0, d.len())) / n;
        for _ in 0..200 {
            let mut g = m.gradient(&params, &d, (0, d.len()));
            for gi in &mut g {
                *gi /= n;
            }
            for (p, gi) in params.iter_mut().zip(&g) {
                *p -= 0.5 * gi;
            }
        }
        let final_loss = m.loss(&params, &d, (0, d.len())) / n;
        assert!(final_loss < initial / 4.0, "{initial} → {final_loss}");
        assert!(
            final_loss < 0.3,
            "blobs should be nearly separable: {final_loss}"
        );
    }

    #[test]
    fn accessors() {
        let m = SoftmaxRegression::new(4, 10);
        assert_eq!(m.dim, 4);
        assert_eq!(m.classes, 10);
        assert_eq!(m.num_params(), 50);
    }

    #[test]
    #[should_panic(expected = "class count")]
    fn wrong_class_count_panics() {
        let d = tiny(); // 3 classes
        SoftmaxRegression::new(2, 4).loss(&[0.0; 12], &d, (0, 1));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_class_rejected() {
        SoftmaxRegression::new(2, 1);
    }
}
