//! A one-hidden-layer multilayer perceptron with tanh activation and
//! softmax output — the non-convex workload standing in for the paper's
//! AlexNet/ResNet training (DESIGN.md documents the substitution).

use hetgc_coding::kernels;
use rand::Rng;
use rand::RngCore;

use crate::dataset::Dataset;
use crate::loss::{cross_entropy_from_logits, softmax_in_place};
use crate::model::Model;

/// MLP `x → tanh(W₁x + b₁) → W₂h + b₂ → softmax`, cross-entropy loss
/// summed over samples.
///
/// Parameter layout: `[W₁ (hidden×dim), b₁ (hidden), W₂ (classes×hidden),
/// b₂ (classes)]`, all row-major.
///
/// # Example
///
/// ```
/// use hetgc_ml::{synthetic, Mlp, Model};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let data = synthetic::image_like(60, 16, 4, &mut rng);
/// let model = Mlp::new(16, 8, 4);
/// let params = model.init_params(&mut rng);
/// let g = model.gradient(&params, &data, (0, data.len()));
/// assert_eq!(g.len(), model.num_params());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    classes: usize,
}

impl Mlp {
    /// An MLP over `dim` inputs, `hidden` hidden units and `classes`
    /// outputs.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or `classes < 2`.
    pub fn new(dim: usize, hidden: usize, classes: usize) -> Self {
        assert!(dim > 0 && hidden > 0, "sizes must be positive");
        assert!(classes >= 2, "need at least two classes");
        Mlp {
            dim,
            hidden,
            classes,
        }
    }

    /// The input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    fn w1(&self) -> usize {
        0
    }
    fn b1(&self) -> usize {
        self.hidden * self.dim
    }
    fn w2(&self) -> usize {
        self.b1() + self.hidden
    }
    fn b2(&self) -> usize {
        self.w2() + self.classes * self.hidden
    }

    /// Forward pass; fills `h` (post-activation) and `logits`. The units
    /// of a layer are independent folds over its inputs, run
    /// [`kernels::CHAINS`] side by side.
    fn forward(&self, params: &[f64], x: &[f64], h: &mut Vec<f64>, logits: &mut Vec<f64>) {
        #[cfg(test)]
        if crate::testing::scalar_folds() {
            return self.forward_scalar(params, x, h, logits);
        }
        h.clear();
        h.resize(self.hidden, 0.0);
        let w1 = params[self.w1()..self.b1()].chunks_exact(self.dim);
        kernels::dot_ordered_each(x, w1, h);
        for (hj, b) in h.iter_mut().zip(&params[self.b1()..self.w2()]) {
            *hj = (*hj + b).tanh();
        }
        logits.clear();
        logits.resize(self.classes, 0.0);
        let w2 = params[self.w2()..self.b2()].chunks_exact(self.hidden);
        kernels::dot_ordered_each(h, w2, logits);
        for (z, b) in logits.iter_mut().zip(&params[self.b2()..]) {
            *z += b;
        }
    }

    /// [`Self::forward`] as it was before the ordered multi-dot, verbatim
    /// — one fold per unit: the reference of the bitwise tests.
    #[cfg(test)]
    fn forward_scalar(&self, params: &[f64], x: &[f64], h: &mut Vec<f64>, logits: &mut Vec<f64>) {
        h.clear();
        for j in 0..self.hidden {
            let w = &params[self.w1() + j * self.dim..self.w1() + (j + 1) * self.dim];
            let z: f64 =
                w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + params[self.b1() + j];
            h.push(z.tanh());
        }
        logits.clear();
        for c in 0..self.classes {
            let w = &params[self.w2() + c * self.hidden..self.w2() + (c + 1) * self.hidden];
            let z: f64 =
                w.iter().zip(h.iter()).map(|(wi, hi)| wi * hi).sum::<f64>() + params[self.b2() + c];
            logits.push(z);
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

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.hidden * self.dim + self.hidden + self.classes * self.hidden + self.classes
    }

    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
        self.check(params, data, range);
        let mut h = Vec::with_capacity(self.hidden);
        let mut logits = Vec::with_capacity(self.classes);
        (range.0..range.1)
            .map(|i| {
                self.forward(params, data.features_of(i), &mut h, &mut logits);
                cross_entropy_from_logits(&logits, data.class_of(i))
            })
            .sum()
    }

    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
        self.check(params, data, range);
        let mut grad = vec![0.0; self.num_params()];
        let mut h = Vec::with_capacity(self.hidden);
        let mut probs = Vec::with_capacity(self.classes);
        let mut dh = vec![0.0; self.hidden];

        for i in range.0..range.1 {
            let x = data.features_of(i);
            self.forward(params, x, &mut h, &mut probs);
            softmax_in_place(&mut probs);
            let label = data.class_of(i);

            // Output layer: ∂L/∂z2_c = p_c − 1{c=label}.
            dh.iter_mut().for_each(|v| *v = 0.0);
            for c in 0..self.classes {
                let delta = probs[c] - f64::from(u8::from(c == label));
                let w2_row = self.w2() + c * self.hidden;
                for j in 0..self.hidden {
                    grad[w2_row + j] += delta * h[j];
                    dh[j] += delta * params[w2_row + j];
                }
                grad[self.b2() + c] += delta;
            }
            // Hidden layer: dz1_j = dh_j · (1 − h_j²)  (tanh').
            for j in 0..self.hidden {
                let dz = dh[j] * (1.0 - h[j] * h[j]);
                if dz == 0.0 {
                    continue;
                }
                let w1_row = self.w1() + j * self.dim;
                for (g, xi) in grad[w1_row..w1_row + self.dim].iter_mut().zip(x) {
                    *g += dz * xi;
                }
                grad[self.b1() + j] += dz;
            }
        }
        grad
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        // Xavier-ish: scale by 1/sqrt(fan_in) per layer.
        let mut params = vec![0.0; self.num_params()];
        let s1 = 1.0 / (self.dim as f64).sqrt();
        let s2 = 1.0 / (self.hidden as f64).sqrt();
        for p in &mut params[self.w1()..self.b1()] {
            *p = rng.gen_range(-s1..s1);
        }
        for p in &mut params[self.w2()..self.b2()] {
            *p = rng.gen_range(-s2..s2);
        }
        // Biases start at zero.
        params
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
            // Every block/tail split of the hidden and the class chains.
            for (hidden, classes) in [(1, 2), (2, 3), (4, 5), (7, 4), (9, 2)] {
                for wild in Wild::ALL {
                    let model = Mlp::new(dim, hidden, classes);
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
                    let what = format!("d = {dim}, {hidden} hidden, {classes} classes, {wild:?}");
                    testing::assert_model_matches(&model, &params, &data, &reference, &what);
                }
            }
        }
    }

    fn tiny() -> Dataset {
        Dataset::new(
            vec![1.0, 0.5, -0.5, 1.0, 0.0, -1.0, 0.7, 0.7],
            Targets::Classes {
                labels: vec![0, 1, 1, 0],
                num_classes: 2,
            },
            2,
        )
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = tiny();
        let m = Mlp::new(2, 3, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let params = m.init_params(&mut rng);
        let g = m.gradient(&params, &d, (0, 4));
        let ng = numeric_gradient(&m, &params, &d, (0, 4), 1e-6);
        for (idx, (a, b)) in g.iter().zip(&ng).enumerate() {
            assert!((a - b).abs() < 1e-5, "param {idx}: {a} vs {b}");
        }
    }

    #[test]
    fn partial_gradients_sum_to_full() {
        let d = tiny();
        let m = Mlp::new(2, 3, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let params = m.init_params(&mut rng);
        let full = m.gradient(&params, &d, (0, 4));
        let mut acc = vec![0.0; full.len()];
        for lo in 0..4 {
            let g = m.gradient(&params, &d, (lo, lo + 1));
            for (a, b) in acc.iter_mut().zip(&g) {
                *a += b;
            }
        }
        for (a, b) in acc.iter().zip(&full) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn param_count() {
        let m = Mlp::new(10, 7, 3);
        assert_eq!(m.num_params(), 7 * 10 + 7 + 3 * 7 + 3);
        assert_eq!(m.dim, 10);
        assert_eq!(m.hidden(), 7);
        assert_eq!(m.classes, 3);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = synthetic::image_like(120, 8, 3, &mut rng);
        let m = Mlp::new(8, 12, 3);
        let mut params = m.init_params(&mut rng);
        let n = d.len() as f64;
        let initial = m.loss(&params, &d, (0, d.len())) / n;
        for _ in 0..150 {
            let mut g = m.gradient(&params, &d, (0, d.len()));
            for gi in &mut g {
                *gi /= n;
            }
            for (p, gi) in params.iter_mut().zip(&g) {
                *p -= 0.5 * gi;
            }
        }
        let final_loss = m.loss(&params, &d, (0, d.len())) / n;
        assert!(
            final_loss < initial * 0.5,
            "loss should halve: {initial} → {final_loss}"
        );
    }

    #[test]
    fn biases_initialized_to_zero() {
        let m = Mlp::new(4, 3, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let p = m.init_params(&mut rng);
        for j in 0..3 {
            assert_eq!(p[m.b1() + j], 0.0);
        }
        for c in 0..2 {
            assert_eq!(p[m.b2() + c], 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dataset_dim_mismatch_panics() {
        let d = tiny();
        let m = Mlp::new(3, 2, 2);
        m.loss(&vec![0.0; m.num_params()], &d, (0, 1));
    }
}
