//! First-order optimizers.
//!
//! The paper's experiments run SGD. An [`Optimizer`] consumes the
//! *decoded aggregated gradient*, so any optimizer composes with any
//! coding scheme.

/// A stateful first-order optimizer stepping flat parameter vectors.
pub trait Optimizer {
    /// Applies one update given the (already normalized) gradient.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != grad.len()` or the length
    /// changes between calls (caller bug).
    fn step(&mut self, params: &mut [f64], grad: &[f64]);

    /// The base learning rate.
    fn learning_rate(&self) -> f64;
}

/// Plain SGD: `θ ← θ − η·g`.
///
/// # Example
///
/// ```
/// use hetgc_ml::{Optimizer, Sgd};
///
/// let mut opt = Sgd::new(0.5);
/// let mut params = vec![1.0];
/// opt.step(&mut params, &[2.0]);
/// assert_eq!(params, vec![0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), grad.len(), "param/grad length mismatch");
        for (p, g) in params.iter_mut().zip(grad) {
            *p -= self.lr * g;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic bowl f(θ) = ½‖θ − t‖²; gradient θ − t.
    fn bowl_grad(params: &[f64], target: &[f64]) -> Vec<f64> {
        params.iter().zip(target).map(|(p, t)| p - t).collect()
    }

    fn converges<O: Optimizer>(mut opt: O, iters: usize) -> f64 {
        let target = [1.0, -2.0, 3.0];
        let mut params = vec![0.0; 3];
        for _ in 0..iters {
            let g = bowl_grad(&params, &target);
            opt.step(&mut params, &g);
        }
        params
            .iter()
            .zip(&target)
            .map(|(p, t)| (p - t).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(converges(Sgd::new(0.2), 100) < 1e-6);
    }

    #[test]
    fn sgd_step_formula() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, 2.1]);
        assert_eq!(opt.learning_rate(), 0.1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Sgd::new(0.1).step([0.0, 0.0][..].as_mut(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_rejected() {
        Sgd::new(0.0);
    }

    #[test]
    fn optimizers_as_trait_objects() {
        let mut opts: Vec<Box<dyn Optimizer>> =
            vec![Box::new(Sgd::new(0.1)), Box::new(Sgd::new(1.0))];
        let mut p = vec![1.0];
        for o in &mut opts {
            o.step(&mut p, &[0.5]);
            assert!(o.learning_rate() > 0.0);
        }
        assert_eq!(p, vec![1.0 - 0.05 - 0.5]);
    }
}
