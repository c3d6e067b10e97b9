//! # hetgc-ml
//!
//! A miniature machine-learning stack producing *real* gradients for the
//! gradient-coding layer — the paper's workload substitute (it trained
//! AlexNet/ResNet in PyTorch; gradient coding is model-agnostic, so any
//! differentiable model exercising the partial-gradient → encode → decode →
//! SGD path reproduces the system behaviour; see DESIGN.md).
//!
//! * [`Dataset`] / [`synthetic`] — in-memory datasets: linear-regression
//!   data, Gaussian blobs, and a CIFAR-like image-classification generator.
//! * [`Model`] — the contract every model satisfies:
//!   **partial gradients over disjoint ranges sum to the full gradient**,
//!   which is exactly the property gradient coding relies on
//!   (`g = Σ_i g_i`, §III-A).
//! * [`LinearRegression`], [`SoftmaxRegression`], [`Mlp`] — models from
//!   convex to non-convex.
//! * [`Sgd`] — plain SGD, the paper's optimizer ([`Optimizer`]).
//!
//! ```
//! use hetgc_ml::{synthetic, LinearRegression, Model, Optimizer, Sgd};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = synthetic::linear_regression(200, 4, 0.01, &mut rng);
//! let model = LinearRegression::new(4);
//! let mut params = model.init_params(&mut rng);
//! let mut opt = Sgd::new(0.1);
//! for _ in 0..50 {
//!     let mut g = model.gradient(&params, &data, (0, data.len()));
//!     for gi in &mut g { *gi /= data.len() as f64; }
//!     opt.step(&mut params, &g);
//! }
//! let loss = model.loss(&params, &data, (0, data.len())) / data.len() as f64;
//! assert!(loss < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod gradient;
mod linear;
mod loss;
mod mlp;
mod model;
mod optimizer;
pub mod synthetic;
#[cfg(test)]
mod testing;

pub use dataset::{Dataset, Targets};
pub use gradient::{partial_gradients, partial_gradients_into};
pub use linear::LinearRegression;
pub use loss::{cross_entropy_from_logits, log_sum_exp, softmax_in_place};
pub use mlp::Mlp;
pub use model::{numeric_gradient, FillPartial, Model, PartialSink};
pub use optimizer::{Optimizer, Sgd};

mod logistic;
pub use logistic::SoftmaxRegression;
