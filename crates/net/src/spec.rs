//! Wire-shippable mirrors of the master's in-memory configuration: the
//! handshake payload a worker process needs to reconstruct its whole
//! runtime state — behaviour schedule, model, dataset, shard assignment
//! and codec row — on the far side of a socket.
//!
//! These are deliberately *specs*, not the runtime types themselves: the
//! wire carries fixed-width integers only, and a worker binary cannot
//! receive an `Arc<dyn Model>` — it receives a [`ModelSpec`] and builds
//! an [`AnyModel`].

use std::time::Duration;

use hetgc_comm::PayloadEncoding;
use hetgc_ml::{Dataset, FillPartial, LinearRegression, Model, SoftmaxRegression, Targets};
use hetgc_runtime::WorkerBehavior;

/// The master → worker handshake payload: everything a fresh worker
/// process needs before its first round.
#[derive(Debug, Clone, PartialEq)]
pub struct Handshake {
    /// The worker's logical row in the coding matrix (assignment order =
    /// accept order).
    pub worker: u32,
    /// Gradient dimension (`Model::num_params`), fixed for the run.
    pub num_params: u32,
    /// How many `f64`s per [`crate::Frame::GradientChunk`] — the
    /// master's chosen chunking granularity.
    pub chunk_len: u32,
    /// The worker's sample ranges, one per owned partition, aligned with
    /// `coefficients` (the codec's precompiled CSR row applied to the
    /// partition assignment).
    pub ranges: Vec<(u32, u32)>,
    /// The non-zero entries of `b_w`, aligned with `ranges`.
    pub coefficients: Vec<f64>,
    /// Straggler/heterogeneity emulation schedule.
    pub behavior: BehaviorSpec,
    /// Which model to instantiate.
    pub model: ModelSpec,
    /// The full training data (loopback-scale; a production data plane
    /// would ship a shard manifest instead).
    pub dataset: DatasetSpec,
    /// The payload encoding this link negotiated for gradient traffic.
    /// The master selects it from the worker's `Hello` capability set
    /// ([`PayloadEncoding::F64`] — the wire default — for peers that
    /// advertise nothing); the worker must ship its coded partials in
    /// exactly this encoding.
    pub encoding: PayloadEncoding,
}

/// Wire form of [`WorkerBehavior`].
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorSpec {
    /// [`WorkerBehavior::extra_delay`] in microseconds.
    pub extra_delay_micros: u64,
    /// [`WorkerBehavior::throttle_samples_per_sec`].
    pub throttle: Option<f64>,
    /// [`WorkerBehavior::throttle_step`] as `(iteration, rate)`.
    pub throttle_step: Option<(u64, f64)>,
    /// [`WorkerBehavior::fail_from_iteration`].
    pub fail_from: Option<u64>,
}

impl From<&WorkerBehavior> for BehaviorSpec {
    fn from(b: &WorkerBehavior) -> Self {
        BehaviorSpec {
            extra_delay_micros: b.extra_delay.as_micros() as u64,
            throttle: b.throttle_samples_per_sec,
            throttle_step: b.throttle_step.map(|(at, rate)| (at as u64, rate)),
            fail_from: b.fail_from_iteration.map(|i| i as u64),
        }
    }
}

impl BehaviorSpec {
    /// Reconstructs the runtime behaviour on the worker side.
    pub fn to_behavior(&self) -> WorkerBehavior {
        WorkerBehavior {
            extra_delay: Duration::from_micros(self.extra_delay_micros),
            throttle_samples_per_sec: self.throttle,
            throttle_step: self.throttle_step.map(|(at, rate)| (at as usize, rate)),
            fail_from_iteration: self.fail_from.map(|i| i as usize),
        }
    }
}

/// Which model family (and shape) a worker instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// [`LinearRegression`] over `dim` features.
    Linear {
        /// Feature dimension.
        dim: u32,
    },
    /// [`SoftmaxRegression`] over `dim` features and `classes` classes.
    Softmax {
        /// Feature dimension.
        dim: u32,
        /// Number of classes.
        classes: u32,
    },
}

impl ModelSpec {
    /// Instantiates the model the spec names, for `data`.
    ///
    /// # Errors
    ///
    /// A human-readable reason when no model has that shape (dimension
    /// 0, fewer than two classes) or the model does not fit `data`
    /// (another feature dimension, other targets) — what the model's
    /// constructor and kernels would otherwise panic on.
    pub fn build(&self, data: &Dataset) -> Result<AnyModel, String> {
        let (dim, classes) = match *self {
            ModelSpec::Linear { dim } => (dim as usize, None),
            ModelSpec::Softmax { dim, classes } => (dim as usize, Some(classes as usize)),
        };
        if dim == 0 || classes.is_some_and(|c| c < 2) {
            return Err(format!("no model of shape {self:?}"));
        }
        if dim != data.dim() || classes != data.num_classes() {
            return Err(format!(
                "{self:?} does not fit a dataset of dimension {} with {} classes",
                data.dim(),
                data.num_classes().unwrap_or(0)
            ));
        }
        Ok(match classes {
            None => AnyModel::Linear(LinearRegression::new(dim)),
            Some(classes) => AnyModel::Softmax(SoftmaxRegression::new(dim, classes)),
        })
    }
}

/// A model reconstructed from a [`ModelSpec`], implementing [`Model`] by
/// delegation so the worker loop computes the *identical* floating-point
/// operations an in-process worker thread would.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// Linear least squares.
    Linear(LinearRegression),
    /// Softmax classification.
    Softmax(SoftmaxRegression),
}

impl Model for AnyModel {
    fn num_params(&self) -> usize {
        match self {
            AnyModel::Linear(m) => m.num_params(),
            AnyModel::Softmax(m) => m.num_params(),
        }
    }

    fn loss(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> f64 {
        match self {
            AnyModel::Linear(m) => m.loss(params, data, range),
            AnyModel::Softmax(m) => m.loss(params, data, range),
        }
    }

    fn gradient(&self, params: &[f64], data: &Dataset, range: (usize, usize)) -> Vec<f64> {
        match self {
            AnyModel::Linear(m) => m.gradient(params, data, range),
            AnyModel::Softmax(m) => m.gradient(params, data, range),
        }
    }

    fn gradient_into(
        &self,
        params: &[f64],
        data: &Dataset,
        range: (usize, usize),
        out: &mut [f64],
    ) {
        match self {
            AnyModel::Linear(m) => m.gradient_into(params, data, range, out),
            AnyModel::Softmax(m) => m.gradient_into(params, data, range, out),
        }
    }

    fn for_each_partial(
        &self,
        params: &[f64],
        data: &Dataset,
        ranges: &[(usize, usize)],
        visit: &mut dyn FnMut(usize, &FillPartial<'_>),
    ) {
        match self {
            AnyModel::Linear(m) => m.for_each_partial(params, data, ranges, visit),
            AnyModel::Softmax(m) => m.for_each_partial(params, data, ranges, visit),
        }
    }

    fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
        match self {
            AnyModel::Linear(m) => m.init_params(rng),
            AnyModel::Softmax(m) => m.init_params(rng),
        }
    }
}

/// Wire form of [`Targets`].
#[derive(Debug, Clone, PartialEq)]
pub enum TargetsSpec {
    /// One real target per sample.
    Regression(Vec<f64>),
    /// Class labels.
    Classes {
        /// Per-sample class indices.
        labels: Vec<u32>,
        /// Number of distinct classes.
        num_classes: u32,
    },
}

/// Wire form of [`Dataset`]: row-major features plus targets.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Row-major features, `len × dim`.
    pub x: Vec<f64>,
    /// The targets.
    pub targets: TargetsSpec,
    /// Feature dimension.
    pub dim: u32,
}

impl DatasetSpec {
    /// Snapshots an in-memory dataset for the wire.
    pub fn from_dataset(data: &Dataset) -> Self {
        let mut x = Vec::with_capacity(data.len() * data.dim());
        for i in 0..data.len() {
            x.extend_from_slice(data.features_of(i));
        }
        let targets = match data.targets() {
            Targets::Regression(y) => TargetsSpec::Regression(y.clone()),
            Targets::Classes {
                labels,
                num_classes,
            } => TargetsSpec::Classes {
                labels: labels.iter().map(|&l| l as u32).collect(),
                num_classes: *num_classes as u32,
            },
        };
        DatasetSpec {
            x,
            targets,
            dim: data.dim() as u32,
        }
    }

    /// Rebuilds the dataset on the worker side.
    ///
    /// # Errors
    ///
    /// A human-readable message when the shapes are inconsistent (the
    /// wire decoder validates syntax, this validates semantics).
    pub fn into_dataset(self) -> Result<Dataset, String> {
        let dim = self.dim as usize;
        if dim == 0 || !self.x.len().is_multiple_of(dim) {
            return Err(format!(
                "dataset features ({}) are not a multiple of dim {dim}",
                self.x.len()
            ));
        }
        let n = self.x.len() / dim;
        let targets = match self.targets {
            TargetsSpec::Regression(y) => Targets::Regression(y),
            TargetsSpec::Classes {
                labels,
                num_classes,
            } => {
                let num_classes = num_classes as usize;
                let labels: Vec<usize> = labels.into_iter().map(|l| l as usize).collect();
                if labels.iter().any(|&l| l >= num_classes) {
                    return Err("class label out of range".to_owned());
                }
                Targets::Classes {
                    labels,
                    num_classes,
                }
            }
        };
        if targets.len() != n {
            return Err(format!(
                "dataset has {n} samples but {} targets",
                targets.len()
            ));
        }
        Ok(Dataset::new(self.x, targets, dim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgc_ml::synthetic;
    use hetgc_runtime::compute_coded;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Empty, one-sample and many-sample partitions from an unaligned
    /// start, with zero and negative coefficients.
    const RANGES: [(usize, usize); 9] = [
        (3, 4),
        (4, 5),
        (5, 5),
        (5, 14),
        (14, 15),
        (15, 18),
        (18, 40),
        (40, 41),
        (41, 42),
    ];
    const COEFFICIENTS: [f64; 9] = [1.5, -0.25, 3.0, 0.0, 2.0, -1.0, 0.5, 0.0, -4.0];

    fn coded<M: Model>(model: &M, data: &Dataset, params: &[f64]) -> Vec<u64> {
        let (mut coded, mut partial) = (Vec::new(), Vec::new());
        compute_coded(
            model,
            data,
            &RANGES,
            &COEFFICIENTS,
            params,
            &mut coded,
            &mut partial,
        );
        coded.iter().map(|c| c.to_bits()).collect()
    }

    /// The worker process computes through `AnyModel`, the worker thread
    /// through the bare model: the wrapper must hand on *every* `Model`
    /// method — the provided `for_each_partial` included, or the socket
    /// workers silently fall back to the unbatched default — and change
    /// no bit on the way.
    #[test]
    fn any_model_computes_the_bare_models_coded_gradient() {
        let mut rng = StdRng::seed_from_u64(16);
        let data = synthetic::linear_regression(42, 129, 0.1, &mut rng);
        let bare = LinearRegression::new(129);
        let params = bare.init_params(&mut rng);
        let built = ModelSpec::Linear { dim: 129 }.build(&data).unwrap();
        assert_eq!(coded(&built, &data, &params), coded(&bare, &data, &params));

        let data = synthetic::gaussian_blobs(42, 5, 3, 2.0, &mut rng);
        let bare = SoftmaxRegression::new(5, 3);
        let params = bare.init_params(&mut rng);
        let built = ModelSpec::Softmax { dim: 5, classes: 3 }
            .build(&data)
            .unwrap();
        assert_eq!(coded(&built, &data, &params), coded(&bare, &data, &params));
    }

    /// Bit equality cannot tell a forwarded `for_each_partial` from the
    /// trait's default (the default is the definition). Their one
    /// observable difference can: `LinearRegression` validates every
    /// range before it predicts any, the default validates as it goes —
    /// so behind a forwarding wrapper a bad *last* range panics before
    /// the first visit.
    #[test]
    fn any_model_forwards_for_each_partial() {
        let mut rng = StdRng::seed_from_u64(17);
        let data = synthetic::linear_regression(8, 3, 0.1, &mut rng);
        let built = ModelSpec::Linear { dim: 3 }.build(&data).unwrap();
        let mut visits = 0;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            built.for_each_partial(&[0.0; 4], &data, &[(0, 2), (2, 4), (4, 99)], &mut |_, _| {
                visits += 1;
            });
        }));
        assert!(outcome.is_err(), "range (4, 99) is out of bounds");
        assert_eq!(
            visits, 0,
            "AnyModel fell back to the default for_each_partial"
        );
    }
}
