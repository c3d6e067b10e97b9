//! In-memory datasets.

use serde::{Deserialize, Serialize};

/// Training targets: real-valued (regression) or class labels
/// (classification).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Targets {
    /// One real target per sample.
    Regression(Vec<f64>),
    /// One class index per sample, each `< num_classes`.
    Classes {
        /// Per-sample class indices.
        labels: Vec<usize>,
        /// Number of distinct classes.
        num_classes: usize,
    },
}

impl Targets {
    /// Number of samples covered by the targets.
    pub fn len(&self) -> usize {
        match self {
            Targets::Regression(v) => v.len(),
            Targets::Classes { labels, .. } => labels.len(),
        }
    }

    /// Returns `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A dense dataset: `n` samples of `d` features, row-major.
///
/// # Example
///
/// ```
/// use hetgc_ml::{Dataset, Targets};
///
/// let data = Dataset::new(
///     vec![1.0, 2.0, 3.0, 4.0], // 2 samples × 2 features
///     Targets::Regression(vec![5.0, 6.0]),
///     2,
/// );
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.features_of(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    x: Vec<f64>,
    targets: Targets,
    dim: usize,
}

impl Dataset {
    /// Builds a dataset from row-major features and targets.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `dim`, the sample counts of
    /// features and targets disagree, or a class label is out of range.
    pub fn new(x: Vec<f64>, targets: Targets, dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert_eq!(x.len() % dim, 0, "features not a multiple of dim");
        let n = x.len() / dim;
        assert_eq!(n, targets.len(), "feature/target sample count mismatch");
        if let Targets::Classes {
            labels,
            num_classes,
        } = &targets
        {
            assert!(
                labels.iter().all(|&l| l < *num_classes),
                "class label out of range"
            );
        }
        Dataset { x, targets, dim }
    }

    /// Number of samples `n`.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` for an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The feature row of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn features_of(&self, i: usize) -> &[f64] {
        assert!(i < self.len(), "sample {i} out of range");
        &self.x[i * self.dim..(i + 1) * self.dim]
    }

    /// The targets.
    pub fn targets(&self) -> &Targets {
        &self.targets
    }

    /// Regression target of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics for classification datasets or out-of-range `i`.
    pub fn regression_target(&self, i: usize) -> f64 {
        match &self.targets {
            Targets::Regression(v) => v[i],
            Targets::Classes { .. } => panic!("dataset has class targets, not regression"),
        }
    }

    /// Class label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics for regression datasets or out-of-range `i`.
    pub(crate) fn class_of(&self, i: usize) -> usize {
        match &self.targets {
            Targets::Classes { labels, .. } => labels[i],
            Targets::Regression(_) => panic!("dataset has regression targets, not classes"),
        }
    }

    /// Number of classes, or `None` for regression data.
    pub fn num_classes(&self) -> Option<usize> {
        match &self.targets {
            Targets::Classes { num_classes, .. } => Some(*num_classes),
            Targets::Regression(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg2() -> Dataset {
        Dataset::new(
            vec![1.0, 2.0, 3.0, 4.0],
            Targets::Regression(vec![5.0, 6.0]),
            2,
        )
    }

    #[test]
    fn accessors() {
        let d = reg2();
        assert_eq!(d.len(), 2);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.features_of(0), &[1.0, 2.0]);
        assert_eq!(d.regression_target(1), 6.0);
        assert_eq!(d.num_classes(), None);
    }

    #[test]
    fn classification_dataset() {
        let d = Dataset::new(
            vec![0.0, 1.0, 2.0],
            Targets::Classes {
                labels: vec![0, 2, 1],
                num_classes: 3,
            },
            1,
        );
        assert_eq!(d.class_of(1), 2);
        assert_eq!(d.num_classes(), Some(3));
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn ragged_features_rejected() {
        Dataset::new(vec![1.0, 2.0, 3.0], Targets::Regression(vec![0.0]), 2);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn count_mismatch_rejected() {
        Dataset::new(vec![1.0, 2.0], Targets::Regression(vec![0.0, 1.0]), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_rejected() {
        Dataset::new(
            vec![1.0],
            Targets::Classes {
                labels: vec![5],
                num_classes: 3,
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "class targets")]
    fn regression_target_on_classes_panics() {
        let d = Dataset::new(
            vec![1.0],
            Targets::Classes {
                labels: vec![0],
                num_classes: 1,
            },
            1,
        );
        d.regression_target(0);
    }

    #[test]
    fn targets_len() {
        assert_eq!(Targets::Regression(vec![1.0, 2.0]).len(), 2);
        assert!(Targets::Regression(vec![]).is_empty());
    }
}
