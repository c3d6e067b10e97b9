//! The paper's Fig. 5 metric.

use serde::{Deserialize, Serialize};

/// The paper's Fig. 5 metric for one scheme over a run:
/// `resource usage = Σ_iter Σ_w computing_time / Σ_iter Σ_w total_time`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Total useful compute seconds across workers and iterations.
    pub(crate) compute_seconds: f64,
    /// Total wall-clock worker-seconds (m × Σ iteration times).
    pub(crate) total_seconds: f64,
}

impl ResourceUsage {
    /// Adds one completed iteration: wall time `t`, total worker
    /// compute-busy seconds, and worker count.
    pub fn record(&mut self, t: f64, compute_seconds: f64, workers: usize) {
        self.compute_seconds += compute_seconds;
        self.total_seconds += t * workers as f64;
    }

    /// The usage ratio in `[0, 1]`, or `None` when nothing ran.
    pub fn ratio(&self) -> Option<f64> {
        if self.total_seconds > 0.0 {
            Some(self.compute_seconds / self.total_seconds)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics() {
        assert_eq!(ResourceUsage::default().ratio(), None);
    }

    #[test]
    fn resource_usage_ratio() {
        let mut m = ResourceUsage::default();
        // 2 workers, iteration of 4s, only 4 compute-seconds used of 8.
        m.record(4.0, 4.0, 2);
        assert_eq!(m.ratio().unwrap(), 0.5);
    }

    #[test]
    fn record_from_iteration() {
        use crate::bsp::{Arrival, BspIteration};
        let it = BspIteration {
            completion: Some(2.0),
            arrivals: vec![Arrival {
                worker: 0,
                compute_end: 2.0,
                arrive: 2.0,
            }],
            plan: hetgc_coding::DecodePlan::from_dense(&[1.0]),
            absorbed: 1,
            busy: vec![2.0, 1.0],
        };
        let mut m = ResourceUsage::default();
        m.record(it.completion.unwrap(), it.busy.iter().sum(), it.busy.len());
        assert_eq!(m.ratio().unwrap(), 0.75);
        assert_eq!(m.ratio(), it.resource_usage());
    }
}
