//! Analytic network model: fixed latency plus bandwidth-limited transfer.
//!
//! The paper's resource-usage discussion (Fig. 5) attributes the remaining
//! idle time of its best schemes to communication overhead; reproducing
//! that figure's shape requires gradients to spend a realistic, worker-
//! independent amount of time on the wire.

use serde::{Deserialize, Serialize};

/// Latency + bandwidth network model.
///
/// Transfer time of a `bytes`-sized message is
/// `latency + bytes / bandwidth`. One instance describes the worker→master
/// direction; the master→worker broadcast of parameters reuses the same
/// model in the experiment harness.
///
/// # Example
///
/// ```
/// use hetgc_sim::NetworkModel;
///
/// let net = NetworkModel::lan(); // 0.5 ms, 1.25e8 B/s
/// assert!((net.transfer_time(4e6) - 0.0325).abs() < 1e-12); // 4 MB → 32.5 ms
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    latency: f64,
    bandwidth: f64,
}

impl NetworkModel {
    /// A network with the given one-way latency (seconds) and bandwidth
    /// (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if `latency < 0` or `bandwidth <= 0`.
    pub(crate) fn new(latency: f64, bandwidth: f64) -> Self {
        assert!(
            latency >= 0.0 && latency.is_finite(),
            "latency must be non-negative"
        );
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "bandwidth must be positive"
        );
        NetworkModel { latency, bandwidth }
    }

    /// An instantaneous network (pure computation studies): zero latency,
    /// infinite bandwidth, so [`NetworkModel::transfer_time`] is exactly 0.
    pub fn instantaneous() -> Self {
        NetworkModel {
            latency: 0.0,
            bandwidth: f64::INFINITY,
        }
    }

    /// A LAN-ish default: 0.5 ms latency, 1 Gbit/s ≈ 1.25e8 B/s — in the
    /// ballpark of the paper's QingCloud VMs.
    pub fn lan() -> Self {
        NetworkModel::new(5e-4, 1.25e8)
    }

    /// Time (seconds) to deliver a message of `bytes` bytes.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

impl Default for NetworkModel {
    /// [`NetworkModel::lan`].
    fn default() -> Self {
        NetworkModel::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_formula() {
        let n = NetworkModel::new(0.01, 100.0);
        assert!((n.transfer_time(50.0) - 0.51).abs() < 1e-12);
        assert_eq!(n.latency, 0.01);
    }

    #[test]
    fn instantaneous_is_free() {
        let n = NetworkModel::instantaneous();
        assert_eq!(n.transfer_time(1e12), 0.0);
    }

    #[test]
    fn lan_is_sane() {
        let n = NetworkModel::lan();
        // A 4 MB gradient takes ~32 ms on gigabit.
        let t = n.transfer_time(4e6);
        assert!(t > 0.01 && t < 0.1, "{t}");
    }

    #[test]
    fn default_is_lan() {
        assert_eq!(NetworkModel::default(), NetworkModel::lan());
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        NetworkModel::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn negative_latency_rejected() {
        NetworkModel::new(-1.0, 1.0);
    }
}
