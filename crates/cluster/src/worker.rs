use serde::{Deserialize, Serialize};

/// Static description of one worker node.
///
/// The paper's clusters are QingCloud "performance type" VMs whose relevant
/// property is the vCPU count; gradient throughput is modelled as
/// proportional to vCPUs (`throughput = vcpus × per_core_rate`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    vcpus: u32,
}

impl WorkerSpec {
    /// A worker with the given vCPU count and nominal speed.
    ///
    /// # Panics
    ///
    /// Panics if `vcpus == 0`.
    pub(crate) fn new(vcpus: u32) -> Self {
        assert!(vcpus > 0, "a worker needs at least one vCPU");
        WorkerSpec { vcpus }
    }

    /// The vCPU count.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// Gradient throughput in work-units per second given a per-core rate.
    ///
    /// The unit of "work" is defined by the consumer: the simulator uses
    /// samples/second, the coding layer partitions/second. Only ratios
    /// between workers matter to the schemes.
    pub(crate) fn throughput(&self, per_core_rate: f64) -> f64 {
        f64::from(self.vcpus) * per_core_rate
    }
}

impl Default for WorkerSpec {
    /// A 1-vCPU nominal worker.
    fn default() -> Self {
        WorkerSpec::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_throughput_proportional_to_vcpus() {
        let w2 = WorkerSpec::new(2);
        let w8 = WorkerSpec::new(8);
        assert_eq!(w8.throughput(1.5) / w2.throughput(1.5), 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one vCPU")]
    fn zero_vcpus_rejected() {
        WorkerSpec::new(0);
    }

    #[test]
    fn default_is_one_core() {
        assert_eq!(WorkerSpec::default().vcpus(), 1);
    }
}
