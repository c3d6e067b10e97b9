//! Fleet-level telemetry rollup for multi-job serving: one
//! [`JobTelemetry`] snapshot per finished (or still-running) job,
//! aggregated by [`FleetRollup`] into the numbers a scheduler's operator
//! cares about — total rounds, fleet escalation rate, makespan and job
//! throughput.
//!
//! Like the rest of this crate, the rollup knows *workers, rounds and
//! seconds* — not schemes, codecs or engines — so the scheduler layer can
//! feed it from any execution substrate.

use crate::hub::TelemetryHub;

/// A point-in-time summary of one job's telemetry, snapshot from the
/// job's [`TelemetryHub`] (plus the wall-clock and rebalance counters
/// only the scheduler knows).
#[derive(Debug, Clone, PartialEq)]
pub struct JobTelemetry {
    /// The job's identifier (matches `RoundRecord.job_id` in interleaved
    /// JSONL streams).
    pub job_id: String,
    /// Completed collect rounds.
    pub rounds: usize,
    /// Rounds whose decode carried a positive residual (the escalation
    /// ladder's approximate stage fired).
    pub escalated_rounds: usize,
    /// Valid per-worker samples ingested.
    pub samples_ingested: usize,
    /// Median of recent round-completion times, when any were observed.
    pub median_round_time: Option<f64>,
    /// 95th-percentile round-completion time, when observed.
    pub p95_round_time: Option<f64>,
    /// Wall-clock seconds from the job's admission to this snapshot.
    pub wall_seconds: f64,
    /// How many times the scheduler re-balanced (re-coded) this job's
    /// allocation while it ran.
    pub rebalances: usize,
}

impl JobTelemetry {
    /// Snapshots `hub` as job `job_id`'s summary. `wall_seconds` and
    /// `rebalances` come from the scheduler (the hub does not track
    /// wall-clock or allocation changes).
    pub fn from_hub(
        job_id: impl Into<String>,
        hub: &TelemetryHub,
        wall_seconds: f64,
        rebalances: usize,
    ) -> Self {
        JobTelemetry {
            job_id: job_id.into(),
            rounds: hub.rounds(),
            escalated_rounds: hub.escalated_rounds(),
            samples_ingested: hub.samples_ingested(),
            median_round_time: hub.round_quantile(0.5),
            p95_round_time: hub.round_quantile(0.95),
            wall_seconds,
            rebalances,
        }
    }

    /// Rounds per wall-clock second (0 when no time has elapsed).
    pub fn rounds_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.rounds as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Aggregates [`JobTelemetry`] snapshots across a fleet of concurrent
/// jobs into scheduler-level statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetRollup {
    jobs: Vec<JobTelemetry>,
}

impl FleetRollup {
    /// An empty rollup.
    pub fn new() -> Self {
        FleetRollup::default()
    }

    /// Absorbs one job's snapshot.
    pub fn absorb(&mut self, job: JobTelemetry) {
        self.jobs.push(job);
    }

    /// The absorbed per-job snapshots, in absorption order.
    pub fn jobs(&self) -> &[JobTelemetry] {
        &self.jobs
    }

    /// Completed rounds across every job.
    pub fn total_rounds(&self) -> usize {
        self.jobs.iter().map(|j| j.rounds).sum()
    }

    /// Escalated rounds across every job.
    pub fn total_escalated(&self) -> usize {
        self.jobs.iter().map(|j| j.escalated_rounds).sum()
    }

    /// Scheduler-level rebalances across every job.
    pub fn total_rebalances(&self) -> usize {
        self.jobs.iter().map(|j| j.rebalances).sum()
    }

    /// Fraction of all rounds that escalated (`0.0` with no rounds).
    pub fn escalation_rate(&self) -> f64 {
        let total = self.total_rounds();
        if total == 0 {
            0.0
        } else {
            self.total_escalated() as f64 / total as f64
        }
    }

    /// The longest per-job wall time — with jobs admitted together, the
    /// fleet's makespan.
    pub fn makespan(&self) -> f64 {
        self.jobs.iter().map(|j| j.wall_seconds).fold(0.0, f64::max)
    }

    /// Jobs completed per second of makespan — the end-to-end throughput
    /// a scheduler's bench compares against a sequential baseline (`0.0`
    /// with no jobs or no elapsed time).
    pub fn jobs_per_sec(&self) -> f64 {
        let makespan = self.makespan();
        if self.jobs.is_empty() || makespan <= 0.0 {
            0.0
        } else {
            self.jobs.len() as f64 / makespan
        }
    }

    /// The worst (largest) per-job p95 round time observed, if any job
    /// reported one — the fleet's tail-latency headline.
    pub fn worst_p95(&self) -> Option<f64> {
        self.jobs
            .iter()
            .filter_map(|j| j.p95_round_time)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// A one-line human summary (`jobs=… rounds=… esc=…% jobs/s=…`).
    pub fn summary(&self) -> String {
        format!(
            "jobs={} rounds={} esc={:.1}% rebalances={} makespan={:.3}s jobs/s={:.2}",
            self.jobs.len(),
            self.total_rounds(),
            100.0 * self.escalation_rate(),
            self.total_rebalances(),
            self.makespan(),
            self.jobs_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::RoundSample;

    fn hub_with_rounds(rounds: usize, escalated: usize) -> TelemetryHub {
        let mut hub = TelemetryHub::new(2, 0.5, 16);
        for i in 0..rounds {
            let residual = if i < escalated { 0.5 } else { 0.0 };
            hub.ingest(
                1.0 + i as f64,
                residual,
                &[RoundSample::completed(0, 4.0, 1.0, 1.0)],
            );
        }
        hub
    }

    #[test]
    fn job_snapshot_mirrors_hub() {
        let hub = hub_with_rounds(4, 1);
        let job = JobTelemetry::from_hub("job-a", &hub, 2.0, 1);
        assert_eq!(job.rounds, 4);
        assert_eq!(job.escalated_rounds, 1);
        assert_eq!(job.samples_ingested, 4);
        assert_eq!(job.rebalances, 1);
        assert!(job.median_round_time.is_some());
        assert_eq!(job.rounds_per_sec(), 2.0);
        // Zero elapsed never divides by zero.
        let frozen = JobTelemetry::from_hub("z", &hub, 0.0, 0);
        assert_eq!(frozen.rounds_per_sec(), 0.0);
    }

    #[test]
    fn rollup_aggregates_across_jobs() {
        let mut fleet = FleetRollup::new();
        fleet.absorb(JobTelemetry::from_hub("a", &hub_with_rounds(4, 1), 2.0, 0));
        fleet.absorb(JobTelemetry::from_hub("b", &hub_with_rounds(6, 0), 3.0, 2));
        assert_eq!(fleet.jobs().len(), 2);
        assert_eq!(fleet.total_rounds(), 10);
        assert_eq!(fleet.total_escalated(), 1);
        assert_eq!(fleet.total_rebalances(), 2);
        assert!((fleet.escalation_rate() - 0.1).abs() < 1e-12);
        assert_eq!(fleet.makespan(), 3.0);
        // 2 jobs over a 3 s makespan.
        assert!((fleet.jobs_per_sec() - 2.0 / 3.0).abs() < 1e-12);
        assert!(fleet.worst_p95().is_some());
        let s = fleet.summary();
        assert!(s.contains("jobs=2"), "{s}");
        assert!(s.contains("rounds=10"), "{s}");
    }

    #[test]
    fn empty_rollup_is_inert() {
        let fleet = FleetRollup::new();
        assert_eq!(fleet.total_rounds(), 0);
        assert_eq!(fleet.escalation_rate(), 0.0);
        assert_eq!(fleet.jobs_per_sec(), 0.0);
        assert_eq!(fleet.makespan(), 0.0);
        assert!(fleet.worst_p95().is_none());
    }
}
