//! [`SocketEngine`]: a [`SocketCluster`] behind `hetgc`'s one cluster
//! engine, so `hetgc::TrainDriver` and `hetgc::PipelinedDriver` run over
//! real TCP with **no call-site changes** — swap the engine, keep the
//! loop.
//!
//! Two telemetry upgrades fall out of the real transport: each
//! `RoundSample` carries the *measured* master-side arrival time (an
//! in-process transport can only approximate arrival by compute end), and
//! each round reports the real `bytes_sent` / `bytes_received` moved over
//! the wire.

use std::ops::{Deref, DerefMut};

use hetgc::{ClusterEngine, EngineRound, PipelinedEngine, RoundEngine, SchemeKind};
use hetgc_ml::Model;
use hetgc_obs::Recorder;
use rand::RngCore;

use crate::cluster::SocketCluster;

/// The driver traits' error type (structurally `hetgc`'s `BoxError`,
/// which is not re-exported).
type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// The TCP data plane as a driver engine. Construct a
/// [`SocketCluster`], wrap it, hand it to the driver. Everything but the
/// constructor lives on the [`ClusterEngine`] this derefs and forwards
/// to.
#[derive(Debug)]
pub struct SocketEngine<M>(ClusterEngine<SocketCluster<M>>);

impl<M> SocketEngine<M> {
    /// Wraps a started cluster (label `"socket"`).
    pub fn new(cluster: SocketCluster<M>) -> Self {
        SocketEngine(ClusterEngine::over(cluster, "socket"))
    }

    /// Enables live re-coding: on [`RoundEngine::recode`] the engine
    /// rebuilds a `kind` scheme tolerating `stragglers` stragglers from
    /// the fresh estimates of the **surviving** workers and re-rows the
    /// live connections around it.
    pub fn with_recoding(self, kind: SchemeKind, stragglers: usize) -> Self {
        SocketEngine(self.0.with_recoding(kind, stragglers))
    }
}

impl<M> Deref for SocketEngine<M> {
    type Target = ClusterEngine<SocketCluster<M>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<M> DerefMut for SocketEngine<M> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<M: Model> RoundEngine for SocketEngine<M> {
    fn workers(&self) -> usize {
        self.0.workers()
    }

    fn partitions(&self) -> usize {
        self.0.partitions()
    }

    fn label(&self) -> &str {
        self.0.label()
    }

    fn round(
        &mut self,
        round: usize,
        params: &[f64],
        rng: &mut dyn RngCore,
    ) -> Result<EngineRound, BoxError> {
        self.0.round(round, params, rng)
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.0.attach_recorder(recorder);
    }

    fn set_deadline(&mut self, deadline: f64) {
        self.0.set_deadline(deadline);
    }

    fn supports_recode(&self) -> bool {
        self.0.supports_recode()
    }

    fn recode(&mut self, estimates: &[f64], rng: &mut dyn RngCore) -> Result<bool, BoxError> {
        self.0.recode(estimates, rng)
    }
}

impl<M: Model> PipelinedEngine for SocketEngine<M> {
    fn dispatch(&mut self, round: usize, params: &[f64]) -> Result<(), BoxError> {
        self.0.dispatch(round, params)
    }

    fn collect(&mut self, round: usize) -> Result<EngineRound, BoxError> {
        self.0.collect(round)
    }
}
