//! Backend selection: one enum to pick, one enum to hold, any of the
//! [`GradientCodec`] implementations.
//!
//! Three backends share the trait:
//!
//! | Backend | Decode behaviour | Use when |
//! |---------|------------------|----------|
//! | [`CompiledCodec`] | exact, generic `m−s` survivor solves | the default |
//! | [`crate::GroupCodec`] | exact, short-circuits on intact groups | scheme has groups (Algs. 2–3) |
//! | [`crate::ApproxCodec`] | exact, least-squares past the budget | `>s` stragglers possible |
//!
//! [`CodecBackend`] names them for configuration surfaces (trainers,
//! simulator drivers, the threaded runtime); [`AnyCodec`] is the erased
//! value consumers hold so one code path serves all three without
//! generics or boxing.

use crate::block::GradientBlock;
use crate::codec::{CodecSession, CompiledCodec, DecodePlan, GradientCodec};
use crate::codec_approx::ApproxCodec;
use crate::codec_group::GroupCodec;
use crate::error::CodingError;

/// Which codec backend a consumer should compile its strategy into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CodecBackend {
    /// Pick per scheme: group-aware for group-based strategies, exact
    /// otherwise.
    #[default]
    Auto,
    /// The generic exact backend ([`CompiledCodec`]).
    Exact,
    /// The group-aware exact backend ([`crate::GroupCodec`]).
    Group,
    /// The bounded-error backend ([`crate::ApproxCodec`]).
    Approx,
}

impl CodecBackend {
    /// Short display name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            CodecBackend::Auto => "auto",
            CodecBackend::Exact => "exact",
            CodecBackend::Group => "group",
            CodecBackend::Approx => "approx",
        }
    }
}

impl std::fmt::Display for CodecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A value-erased codec: any backend behind one concrete type, so
/// trainers and executors can switch backends at runtime without generic
/// plumbing.
#[derive(Debug, Clone)]
pub enum AnyCodec {
    /// The generic exact backend.
    Exact(CompiledCodec),
    /// The group-aware backend.
    Group(GroupCodec),
    /// The bounded-error backend.
    Approx(ApproxCodec),
}

impl AnyCodec {
    /// Which backend this is (never [`CodecBackend::Auto`]).
    pub fn backend(&self) -> CodecBackend {
        match self {
            AnyCodec::Exact(_) => CodecBackend::Exact,
            AnyCodec::Group(_) => CodecBackend::Group,
            AnyCodec::Approx(_) => CodecBackend::Approx,
        }
    }

    /// The underlying [`CompiledCodec`] every backend wraps — for CSR
    /// support/coefficient lookups shared by all of them.
    pub fn as_compiled(&self) -> &CompiledCodec {
        match self {
            AnyCodec::Exact(c) => c,
            AnyCodec::Group(c) => c.inner(),
            AnyCodec::Approx(c) => c.inner(),
        }
    }

    /// Attaches the fleet-wide plan cache to whichever backend this is
    /// (see `CompiledCodec::attach_shared_plans`): exact solves — and,
    /// for the approximate backend, ridge solves — route through the
    /// shared map from now on.
    pub fn attach_shared_plans(&mut self, cache: std::sync::Arc<crate::SharedPlanCache>) {
        match self {
            AnyCodec::Exact(c) => c.attach_shared_plans(cache),
            AnyCodec::Group(c) => c.attach_shared_plans(cache),
            AnyCodec::Approx(c) => c.attach_shared_plans(cache),
        }
    }

    /// Reports whichever backend this is into `metrics` (see
    /// `CompiledCodec::attach_metrics`): cache probes, dense/ridge
    /// solves, and plan-solve spans all land on the same handles.
    pub fn attach_metrics(&mut self, metrics: hetgc_obs::CodecMetrics) {
        match self {
            AnyCodec::Exact(c) => c.attach_metrics(metrics),
            AnyCodec::Group(c) => c.attach_metrics(metrics),
            AnyCodec::Approx(c) => c.attach_metrics(metrics),
        }
    }

    /// The attached metric bundle, if any.
    pub fn metrics(&self) -> Option<&hetgc_obs::CodecMetrics> {
        self.as_compiled().metrics()
    }

    /// The attached fleet-wide plan cache, if any.
    pub fn shared_plans(&self) -> Option<&std::sync::Arc<crate::SharedPlanCache>> {
        self.as_compiled().shared_plans()
    }
}

impl From<CompiledCodec> for AnyCodec {
    fn from(c: CompiledCodec) -> Self {
        AnyCodec::Exact(c)
    }
}

impl From<GroupCodec> for AnyCodec {
    fn from(c: GroupCodec) -> Self {
        AnyCodec::Group(c)
    }
}

impl From<ApproxCodec> for AnyCodec {
    fn from(c: ApproxCodec) -> Self {
        AnyCodec::Approx(c)
    }
}

impl GradientCodec for AnyCodec {
    fn workers(&self) -> usize {
        self.as_compiled().workers()
    }

    fn partitions(&self) -> usize {
        self.as_compiled().partitions()
    }

    fn stragglers(&self) -> usize {
        self.as_compiled().stragglers()
    }

    fn load_of(&self, worker: usize) -> usize {
        self.as_compiled().load_of(worker)
    }

    fn encode_into<E: hetgc_linalg::Element>(
        &self,
        worker: usize,
        partials: &GradientBlock<E>,
        out: &mut [E],
    ) -> Result<(), CodingError> {
        self.as_compiled().encode_into(worker, partials, out)
    }

    fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        match self {
            AnyCodec::Exact(c) => c.decode_plan(survivors),
            AnyCodec::Group(c) => c.decode_plan(survivors),
            AnyCodec::Approx(c) => c.decode_plan(survivors),
        }
    }

    fn session(&self) -> CodecSession {
        match self {
            AnyCodec::Exact(c) => c.session(),
            AnyCodec::Group(c) => c.session(),
            AnyCodec::Approx(c) => c.session(),
        }
    }

    fn fallback_plan(&self, survivors: &[usize]) -> Option<DecodePlan> {
        match self {
            AnyCodec::Exact(c) => c.fallback_plan(survivors),
            AnyCodec::Group(c) => c.fallback_plan(survivors),
            AnyCodec::Approx(c) => c.fallback_plan(survivors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_based;
    use crate::heter_aware::heter_aware;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names_and_default() {
        assert_eq!(CodecBackend::default(), CodecBackend::Auto);
        assert_eq!(CodecBackend::Group.name(), "group");
        assert_eq!(format!("{}", CodecBackend::Approx), "approx");
    }

    #[test]
    fn delegation_is_transparent() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let exact = AnyCodec::from(CompiledCodec::new(b.clone()));
        assert_eq!(exact.backend(), CodecBackend::Exact);
        assert_eq!(exact.workers(), 5);
        assert_eq!(exact.partitions(), 7);
        assert_eq!(exact.stragglers(), 1);
        assert_eq!(exact.load_of(0), b.load_of(0));
        let partials: Vec<Vec<f64>> = (0..7).map(|j| vec![j as f64, 1.0]).collect();
        let block = GradientBlock::from_rows(&partials).unwrap();
        let mut coded = [f64::NAN; 2];
        exact.encode_into(2, &block, &mut coded).unwrap();
        assert_eq!(coded.as_slice(), b.encode(2, &partials).unwrap());
        let plan = exact.decode_plan(&[0, 1, 3, 4]).unwrap();
        assert_eq!(
            plan,
            CompiledCodec::new(b.clone())
                .decode_plan(&[0, 1, 3, 4])
                .unwrap()
        );
        assert!(
            exact.fallback_plan(&[0, 1]).is_none(),
            "exact has no fallback"
        );
    }

    #[test]
    fn group_and_approx_variants_route() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = group_based(&[1.0; 4], 4, 1, &mut rng).unwrap();
        let grouped = AnyCodec::from(g.compile().unwrap());
        assert_eq!(grouped.backend(), CodecBackend::Group);
        let plan = grouped.decode_plan(&[0, 1, 2, 3]).unwrap();
        assert_eq!(plan.coefficients().iter().product::<f64>(), 1.0);

        let mut rng = StdRng::seed_from_u64(5);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let approx = AnyCodec::from(ApproxCodec::new(b).with_max_residual(3.0));
        assert_eq!(approx.backend(), CodecBackend::Approx);
        assert!(approx.fallback_plan(&[0, 1, 3]).is_some());
    }
}
