//! Backend selection: one enum names which stages of the one compiled
//! codec a consumer wants, one function builds it.
//!
//! | [`CodecBackend`] | Stages on [`CompiledCodec`] | Decode behaviour |
//! |------------------|-----------------------------|------------------|
//! | `Exact` | none | exact, generic `m−s` survivor solves |
//! | `Group` / `Auto` | [`CompiledCodec::with_groups`] | exact, short-circuits on intact groups (Algs. 2–3) |
//! | `Approx` | [`CompiledCodec::with_approx`] | exact, least-squares past the budget |
//!
//! [`CodecBackend`] names them for configuration surfaces (trainers,
//! simulator drivers, the wall-clock master); [`CodecBackend::compile`] is
//! the one place a name becomes a codec. The backend alone decides whether
//! a round may escalate: only `Approx` has the fallback, and an
//! [`EscalationPolicy`](crate::EscalationPolicy) budget replaces its
//! default without ever switching the stage on.

use crate::codec::CompiledCodec;
use crate::codec_group::derive_groups;
use crate::error::CodingError;
use crate::group::Group;
use crate::strategy::CodingMatrix;

/// Which stages a consumer wants on its [`CompiledCodec`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CodecBackend {
    /// The intact-group stage over whatever groups there are — like
    /// [`CodecBackend::Group`], except that a matrix whose groups cannot
    /// be derived degrades to the plain exact codec instead of failing.
    #[default]
    Auto,
    /// No stage: the generic exact codec.
    Exact,
    /// The intact-group stage ([`CompiledCodec::with_groups`]).
    Group,
    /// The bounded-error stage ([`CompiledCodec::with_approx`]) under its
    /// default residual budget, which an
    /// [`EscalationPolicy`](crate::EscalationPolicy) budget replaces. The
    /// only backend whose rounds escalate.
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

    /// Compiles `code` with the stages this backend names. `known_groups`
    /// are the groups the caller already holds for `code` (a scheme
    /// builder's own, possibly none); a caller holding only the matrix
    /// passes `None` and the group stage derives them from the support
    /// structure (Alg. 2 plus pruning). The two sources need not agree —
    /// derivation finds the trivial all-workers group of an uncoded
    /// matrix, which no scheme builder records — so the source is the
    /// caller's choice, not the resolver's. An empty group list leaves the
    /// codec answering exactly like [`CodecBackend::Exact`].
    ///
    /// # Errors
    ///
    /// The validation of [`CompiledCodec::with_groups`] (never fails for
    /// groups a scheme builder or the derivation produced), and — for
    /// [`CodecBackend::Group`] only — a failed derivation;
    /// [`CodecBackend::Auto`] degrades to the exact codec there.
    pub fn compile(
        self,
        code: CodingMatrix,
        known_groups: Option<&[Group]>,
    ) -> Result<CompiledCodec, CodingError> {
        match self {
            CodecBackend::Exact => Ok(CompiledCodec::new(code)),
            CodecBackend::Approx => Ok(CompiledCodec::new(code).with_approx(None)),
            CodecBackend::Auto | CodecBackend::Group => {
                let groups = match known_groups {
                    Some(groups) => groups.to_vec(),
                    None => match derive_groups(&code) {
                        Ok(groups) => groups,
                        Err(e) if self == CodecBackend::Group => return Err(e),
                        Err(_) => Vec::new(),
                    },
                };
                CompiledCodec::new(code).with_groups(groups)
            }
        }
    }
}

impl std::fmt::Display for CodecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::GradientCodec;
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
    fn group_and_approx_variants_route() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = group_based(&[1.0; 4], 4, 1, &mut rng).unwrap();
        for groups in [Some(g.groups()), None] {
            let grouped = CodecBackend::Group
                .compile(g.code().clone(), groups)
                .unwrap();
            assert_eq!(grouped.groups(), g.compile().unwrap().groups());
            assert_eq!(grouped.max_residual(), None);
            let plan = grouped.decode_plan(&[0, 1, 2, 3]).unwrap();
            assert_eq!(plan.coefficients().iter().product::<f64>(), 1.0);
        }
        // Known groups are taken at the caller's word, none included.
        let bare = CodecBackend::Auto
            .compile(g.code().clone(), Some(&[]))
            .unwrap();
        assert!(bare.groups().is_empty());

        let mut rng = StdRng::seed_from_u64(5);
        let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
        let exact = CodecBackend::Exact.compile(b.clone(), None).unwrap();
        assert!(exact.groups().is_empty() && exact.max_residual().is_none());
        assert!(
            exact.fallback_plan(&[0, 1]).is_none(),
            "exact has no fallback"
        );
        let approx = CodecBackend::Approx.compile(b, None).unwrap();
        assert!(approx.groups().is_empty());
        assert!(approx
            .with_approx(Some(3.0))
            .fallback_plan(&[0, 1, 3])
            .is_some());
    }
}
