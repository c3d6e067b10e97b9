//! # hetgc-coding
//!
//! Gradient coding strategies for straggler-tolerant distributed gradient
//! descent, implementing **"Heterogeneity-aware Gradient Coding for
//! Straggler Tolerance"** (Wang et al., ICDCS 2019) from scratch:
//!
//! * [`heter_aware`] / [`heter_aware_from_support`] — Algorithm 1: the
//!   load-balanced, randomized coding construction that is optimal for
//!   accurately-estimated heterogeneous clusters (Theorem 5).
//! * [`group_based`] — Algorithms 2–3: the
//!   variant that decodes from *groups* (disjoint exact covers) so noisy
//!   throughput estimates don't force waiting for `m−s` workers.
//! * [`cyclic`] — the heterogeneity-blind baseline of Tandon et al. \[12\].
//! * [`naive`] — the uncoded BSP baseline.
//! * [`fractional_repetition`] — the repetition-code baseline (extension).
//!
//! plus the machinery they share: load-balanced allocation (Eq. 5,
//! [`Allocation`]), cyclic supports (Eq. 6, [`SupportMatrix`]), the
//! unified [`GradientCodec`] API ([`CompiledCodec`], [`CodecSession`],
//! [`DecodePlan`] — see the `codec` module) — one compiled codec with
//! two optional stages, an intact-group fast path
//! (`CompiledCodec::with_groups`) and bounded-error decoding past the
//! straggler budget ([`CompiledCodec::with_approx`]), picked by name via
//! [`CodecBackend::compile`] — and robustness verification
//! ([`verify_condition_c1`]).
//!
//! # Quick start
//!
//! ```
//! use hetgc_coding::{heter_aware, CompiledCodec, GradientCodec};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), hetgc_coding::CodingError> {
//! // A 5-worker cluster with throughputs 1..4 partitions/sec, tolerating
//! // one straggler over 7 data partitions (Example 1 of the paper).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng)?;
//! let codec = CompiledCodec::new(b);
//!
//! // Worker 2 dies; the master plans a decode over the other four.
//! let plan = codec.decode_plan(&[0, 1, 3, 4])?;
//! // a·B = 1 ⇒ Σ_w a_w·g̃_w = Σ_j g_j: the exact aggregated gradient.
//! let recovered = codec.code().matrix().vecmat(&plan.to_dense())?;
//! assert!(recovered.iter().all(|&x| (x - 1.0).abs() < 1e-9));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod approx;
mod backend;
mod block;
pub(crate) mod codec;
mod codec_approx;
mod codec_group;
mod cyclic;
mod decode;
mod error;
mod escalation;
mod fractional;
mod group;
mod heter_aware;
mod shared_cache;
mod strategy;
mod support;
mod verify;

pub use allocation::{suggest_partition_count, Allocation};
pub use approx::{
    approximate_decode, gradient_error_bound_l2, under_replicated, ApproximateDecode,
};
pub use backend::CodecBackend;
pub use block::{BufferPool, GradientBlock};
pub use codec::{CodecSession, CompiledCodec, DecodePlan, GradientCodec};
pub use cyclic::{cyclic, cyclic_support, naive};
pub use error::CodingError;
pub use escalation::{collect_round, EscalatingCodec, EscalationPolicy, RoundEnd};
pub use fractional::fractional_repetition;
pub use group::{find_all_groups, group_based, prune_groups, Group, GroupCodingMatrix};
pub use heter_aware::{heter_aware, heter_aware_from_support};
/// The data-plane kernels encode and decode run on, re-exported so that
/// `hetgc-ml` — which produces the gradients they consume and already
/// depends on this crate — shares them without an edge of its own to
/// `hetgc-linalg`.
pub use hetgc_linalg::kernels;
pub use shared_cache::SharedPlanCache;
pub use strategy::CodingMatrix;
pub use support::SupportMatrix;
pub use verify::{decodable_prefix_len, verify_condition_c1, verify_condition_c1_sampled};
