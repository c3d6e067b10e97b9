//! The unified `GradientCodec` API: one trait for the paper's whole
//! encode → collect → earliest-decodable-prefix cycle, with precompiled
//! sparse plans on the per-iteration hot path.
//!
//! # Mapping to the paper (§III)
//!
//! | Type | Paper object |
//! |------|--------------|
//! | [`GradientCodec::encode_into`] | `g̃_w = b_w · [g_1 … g_k]ᵀ` (Eq. 1), restricted to `supp(b_w)` |
//! | [`DecodePlan`] | one row `a_i` of the decoding matrix `A` (Eq. 2), stored sparsely |
//! | [`GradientCodec::decode_plan`] | the realtime `O(mk²)` decode-vector solve of §III-B |
//! | [`CodecSession`] | the master's earliest-decodable-prefix loop (`T(B, S)` of §III-C) |
//! | [`CompiledCodec`]'s plan cache | §III-B's hybrid storage: "A could be partially stored … for regular stragglers", realtime solves otherwise |
//! | `CompiledCodec::with_groups` | Algs. 2–3: an intact group's indicator row `a` already satisfies `aB = 1` |
//! | [`CompiledCodec::with_approx`] | past the budget `s`: one more row solve over the same `B`, least-squares instead of exact |
//!
//! # Why compile?
//!
//! A [`CodingMatrix`] answers structural questions (`supp(b_w)`, loads) by
//! scanning dense rows and solves every decode from scratch. Those costs
//! sit on the *per-iteration* critical path of every trainer, simulator
//! and experiment driver in this workspace. [`CompiledCodec`] pays them
//! once:
//!
//! * per-worker supports and coefficients are flattened into CSR-style
//!   arrays ([`CompiledCodec::support_of`] / [`CompiledCodec::coefficients_of`]
//!   are `O(1)` slice lookups, no allocation);
//! * decode plans are memoized in an LRU cache keyed by the sorted
//!   survivor set, so a persistently slow VM costs one solve, ever;
//! * [`CodecSession`] eliminates over the nonzeros of the rows only and
//!   is reusable across iterations via [`CodecSession::reset`] — its
//!   basis/combination arenas are pooled, so steady-state training
//!   allocates nothing to stream-decode a round.
//!
//! # Quick start
//!
//! ```
//! use hetgc_coding::{heter_aware, CompiledCodec, GradientCodec};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), hetgc_coding::CodingError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let b = heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng)?;
//! let codec = CompiledCodec::new(b);
//!
//! // Worker 2 straggles: plan a decode over the other four (cached for
//! // the next time the same survivor set shows up).
//! let plan = codec.decode_plan(&[0, 1, 3, 4])?;
//! assert!(plan.workers().iter().all(|&w| w != 2));
//!
//! // Stream a round: feed arrivals, decode at the earliest prefix.
//! let mut session = codec.session();
//! assert!(session.push(4)?.is_none());
//! assert!(session.push(0)?.is_none());
//! assert!(session.push(3)?.is_none());
//! let plan = session.push(1)?.expect("m − s arrivals decode");
//! assert_eq!(plan.to_dense().len(), 5);
//! session.reset(); // next iteration, no reallocation
//! # Ok(())
//! # }
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hetgc_linalg::{kernels, solve_any, DEFAULT_TOLERANCE};
use hetgc_obs::{CodecMetrics, Phase};

use crate::approx::approximate_decode;
use crate::block::{BufferPool, GradientBlock};
use crate::codec_approx::ApproxStage;
use crate::codec_group::{GroupIndex, GroupTracker};
use crate::error::CodingError;
use crate::shared_cache::{PlanClass, SharedPlanCache};
use crate::strategy::CodingMatrix;

/// Default number of survivor patterns a [`CompiledCodec`] remembers.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

// ---------------------------------------------------------------- plans

/// A sparse decode vector: the non-zero entries of a row `a` of the
/// decoding matrix `A` (Eq. 2), i.e. `g = Σ_w a_w · g̃_w` over
/// [`DecodePlan::workers`].
///
/// Exact plans (`a·B = 1` to numerical precision) carry a
/// [`DecodePlan::residual`] of zero; approximate plans (produced by the
/// approximate stage past the straggler budget) record
/// `‖aᵀB_I − 1‖₂`, which bounds the gradient error.
#[derive(Debug, PartialEq)]
pub struct DecodePlan {
    /// Workers with non-zero weight, ascending.
    workers: Vec<usize>,
    /// Weights aligned with `workers`.
    coefficients: Vec<f64>,
    /// Total worker count `m` (for densification).
    total_workers: usize,
    /// `‖aᵀB_I − 1‖₂` of the plan: `0.0` for exact decodes.
    residual: f64,
}

impl Clone for DecodePlan {
    fn clone(&self) -> Self {
        DecodePlan {
            workers: self.workers.clone(),
            coefficients: self.coefficients.clone(),
            total_workers: self.total_workers,
            residual: self.residual,
        }
    }

    /// Capacity-reusing clone: the pooled plan slots of [`CodecSession`]
    /// refresh in place instead of reallocating every round.
    fn clone_from(&mut self, source: &Self) {
        self.workers.clone_from(&source.workers);
        self.coefficients.clone_from(&source.coefficients);
        self.total_workers = source.total_workers;
        self.residual = source.residual;
    }
}

impl DecodePlan {
    /// Builds an exact plan from a dense decode vector, dropping exact
    /// zeros.
    pub fn from_dense(a: &[f64]) -> Self {
        DecodePlan::from_dense_with_residual(a, 0.0)
    }

    /// Builds a plan from a dense decode vector together with its decode
    /// residual `‖aᵀB_I − 1‖₂` (pass `0.0` for exact decodes).
    pub fn from_dense_with_residual(a: &[f64], residual: f64) -> Self {
        let mut workers = Vec::new();
        let mut coefficients = Vec::new();
        for (w, &coef) in a.iter().enumerate() {
            if coef != 0.0 {
                workers.push(w);
                coefficients.push(coef);
            }
        }
        DecodePlan {
            workers,
            coefficients,
            total_workers: a.len(),
            residual,
        }
    }

    /// The decode residual `‖aᵀB_I − 1‖₂`: zero for exact plans, positive
    /// for approximate ones. The rigorous gradient-error bound is
    /// `residual · ‖(‖g_1‖, …, ‖g_k‖)‖₂` — pass it with the per-partition
    /// gradient norms to `gradient_error_bound_l2`.
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Whether this plan decodes the exact aggregated gradient (residual
    /// below the standard `1e-6` tolerance). Note this is a *numerical*
    /// classification: a plan produced by the approximate fallback can
    /// carry a negligible-but-positive residual and still be "exact" here,
    /// while the `approx_iterations` counters in the trainers count every
    /// fallback-decoded round regardless.
    pub fn is_exact(&self) -> bool {
        self.residual < 1e-6
    }

    /// Workers whose coded gradients the plan consumes, ascending.
    pub fn workers(&self) -> &[usize] {
        &self.workers
    }

    /// The decode weight of each worker in [`DecodePlan::workers`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// `(worker, weight)` pairs in ascending worker order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.workers
            .iter()
            .copied()
            .zip(self.coefficients.iter().copied())
    }

    /// Number of workers with non-zero weight.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// `true` when no worker carries weight (never for a valid decode).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The dense decode vector over all `m` workers.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut a = vec![0.0; self.total_workers];
        for (w, coef) in self.iter() {
            a[w] = coef;
        }
        a
    }

    /// Applies the plan to coded gradients fetched by `coded_of`,
    /// overwriting `out` with `g = Σ_w a_w · g̃_w` — the zero-allocation
    /// primary decode entry point. `out` must already have the gradient
    /// dimension (checkout a buffer from a [`BufferPool`] or reuse a
    /// [`GradientBlock`] row); `coded_of(w)` returns worker `w`'s coded
    /// gradient, or `None` when it never arrived.
    ///
    /// This variant takes an `FnMut` fetcher and combines row by row.
    /// When the fetcher is `Fn + Sync` (it almost always is), prefer
    /// [`DecodePlan::apply_rows_into`] / [`DecodePlan::apply_block_into`]:
    /// same bitwise result, but through the cache-blocked whole-round
    /// kernel.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] when the plan is empty, a needed
    /// coded gradient is missing, or dimensions disagree.
    pub fn apply_into<'a, F>(&self, mut coded_of: F, out: &mut [f64]) -> Result<(), CodingError>
    where
        F: FnMut(usize) -> Option<&'a [f64]>,
    {
        if self.is_empty() {
            return Err(CodingError::InvalidParameter {
                reason: "empty decode plan: no worker carries decode weight".into(),
            });
        }
        out.fill(0.0);
        for (w, coef) in self.iter() {
            let g = coded_of(w).ok_or_else(|| missing_worker(w))?;
            if g.len() != out.len() {
                return Err(CodingError::InvalidParameter {
                    reason: format!("worker {w} gradient dim {} != {}", g.len(), out.len()),
                });
            }
            kernels::axpy(coef, g, out);
        }
        Ok(())
    }

    /// Whole-round decode through the cache-blocked
    /// [`kernels::block_decode`] kernel: one plan-vector × arrival-rows
    /// product instead of a sequence of full-length row combines. The
    /// per-element accumulation order over the plan's workers is
    /// unchanged, so the result is **bitwise-identical** to
    /// [`DecodePlan::apply_into`] — this is a locality/parallelism
    /// optimization, not a semantics change.
    ///
    /// All needed rows are validated (presence and dimension) before the
    /// kernel runs. Sequential decodes allocate nothing; for outputs of
    /// `kernels::PAR_MIN_DIM` elements or more on multi-core hosts the
    /// kernel spawns scoped threads across the `d` dimension (which
    /// allocates — large-`d` decodes trade the zero-allocation guarantee
    /// for the parallel win).
    ///
    /// # Errors
    ///
    /// Same contract as [`DecodePlan::apply_into`].
    pub fn apply_rows_into<'a, F>(&self, coded_of: F, out: &mut [f64]) -> Result<(), CodingError>
    where
        F: Fn(usize) -> Option<&'a [f64]> + Sync,
    {
        if self.is_empty() {
            return Err(CodingError::InvalidParameter {
                reason: "empty decode plan: no worker carries decode weight".into(),
            });
        }
        for &w in &self.workers {
            let g = coded_of(w).ok_or_else(|| missing_worker(w))?;
            if g.len() != out.len() {
                return Err(CodingError::InvalidParameter {
                    reason: format!("worker {w} gradient dim {} != {}", g.len(), out.len()),
                });
            }
        }
        kernels::block_decode(
            &self.coefficients,
            &|i| coded_of(self.workers[i]).expect("validated above"),
            out,
        );
        Ok(())
    }

    /// [`DecodePlan::apply_rows_into`] over a [`GradientBlock`] whose row
    /// `w` holds worker `w`'s coded gradient (the master-side arrival
    /// block) — the tightest decode path: contiguous rows through the
    /// blocked kernel.
    ///
    /// # Errors
    ///
    /// Same contract as [`DecodePlan::apply_into`]; rows beyond the block
    /// surface as missing workers.
    pub fn apply_block_into(
        &self,
        arrivals: &GradientBlock,
        out: &mut [f64],
    ) -> Result<(), CodingError> {
        self.apply_rows_into(|w| (w < arrivals.rows()).then(|| arrivals.row(w)), out)
    }

    /// Refills the plan in place from a dense decode vector (capacity
    /// reused): the pooled twin of [`DecodePlan::from_dense_with_residual`].
    pub(crate) fn assign_dense(&mut self, a: &[f64], residual: f64) {
        self.workers.clear();
        self.coefficients.clear();
        for (w, &coef) in a.iter().enumerate() {
            if coef != 0.0 {
                self.workers.push(w);
                self.coefficients.push(coef);
            }
        }
        self.total_workers = a.len();
        self.residual = residual;
    }
}

fn missing_worker(w: usize) -> CodingError {
    CodingError::InvalidParameter {
        reason: format!("decode plan needs worker {w} but its result is missing"),
    }
}

// ---------------------------------------------------------------- trait

/// The one way to encode and decode a gradient code.
///
/// Implemented by [`CompiledCodec`] (precompiled supports, cached plans —
/// use this on training hot paths) and by [`CodingMatrix`] itself (an
/// uncompiled slow path so ad-hoc analysis code can pass a raw strategy
/// anywhere a codec is expected).
pub trait GradientCodec {
    /// Number of workers `m`.
    fn workers(&self) -> usize;

    /// Number of data partitions `k`.
    fn partitions(&self) -> usize;

    /// Designed straggler tolerance `s`.
    fn stragglers(&self) -> usize;

    /// `‖b_w‖₀`: how many partitions worker `w` computes.
    fn load_of(&self, worker: usize) -> usize;

    /// Encodes worker `w`'s result, `g̃_w = Σ_{j ∈ supp(b_w)} b_wj · g_j`,
    /// into a caller-owned buffer. `partials` is the `k × d` block of
    /// per-partition gradients (row `j` = partition `j`); `out` must have
    /// length `d` and is fully overwritten.
    ///
    /// The compiled backends accumulate straight from their CSR arrays
    /// through the chunked kernels and allocate nothing.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] when the block shape or `out`
    /// length disagrees with the code.
    fn encode_into(
        &self,
        worker: usize,
        partials: &GradientBlock,
        out: &mut [f64],
    ) -> Result<(), CodingError>;

    /// A decode plan supported on the given survivors (order-insensitive:
    /// the survivor set is canonicalized before solving, so equal sets
    /// yield identical plans).
    ///
    /// # Errors
    ///
    /// * [`CodingError::InvalidParameter`] on out-of-range or duplicate
    ///   survivor indices.
    /// * [`CodingError::NotDecodable`] if the survivors cannot span `1`.
    fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError>;

    /// A streaming decoder for one collect round. Reuse it across rounds
    /// via [`CodecSession::reset`].
    fn session(&self) -> CodecSession;

    /// A best-effort plan for a survivor set that **cannot** decode
    /// exactly — the `>s`-straggler escape hatch.
    ///
    /// Exact codecs return `None` (the default): an undecodable round
    /// stays undecodable. A [`CompiledCodec`] with its approximate stage
    /// on answers with the ridge-stabilized least-squares row of
    /// `approximate_decode`,
    /// whose [`DecodePlan::residual`] reports the decode error bound.
    /// [`crate::collect_round`] asks it once per undecoded round, at the
    /// deadline or when no more results can come, so `survivors` may be
    /// only the subset that reported in time. Implementations must not
    /// assume `survivors` is the complete live-worker set.
    fn fallback_plan(&self, _survivors: &[usize]) -> Option<DecodePlan> {
        None
    }
}

// ------------------------------------------------------------- sessions

/// The rows of `B` shared (via `Arc`) between a codec and its sessions,
/// so spawning a session copies nothing.
///
/// **Distinct-column invariant:** only one representative of each
/// bit-identical column of `B` is kept (first occurrence, original order),
/// so rows live over `k′ ≤ k` columns. `a·B = 1` holds on every copy of a
/// column or on none, so a decode vector found over the `k′` kept columns
/// is a decode vector over all `k` — and allocations that give partitions
/// with the same owner set the same column (Eq. 6's cyclic assignment
/// does) eliminate over a fraction of `k`.
///
/// Each row is stored as its nonzeros only: Eq. 6 gives every column
/// `s + 1` nonzeros, so a row holds a handful of the `k′` entries.
#[derive(Debug)]
pub(crate) struct RowStore {
    /// Worker `w`'s row is run `w`, by distinct column.
    rows: Runs,
    /// `max(‖row‖∞, 1)` per worker: the scale of the pivot test.
    scales: Vec<f64>,
    /// Number of distinct columns `k′`.
    distinct: usize,
}

impl RowStore {
    /// The rows over the distinct columns, from the CSR of `B`'s
    /// nonzeros: `class[j]` is `Some(c)` when column `j` is the first of
    /// distinct column `c`, and there are `distinct` of them.
    fn new(
        row_ptr: &[usize],
        support: &[usize],
        coeffs: &[f64],
        class: &[Option<usize>],
        distinct: usize,
    ) -> Self {
        let words = distinct.div_ceil(64);
        let m = row_ptr.len() - 1;
        let mut rows = Runs::new(Vec::new());
        rows.masks = vec![0; m * words];
        let mut scales = Vec::with_capacity(m);
        for w in 0..m {
            let start = rows.idx.len();
            let span = row_ptr[w]..row_ptr[w + 1];
            for (&j, &v) in support[span.clone()].iter().zip(&coeffs[span]) {
                if let Some(c) = class[j] {
                    rows.idx.push(c);
                    rows.vals.push(v);
                    rows.masks[w * words + c / 64] |= 1 << (c % 64);
                }
            }
            rows.ptr.push(rows.idx.len());
            scales.push(kernels::norm_inf(&rows.vals[start..]).max(1.0));
        }
        RowStore {
            rows,
            scales,
            distinct,
        }
    }

    /// Number of workers `m`.
    fn workers(&self) -> usize {
        self.scales.len()
    }

    /// Number of distinct columns `k′` — the width of every session row.
    fn distinct_columns(&self) -> usize {
        self.distinct
    }

    /// Worker `w`'s nonzeros — distinct-column indices and values — and
    /// its column bitset.
    fn row(&self, w: usize) -> (&[usize], &[f64], &[u64]) {
        self.rows.run(w, self.distinct.div_ceil(64))
    }
}

/// What compiling `B` takes from one pass over its entries whose bits
/// are not `+0.0` — a `−0.0` is one of them: it makes a different code,
/// though no term of the encoder's sum.
struct CodeScan {
    /// CSR row pointers: worker `w`'s nonzeros live at
    /// `row_ptr[w]..row_ptr[w+1]`.
    row_ptr: Vec<usize>,
    /// Partition index of every nonzero, worker-major.
    support: Vec<usize>,
    /// The nonzeros, aligned with `support`.
    coeffs: Vec<f64>,
    /// The rows over the distinct columns.
    store: RowStore,
    /// See [`CompiledCodec::scheme_fingerprint`].
    fingerprint: u64,
}

impl CodeScan {
    /// The pass itself, then the distinct-column classes: each column is
    /// its `(worker, bits)` list, hashed and confirmed by an exact
    /// comparison, and the first column of each class is kept, in order.
    /// The fingerprint hashes the dimensions and every `(partition,
    /// worker, bits)` of the pass, in order.
    fn of(code: &CodingMatrix) -> Self {
        let (m, k) = (code.workers(), code.partitions());
        let mut row_ptr = Vec::with_capacity(m + 1);
        row_ptr.push(0);
        let (mut support, mut coeffs) = (Vec::new(), Vec::new());
        let mut entries = Vec::new();
        let mut col_ptr = vec![0; k + 1];
        for w in 0..m {
            for (j, &v) in code.row(w).iter().enumerate() {
                let bits = v.to_bits();
                if bits == 0 {
                    continue;
                }
                entries.push((j, w, bits));
                col_ptr[j + 1] += 1;
                if v != 0.0 {
                    support.push(j);
                    coeffs.push(v);
                }
            }
            row_ptr.push(support.len());
        }
        let mut hasher = DefaultHasher::new();
        (m, k, code.stragglers(), &entries).hash(&mut hasher);

        // Column-major copy of the entries, each column in worker order.
        for j in 0..k {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr.clone();
        let mut cols = vec![(0, 0); entries.len()];
        for &(j, w, bits) in &entries {
            cols[next[j]] = (w, bits);
            next[j] += 1;
        }
        let mut seen = HashSet::with_capacity(k);
        let mut distinct = 0;
        let class: Vec<Option<usize>> = (0..k)
            .map(|j| {
                seen.insert(&cols[col_ptr[j]..col_ptr[j + 1]]).then(|| {
                    distinct += 1;
                    distinct - 1
                })
            })
            .collect();

        let store = RowStore::new(&row_ptr, &support, &coeffs, &class, distinct);
        CodeScan {
            row_ptr,
            support,
            coeffs,
            store,
            fingerprint: hasher.finish(),
        }
    }
}

/// A streaming decoder over one collect round: feed worker results in
/// completion order; a [`DecodePlan`] pops out at the *earliest* decodable
/// prefix.
///
/// Internally maintains a *forward-only* echelon basis of the received
/// rows, the arrival combinations that produced them, and a running
/// reduction of `1` against that basis — all over the `k′ ≤ k` *distinct*
/// columns of `B`: bit-identical columns are kept once, since `a·B = 1`
/// holds on every copy of a column or on none (Eq. 6's cyclic assignment
/// gives partitions with the same owner set the same column, so `k′` can
/// be a fraction of `k`).
///
/// Every row is held as its nonzeros only — Eq. 6 gives `B` `s + 1`
/// nonzeros per column, and basis rows stay about that sparse — so an
/// arrival costs work in the nonzeros it touches, not in `k′` or in the
/// rank. The new row is scattered into a dense `k′` scratch and reduced
/// by exactly the basis rows whose pivot column it touches, in insertion
/// order (applying a row can only reach *later* pivots, since each basis
/// row is exactly `0.0` at the earlier ones). Its pivot is normalised to
/// exactly `1.0` — earlier basis rows are never touched again — and the
/// one new basis row then updates the running reduction on its own
/// entries, where a count of the columns above [`DEFAULT_TOLERANCE`] is
/// kept current: the round decodes when it reaches zero. Those are the
/// floating-point operations of a dense elimination, in its order, less
/// the ones on exact zeros, so every plan is bitwise the dense one.
///
/// Basis rows and their arrival combinations are `(index, value)` runs
/// in flat arenas, each with a bitset of its indices; the `f64` arenas
/// come from an internal [`BufferPool`], checked out once per round.
/// [`CodecSession::reset`] recycles them, so a session reused across
/// training iterations reaches a steady state with **zero** per-round
/// allocation in the elimination loop — and the zero-allocation
/// [`CodecSession::push_arrival`] / [`CodecSession::decoded_plan`] pair
/// extends that to plan delivery (the plan lives in a capacity-reusing
/// slot instead of a fresh allocation per round).
#[derive(Debug, Clone)]
pub struct CodecSession {
    store: Arc<RowStore>,
    /// Basis row `i` (insertion order) is exactly `1.0` at `pivots[i]`
    /// and exactly `0.0` at every earlier pivot (later pivots are *not*
    /// eliminated from it); its other nonzeros are run `i`, by column —
    /// the pivot's `1.0` is implicit.
    basis: Runs,
    /// Basis row `i`'s arrival combination: run `i`, by arrival index.
    combos: Runs,
    /// Pivot column of each basis row.
    pivots: Vec<usize>,
    /// The basis row pivoting on each distinct column, or [`NO_ROW`].
    pivot_row: Vec<usize>,
    /// Arrival order of workers.
    arrivals: Vec<usize>,
    /// Workers already pushed (guards duplicates).
    pushed: Vec<bool>,
    /// The pool the `f64` arenas are checked out of each round.
    pool: BufferPool,
    /// The row being reduced, dense over the `k′` columns; all `0.0`
    /// between arrivals.
    work: Vec<f64>,
    /// The columns `work` may hold nonzeros at, as a bitset: storing the
    /// row reads each one back and clears it, so there is no clearing
    /// pass.
    col_mask: Vec<u64>,
    /// The combination being reduced, dense over arrival indices, and the
    /// indices it may hold nonzeros at — cleared the same way.
    work_combo: Vec<f64>,
    combo_mask: Vec<u64>,
    /// Bitset of the basis rows still to apply to the working row.
    pending: Vec<u64>,
    /// The running reduction of `1_{1×k′}` against the basis.
    scratch_target: Vec<f64>,
    /// Entries of `scratch_target` above [`DEFAULT_TOLERANCE`]: the round
    /// decodes once none is left.
    target_live: usize,
    /// The arrival combination accumulated by that reduction:
    /// `1 − scratch_target = Σ_j scratch_combo[j] · b_{arrivals[j]}`.
    scratch_combo: Vec<f64>,
    /// Scratch for densifying the decode vector into the plan slot.
    scratch_dense: Vec<f64>,
    /// The round's decode plan, refreshed in place (capacity reused).
    plan_slot: DecodePlan,
    /// Whether `plan_slot` currently holds this round's plan.
    has_plan: bool,
    /// Group fast path (set when the owning codec has its intact-group
    /// stage on): once a tracked group is fully intact,
    /// [`CodecSession::push`] returns its precompiled indicator plan and
    /// skips the elimination entirely.
    groups: Option<GroupTracker>,
    /// Fleet fast path (set when the owning codec is attached to a fleet
    /// [`SharedPlanCache`]): the cache plus the scheme's content
    /// fingerprint. Each arrival probes the cache with the sorted arrival
    /// set; a hit decodes the round without any further elimination, and
    /// a round the session solves itself is published back. Once a round
    /// decodes through a shared hit, its elimination state is frozen until
    /// [`CodecSession::reset`] — callers must not push further arrivals
    /// into an already-decoded round, which the runtime's collect loop
    /// never does.
    shared: Option<(Arc<SharedPlanCache>, u64)>,
    /// Sorted-arrival scratch key for the shared-cache probes.
    scratch_key: Vec<usize>,
}

impl CodecSession {
    fn new(store: Arc<RowStore>) -> Self {
        let (m, distinct) = (store.workers(), store.distinct_columns());
        let mut pool = BufferPool::new(distinct);
        CodecSession {
            store,
            basis: Runs::new(pool.checkout_with_len(0)),
            combos: Runs::new(pool.checkout_with_len(0)),
            pivots: Vec::new(),
            pivot_row: vec![NO_ROW; distinct],
            arrivals: Vec::new(),
            pushed: vec![false; m],
            pool,
            work: vec![0.0; distinct],
            col_mask: vec![0; distinct.div_ceil(64)],
            work_combo: vec![0.0; m],
            combo_mask: vec![0; m.div_ceil(64)],
            pending: vec![0; distinct.div_ceil(64)],
            scratch_target: vec![1.0; distinct],
            target_live: distinct,
            scratch_combo: vec![0.0; m],
            scratch_dense: Vec::new(),
            plan_slot: DecodePlan::from_dense(&[]),
            has_plan: false,
            groups: None,
            shared: None,
            scratch_key: Vec::new(),
        }
    }

    /// Number of workers `m`.
    pub fn workers(&self) -> usize {
        self.pushed.len()
    }

    /// Results received so far this round.
    pub fn received(&self) -> usize {
        self.arrivals.len()
    }

    /// The workers received so far this round, in arrival order.
    pub(crate) fn arrivals(&self) -> &[usize] {
        &self.arrivals
    }

    /// Current rank of the received rows.
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// Clears the round state while keeping every allocation for reuse —
    /// the replacement for constructing a fresh per-iteration decoder.
    pub fn reset(&mut self) {
        for &p in &self.pivots {
            self.pivot_row[p] = NO_ROW;
        }
        self.pivots.clear();
        self.basis.reset(&mut self.pool);
        self.combos.reset(&mut self.pool);
        self.arrivals.clear();
        self.pushed.iter_mut().for_each(|p| *p = false);
        self.scratch_target.fill(1.0);
        self.target_live = self.scratch_target.len();
        self.scratch_combo.fill(0.0);
        self.has_plan = false;
        if let Some(tracker) = &mut self.groups {
            tracker.reset();
        }
    }

    /// The session's internal [`BufferPool`] — its hit/miss/alloc counters
    /// are what `RoundRecord.pool_hits` / `RoundRecord.alloc_bytes`
    /// telemetry observes.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Feeds the result of `worker`; returns a decode plan if the received
    /// set is now decodable, `None` otherwise.
    ///
    /// A convenience over [`CodecSession::push_arrival`] that clones the
    /// plan out; steady-state hot paths use the zero-allocation
    /// [`CodecSession::push_arrival`] + [`CodecSession::decoded_plan`]
    /// pair instead.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] on out-of-range or duplicate
    /// worker indices.
    pub fn push(&mut self, worker: usize) -> Result<Option<DecodePlan>, CodingError> {
        Ok(self.push_arrival(worker)?.then(|| self.plan_slot.clone()))
    }

    /// Feeds the result of `worker`, returning `true` once the received
    /// set decodes — the plan is then borrowed via
    /// [`CodecSession::decoded_plan`]. In steady state (a session reused
    /// across rounds via [`CodecSession::reset`]) this path performs
    /// **zero** heap allocations: the elimination arenas come from the
    /// session pool and the plan is refreshed in a capacity-reusing slot.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] on out-of-range or duplicate
    /// worker indices.
    pub fn push_arrival(&mut self, worker: usize) -> Result<bool, CodingError> {
        if worker >= self.pushed.len() {
            return Err(CodingError::InvalidParameter {
                reason: format!("worker {worker} >= m={}", self.pushed.len()),
            });
        }
        if self.pushed[worker] {
            return Err(CodingError::InvalidParameter {
                reason: format!("worker {worker} already pushed"),
            });
        }
        self.pushed[worker] = true;
        self.arrivals.push(worker);
        let arrival_idx = self.arrivals.len() - 1;

        // Group fast path: when a tracked group is fully intact the round
        // decodes via its precompiled indicator row — no elimination, no
        // spanning check. Once intact, a group stays intact for the rest
        // of the round, so the (frozen) elimination state is never
        // consulted again before `reset`.
        if let Some(tracker) = &mut self.groups {
            tracker.arrive(worker);
            if let Some(plan) = tracker.intact_plan() {
                self.plan_slot.clone_from(plan);
                self.has_plan = true;
                return Ok(true);
            }
        }

        // Fleet fast path: a co-tenant running the same scheme may already
        // have solved this exact arrival set — a hit decodes the round
        // with no elimination at all. A silent non-hit falls through; the
        // round's one logical cache request resolves later, either as a
        // probe hit on a subsequent arrival or as the publish of this
        // session's own solve.
        if let Some((cache, fingerprint)) = self.shared.take() {
            self.scratch_key.clear();
            self.scratch_key.extend_from_slice(&self.arrivals);
            self.scratch_key.sort_unstable();
            let reused = cache.try_reuse(fingerprint, PlanClass::Exact, &self.scratch_key);
            self.shared = Some((cache, fingerprint));
            if let Some(plan) = reused {
                self.plan_slot = plan;
                self.has_plan = true;
                return Ok(true);
            }
        }

        self.eliminate(worker, arrival_idx);

        let spanned = self.target_live == 0;
        if spanned {
            self.scratch_dense.clear();
            self.scratch_dense.resize(self.pushed.len(), 0.0);
            for (&w, &coef) in self.arrivals.iter().zip(&self.scratch_combo) {
                self.scratch_dense[w] += coef;
            }
            self.plan_slot.assign_dense(&self.scratch_dense, 0.0);
            self.has_plan = true;
            // This session led the solve for the pattern: book the round's
            // logical request as the miss it was and share the plan, so
            // co-tenants (and this session's later rounds) hit instead.
            if let Some((cache, fingerprint)) = self.shared.take() {
                self.scratch_key.clear();
                self.scratch_key.extend_from_slice(&self.arrivals);
                self.scratch_key.sort_unstable();
                cache.publish_solved(
                    fingerprint,
                    PlanClass::Exact,
                    self.scratch_key.clone(),
                    self.plan_slot.clone(),
                );
                self.shared = Some((cache, fingerprint));
            }
        }
        Ok(spanned)
    }

    /// One arrival's elimination step, over nonzeros only.
    ///
    /// `worker`'s row and the unit combination of its arrival are
    /// scattered into the working buffers, then every basis row whose
    /// pivot column the working row touches is applied, in insertion
    /// order, as `work[j] += −factor · b[j]` over its nonzeros. Row `i` is
    /// `0.0` at every earlier pivot, so applying it can only queue later
    /// rows, and the sweep leaves exact zeros at every pivot. A row that
    /// keeps an entry above the zero test becomes a basis row, and the
    /// running reduction of `1` takes that one row.
    fn eliminate(&mut self, worker: usize, arrival_idx: usize) {
        let (cols, vals, src_mask) = self.store.row(worker);
        // Slices, so the hot loops keep their base pointers in registers.
        let work = &mut self.work[..];
        let work_combo = &mut self.work_combo[..=arrival_idx];
        let col_mask = &mut self.col_mask[..];
        let combo_mask = &mut self.combo_mask[..];
        let pending = &mut self.pending[..];
        let pivot_row = &self.pivot_row[..];
        let pivots = &self.pivots[..];
        let (basis, combos) = (&self.basis, &self.combos);
        let (cw, mw) = (col_mask.len(), combo_mask.len());

        // Scatter, queueing the basis rows that pivot on the row's columns.
        // The word of `pending` being drained lives in `cur`.
        let (mut word, mut cur) = (0, 0);
        for (&c, &v) in cols.iter().zip(vals) {
            work[c] = v;
            queue(&mut cur, pending, word, pivot_row[c]);
        }
        col_mask.copy_from_slice(src_mask);
        work_combo[arrival_idx] = 1.0;
        combo_mask.fill(0);
        combo_mask[arrival_idx / 64] = 1 << (arrival_idx % 64);

        loop {
            if cur == 0 {
                word += 1;
                if word >= pending.len() {
                    break;
                }
                cur = std::mem::take(&mut pending[word]);
                continue;
            }
            let i = word * 64 + cur.trailing_zeros() as usize;
            cur &= cur - 1;
            let factor = work[pivots[i]];
            if factor == 0.0 {
                continue;
            }
            // The pivot entry is an implicit `1.0`.
            work[pivots[i]] += -factor;
            let (row_cols, row_vals, row_mask) = basis.run(i, cw);
            for (&c, &b) in row_cols.iter().zip(row_vals) {
                work[c] += -factor * b;
                queue(&mut cur, pending, word, pivot_row[c]);
            }
            let (combo_idx, combo_vals, combo_bits) = combos.run(i, mw);
            for (&j, &a) in combo_idx.iter().zip(combo_vals) {
                work_combo[j] += -factor * a;
            }
            union(col_mask, row_mask);
            union(combo_mask, combo_bits);
        }

        // Move the touched nonzeros to the arena in column order,
        // clearing `work` for the next arrival and the mask bits of
        // columns that cancelled to exact zeros.
        let touched = col_mask.iter().map(|w| w.count_ones() as usize).sum();
        let (out_cols, out_vals) = self.basis.open(&mut self.pool, touched);
        let mut n = 0;
        for (w, acc) in col_mask.iter_mut().enumerate() {
            let (mut bits, mut nonzero_bits) = (*acc, 0);
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let c = w * 64 + bit as usize;
                let v = std::mem::take(&mut work[c]);
                out_cols[n] = c;
                out_vals[n] = v;
                n += usize::from(v != 0.0);
                nonzero_bits |= u64::from(v != 0.0) << bit;
            }
            *acc = nonzero_bits;
        }

        // The pivot: the largest magnitude (for stability) above the zero
        // test relative to the source row's magnitude, the first maximum
        // in column order.
        let (mut pivot, mut best) = (None, DEFAULT_TOLERANCE * self.store.scales[worker]);
        for (t, &v) in out_vals[..n].iter().enumerate() {
            if v.abs() > best {
                pivot = Some(t);
                best = v.abs();
            }
        }
        let Some(pivot) = pivot else {
            work_combo.fill(0.0);
            return; // a dependent row: nothing is kept
        };
        let p = out_cols[pivot];

        // Normalise to an implicit `1.0` at the pivot, dropping exact
        // zeros. The running reduction of `1` has not seen this row yet:
        // unless it is already `0.0` at the pivot, it takes the row on the
        // way — `target[c] += −factor · b` on the columns, `factor · a` on
        // the combination — and the count of its live columns changes only
        // on the row's columns.
        let inv = 1.0 / out_vals[pivot];
        let target = &mut self.scratch_target[..];
        let factor = target[p];
        let mut live = self.target_live;
        let mut update = |target: &mut [f64], c: usize, delta: f64| {
            let was = target[c].abs() > DEFAULT_TOLERANCE;
            target[c] += delta;
            let is = target[c].abs() > DEFAULT_TOLERANCE;
            live = live + usize::from(is) - usize::from(was);
        };
        let mut kept = 0;
        for t in 0..n {
            let (c, v) = (out_cols[t], out_vals[t] * inv);
            out_cols[kept] = c;
            out_vals[kept] = v;
            kept += usize::from(v != 0.0 && c != p);
            if factor != 0.0 && c != p {
                update(target, c, -factor * v);
            }
        }
        if factor != 0.0 {
            update(target, p, -factor);
        }
        self.target_live = live;
        // The row's column mask is what it keeps (a scaled entry that
        // underflowed to zero leaves a bit that later reads as `0.0`).
        col_mask[p / 64] &= !(1 << (p % 64));
        self.basis.close(&mut self.pool, kept, col_mask);

        // The combination takes the same scale, and is cleared for the
        // next arrival on the way; its mask may keep an index whose
        // coefficient cancelled to zero, which later reads as `0.0`.
        let touched = combo_mask.iter().map(|w| w.count_ones() as usize).sum();
        let (out_idx, out_coefs) = self.combos.open(&mut self.pool, touched);
        let scratch_combo = &mut self.scratch_combo[..];
        let mut combo_kept = 0;
        for (w, &word) in combo_mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = std::mem::take(&mut work_combo[j]) * inv;
                out_idx[combo_kept] = j;
                out_coefs[combo_kept] = v;
                combo_kept += usize::from(v != 0.0);
                if factor != 0.0 {
                    scratch_combo[j] += factor * v;
                }
            }
        }
        self.combos.close(&mut self.pool, combo_kept, combo_mask);
        self.pivot_row[p] = self.pivots.len();
        self.pivots.push(p);
    }

    /// The plan decoded by the last successful
    /// [`CodecSession::push_arrival`] of this round (borrowed from the
    /// session's reusable slot); `None` before the round decodes or after
    /// [`CodecSession::reset`].
    pub fn decoded_plan(&self) -> Option<&DecodePlan> {
        self.has_plan.then_some(&self.plan_slot)
    }
}

/// Sparse rows in flat arenas: run `i` is `(index, value)` pairs at
/// `ptr[i]..ptr[i + 1]`, ascending by index, plus a bitset of its indices
/// (`words` per run). The arenas only grow; their logical end is `ptr`'s
/// last entry.
#[derive(Debug, Clone)]
struct Runs {
    ptr: Vec<usize>,
    idx: Vec<usize>,
    /// The `f64` arena; a session checks it out of its pool each round.
    vals: Vec<f64>,
    masks: Vec<u64>,
}

impl Runs {
    fn new(vals: Vec<f64>) -> Self {
        Runs {
            ptr: vec![0],
            idx: Vec::new(),
            vals,
            masks: Vec::new(),
        }
    }

    /// Run `i`'s indices, values and bitset.
    fn run(&self, i: usize, words: usize) -> (&[usize], &[f64], &[u64]) {
        let span = self.ptr[i]..self.ptr[i + 1];
        (
            &self.idx[span.clone()],
            &self.vals[span],
            &self.masks[i * words..(i + 1) * words],
        )
    }

    /// Room for up to `n` entries of the next run, to be written in place
    /// and committed by [`Runs::close`].
    fn open(&mut self, pool: &mut BufferPool, n: usize) -> (&mut [usize], &mut [f64]) {
        let start = self.ptr[self.ptr.len() - 1];
        pool.grow(&mut self.idx, start + n);
        pool.grow(&mut self.vals, start + n);
        (
            &mut self.idx[start..start + n],
            &mut self.vals[start..start + n],
        )
    }

    /// Commits the first `len` entries written after [`Runs::open`] as
    /// the next run, with bitset `mask`.
    fn close(&mut self, pool: &mut BufferPool, len: usize, mask: &[u64]) {
        let (start, rows) = (self.ptr[self.ptr.len() - 1], self.ptr.len() - 1);
        self.ptr.push(start + len);
        pool.grow(&mut self.masks, (rows + 1) * mask.len());
        self.masks[rows * mask.len()..(rows + 1) * mask.len()].copy_from_slice(mask);
    }

    /// Drops every run, and takes the next round's `f64` arena out of
    /// `pool` after recycling this one (the same buffer comes back).
    fn reset(&mut self, pool: &mut BufferPool) {
        self.ptr.truncate(1);
        pool.recycle(std::mem::take(&mut self.vals));
        self.vals = pool.checkout_with_len(0);
    }
}

/// Marks a distinct column no basis row pivots on.
const NO_ROW: usize = usize::MAX;

/// `acc |= bits`, word by word.
fn union(acc: &mut [u64], bits: &[u64]) {
    for (a, &b) in acc.iter_mut().zip(bits) {
        *a |= b;
    }
}

/// Queues basis row `row` (nothing for [`NO_ROW`]): into `cur` when it
/// falls in `word`, the word of `pending` being drained, else into
/// `pending`. Rows after the one being applied are never in an earlier
/// word, and for `k′ ≤ 64` every queue stays in the register.
fn queue(cur: &mut u64, pending: &mut [u64], word: usize, row: usize) {
    *cur |= u64::from(row / 64 == word) << (row % 64);
    if row / 64 > word && row != NO_ROW {
        pending[row / 64] |= 1 << (row % 64);
    }
}

// ---------------------------------------------------- the compiled codec

/// A [`CodingMatrix`] compiled for the per-iteration hot path: CSR-style
/// sparse per-worker supports/coefficients, one decode-plan cache keyed
/// by sorted survivor sets, and cheap [`CodecSession`] spawning (shared
/// dense rows).
///
/// The plan cache is a [`SharedPlanCache`]: a private single-shard LRU of
/// [`CompiledCodec::with_cache_capacity`] plans by default, the fleet's
/// map once [`CompiledCodec::attach_shared_plans`] swaps it in. Exact and
/// least-squares plans share it (and its capacity) on separate lines, and
/// every miss singleflights through it, so racing threads — or, on a
/// fleet cache, racing codecs — pay one solve per pattern. Clones share
/// the cache: same matrix, same fingerprint, interchangeable plans.
///
/// Two optional stages ride on the same compile, both off by default:
/// `CompiledCodec::with_groups` answers intact-group survivor sets with
/// a precompiled indicator row before any solve, and
/// [`CompiledCodec::with_approx`] answers past the straggler budget with
/// a bounded-error least-squares row after the exact solve failed.
/// [`CodecBackend::compile`](crate::CodecBackend::compile) picks them by
/// name.
///
/// Build one per strategy (e.g. via `SchemeInstance::compile()` in the
/// `hetgc` crate) and route every encode/decode through it.
#[derive(Debug)]
pub struct CompiledCodec {
    code: CodingMatrix,
    /// CSR row pointers: worker `w`'s terms live at `row_ptr[w]..row_ptr[w+1]`.
    row_ptr: Vec<usize>,
    /// Partition indices of all non-zero coefficients, worker-major.
    support: Vec<usize>,
    /// Coefficients aligned with `support`.
    coeffs: Vec<f64>,
    store: Arc<RowStore>,
    /// Every exact and least-squares plan this codec has solved or
    /// reused, and the singleflight gate of its misses.
    plans: Arc<SharedPlanCache>,
    /// Whether `plans` is an attached fleet cache: only then do sessions
    /// probe it and publish to it per arrival.
    fleet: bool,
    /// Reusable sorted-key buffer of [`CompiledCodec::probe`]: a hit
    /// sorts and looks up through it without allocating.
    scratch: Mutex<Vec<usize>>,
    hits: AtomicU64,
    misses: AtomicU64,
    solves: AtomicU64,
    /// The intact-group stage (`None` = off, and for an empty group list).
    pub(crate) groups: Option<Arc<GroupIndex>>,
    /// The approximate stage (`None` = off).
    pub(crate) approx: Option<ApproxStage>,
    /// Stable content hash of `code` — the scheme half of the plan
    /// cache's key. Computed once at compile time.
    fingerprint: u64,
    /// Optional metric handles (cache hits/misses, plan-solve latency,
    /// cache-probe / plan-solve spans). Pre-registered atomics: recording
    /// stays allocation-free on the hot path.
    obs: Option<CodecMetrics>,
}

impl Clone for CompiledCodec {
    fn clone(&self) -> Self {
        let copy = |n: &AtomicU64| AtomicU64::new(n.load(Ordering::Relaxed));
        CompiledCodec {
            code: self.code.clone(),
            row_ptr: self.row_ptr.clone(),
            support: self.support.clone(),
            coeffs: self.coeffs.clone(),
            store: Arc::clone(&self.store),
            plans: Arc::clone(&self.plans),
            fleet: self.fleet,
            scratch: Mutex::default(),
            hits: copy(&self.hits),
            misses: copy(&self.misses),
            solves: copy(&self.solves),
            groups: self.groups.clone(),
            approx: self.approx.clone(),
            fingerprint: self.fingerprint,
            obs: self.obs.clone(),
        }
    }
}

impl CompiledCodec {
    /// Compiles `code` with the default plan-cache capacity.
    pub fn new(code: CodingMatrix) -> Self {
        CompiledCodec::with_cache_capacity(code, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Compiles `code`, remembering up to `capacity` plans, exact and
    /// approximate together.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_cache_capacity(code: CodingMatrix, capacity: usize) -> Self {
        let plans = Arc::new(SharedPlanCache::with_shape(1, capacity));
        let CodeScan {
            row_ptr,
            support,
            coeffs,
            store,
            fingerprint,
        } = CodeScan::of(&code);
        CompiledCodec {
            code,
            row_ptr,
            support,
            coeffs,
            store: Arc::new(store),
            plans,
            fleet: false,
            scratch: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            groups: None,
            approx: None,
            fingerprint,
            obs: None,
        }
    }

    /// Swaps this codec's plan cache for the fleet's `cache`: every codec
    /// attached to the same cache — across jobs and threads — pays for
    /// each distinct survivor pattern once, and its sessions reuse and
    /// publish whole-round plans per arrival. Exact and least-squares
    /// solves are keyed apart (`PlanClass`); intact-group answers never
    /// solve, so they have nothing to share.
    pub fn attach_shared_plans(&mut self, cache: Arc<SharedPlanCache>) {
        self.plans = cache;
        self.fleet = true;
    }

    /// Reports this codec's plan-cache behaviour (probe hits/misses,
    /// dense- and ridge-solve count and latency, cache-probe / plan-solve
    /// spans) into `metrics`; intact-group answers never probe or solve,
    /// so they record nothing. The handles are pre-registered atomics, so
    /// the decode hot path stays lock- and allocation-free.
    pub(crate) fn attach_metrics(&mut self, metrics: CodecMetrics) {
        self.obs = Some(metrics);
    }

    /// The attached metric bundle, if any.
    pub fn metrics(&self) -> Option<&CodecMetrics> {
        self.obs.as_ref()
    }

    /// Records one dense solve in the attached metrics (latency
    /// histogram, solve counter, plan-solve span).
    fn observe_solve(&self, started: Instant) {
        if let Some(obs) = &self.obs {
            let ended = Instant::now();
            obs.solved(ended.duration_since(started).as_secs_f64());
            if let Some(rec) = obs.recorder() {
                rec.record(Phase::PlanSolve, started, ended, 0);
            }
        }
    }

    /// The underlying strategy matrix.
    pub fn code(&self) -> &CodingMatrix {
        &self.code
    }

    /// `self` — the accessor the frozen `benchmark/` reaches the compiled
    /// codec through; delete with that call.
    pub fn as_compiled(&self) -> &Self {
        self
    }

    /// `supp(b_w)` as a precompiled slice — no allocation, no scan.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= m`.
    pub fn support_of(&self, worker: usize) -> &[usize] {
        &self.support[self.row_ptr[worker]..self.row_ptr[worker + 1]]
    }

    /// The non-zero coefficients of `b_w`, aligned with
    /// [`CompiledCodec::support_of`].
    ///
    /// # Panics
    ///
    /// Panics if `worker >= m`.
    pub fn coefficients_of(&self, worker: usize) -> &[f64] {
        &self.coeffs[self.row_ptr[worker]..self.row_ptr[worker + 1]]
    }

    /// Plan-cache hits so far (exact and approximate probes).
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Plan-cache misses so far (exact and approximate probes).
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Exact and least-squares solves this codec actually performed.
    /// Misses racing on one pattern share one solve through the cache's
    /// singleflight gate, so under racing sessions this stays well below
    /// [`CompiledCodec::cache_misses`].
    pub fn plan_solves(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// The one survivor probe of both rungs: sorts `survivors` into the
    /// scratch key and validates it, then answers with an intact group's
    /// indicator plan (when `groups` are given; neither a hit nor a miss)
    /// or the cached `class` plan (a hit) without allocating. A miss
    /// returns an owned copy of the canonical key to solve with — the one
    /// allocation of the miss path — and releases the scratch key first,
    /// so the solve never holds up another thread's probe.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] on out-of-range or duplicate
    /// survivor indices.
    pub(crate) fn probe(
        &self,
        survivors: &[usize],
        class: PlanClass,
        groups: Option<&GroupIndex>,
    ) -> Result<Result<DecodePlan, Vec<usize>>, CodingError> {
        let mut key = self.scratch.lock().expect("scratch poisoned");
        canonicalize_into(&mut key, survivors, self.code.workers())?;
        if let Some(plan) = groups.and_then(|index| index.intact_plan(&key)) {
            return Ok(Ok(plan.clone()));
        }
        let cached = self.plans.try_reuse(self.fingerprint, class, &key);
        let hit = cached.is_some();
        (if hit { &self.hits } else { &self.misses }).fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            if hit {
                obs.hit();
            } else {
                obs.miss();
            }
        }
        Ok(cached.ok_or_else(|| key.clone()))
    }

    /// The miss path of both rungs: the `class` plan for the canonical
    /// `key`, solved at most once per pattern however many threads (or,
    /// on a fleet cache, codecs) race on it — see
    /// [`SharedPlanCache::get_or_solve`].
    pub(crate) fn solve(&self, class: PlanClass, key: &[usize]) -> Result<DecodePlan, CodingError> {
        self.plans.get_or_solve(self.fingerprint, class, key, || {
            self.solves.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            let plan = match class {
                PlanClass::Exact => DecodePlan::from_dense(&solve_decode_dense(&self.code, key)?),
                PlanClass::Approx => {
                    let approx = approximate_decode(&self.code, key)?;
                    DecodePlan::from_dense_with_residual(&approx.vector, approx.residual)
                }
            };
            self.observe_solve(started);
            Ok(plan)
        })
    }
}

impl GradientCodec for CompiledCodec {
    fn workers(&self) -> usize {
        self.code.workers()
    }

    fn partitions(&self) -> usize {
        self.code.partitions()
    }

    fn stragglers(&self) -> usize {
        self.code.stragglers()
    }

    fn load_of(&self, worker: usize) -> usize {
        self.row_ptr[worker + 1] - self.row_ptr[worker]
    }

    /// Intact-group survivor sets — including *strict supersets* of a
    /// group — decode via the smallest intact group's precompiled
    /// indicator row (the cheapest exact plan); everything else is exact
    /// when possible, through the plan cache; with the approximate stage
    /// on, least-squares with a reported residual when not, and
    /// [`CodingError::NotDecodable`] only when even that exceeds the
    /// residual budget.
    fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        let key = match self.probe(survivors, PlanClass::Exact, self.groups.as_deref())? {
            Ok(plan) => return Ok(plan),
            Err(key) => key,
        };
        match (self.solve(PlanClass::Exact, &key), &self.approx) {
            (Err(CodingError::NotDecodable { .. }), Some(stage)) => {
                let plan = self.solve(PlanClass::Approx, &key)?;
                stage
                    .admits(&plan)
                    .then_some(plan)
                    .ok_or_else(|| CodingError::NotDecodable {
                        survivors: survivors.to_vec(),
                    })
            }
            (solved, _) => solved,
        }
    }

    fn session(&self) -> CodecSession {
        let mut session = CodecSession::new(Arc::clone(&self.store));
        session.groups = self.groups.as_ref().map(GroupIndex::tracker);
        // Threaded masters decode through sessions, not through
        // `decode_plan` — attaching here is what makes the streaming
        // path a fleet tenant. A private cache is left out: probing it
        // on every arrival would cost more than the rounds it saves.
        session.shared = self
            .fleet
            .then(|| (Arc::clone(&self.plans), self.fingerprint));
        session
    }

    fn fallback_plan(&self, survivors: &[usize]) -> Option<DecodePlan> {
        let stage = self.approx.as_ref()?;
        let plan = self.approximate_plan(survivors).ok()?;
        stage.admits(&plan).then_some(plan)
    }

    fn encode_into(
        &self,
        worker: usize,
        partials: &GradientBlock,
        out: &mut [f64],
    ) -> Result<(), CodingError> {
        if partials.rows() != self.partitions() {
            return Err(CodingError::InvalidParameter {
                reason: format!(
                    "expected {} partials, got {}",
                    self.partitions(),
                    partials.rows()
                ),
            });
        }
        if out.len() != partials.dim() {
            return Err(CodingError::InvalidParameter {
                reason: format!("out has dim {}, expected {}", out.len(), partials.dim()),
            });
        }
        let support = self.support_of(worker);
        let coeffs = self.coefficients_of(worker);
        // The CSR-gathered support rows through the column-blocked kernel,
        // bitwise-identical to the fill + per-row axpy sequence it
        // replaces. Sequential (`max_threads = 1`): encodes are already
        // parallel across workers in the threaded engine, and the
        // steady-state hot path must not allocate (spawning would).
        kernels::block_decode_threads(coeffs, &|i| partials.row(support[i]), out, 1);
        Ok(())
    }
}

/// The uncompiled slow path: a raw [`CodingMatrix`] is itself a codec, so
/// analysis code can call codec-shaped APIs without compiling. Each
/// `decode_plan` re-solves and each `session` re-copies rows — compile
/// with [`CompiledCodec::new`] for anything iterative.
impl GradientCodec for CodingMatrix {
    fn workers(&self) -> usize {
        CodingMatrix::workers(self)
    }

    fn partitions(&self) -> usize {
        CodingMatrix::partitions(self)
    }

    fn stragglers(&self) -> usize {
        CodingMatrix::stragglers(self)
    }

    fn load_of(&self, worker: usize) -> usize {
        CodingMatrix::load_of(self, worker)
    }

    /// Copies the block out as rows and runs the dense
    /// [`CodingMatrix::encode`].
    fn encode_into(
        &self,
        worker: usize,
        partials: &GradientBlock,
        out: &mut [f64],
    ) -> Result<(), CodingError> {
        let coded = CodingMatrix::encode(self, worker, &partials.to_rows())?;
        if coded.len() != out.len() {
            return Err(CodingError::InvalidParameter {
                reason: format!("out has dim {}, expected {}", out.len(), coded.len()),
            });
        }
        out.copy_from_slice(&coded);
        Ok(())
    }

    fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, CodingError> {
        let mut key = Vec::new();
        canonicalize_into(&mut key, survivors, self.workers())?;
        Ok(DecodePlan::from_dense(&solve_decode_dense(self, &key)?))
    }

    fn session(&self) -> CodecSession {
        CodecSession::new(Arc::new(CodeScan::of(self).store))
    }
}

// ------------------------------------------------------------ internals

/// Sorts `survivors` into `key` (its capacity reused) and validates the
/// canonical set: after the sort the largest index is last and
/// duplicates are adjacent.
fn canonicalize_into(
    key: &mut Vec<usize>,
    survivors: &[usize],
    m: usize,
) -> Result<(), CodingError> {
    key.clear();
    key.extend_from_slice(survivors);
    key.sort_unstable();
    if let Some(&w) = key.last().filter(|&&w| w >= m) {
        return Err(CodingError::InvalidParameter {
            reason: format!("survivor index {w} >= m={m}"),
        });
    }
    if let Some(pair) = key.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(CodingError::InvalidParameter {
            reason: format!("duplicate survivor index {}", pair[0]),
        });
    }
    Ok(())
}

/// The §III-B realtime solve: a dense `a ∈ R^m` with `a·B = 1_{1×k}` and
/// `supp(a) ⊆ survivors` (assumed validated).
pub(crate) fn solve_decode_dense(
    code: &CodingMatrix,
    survivors: &[usize],
) -> Result<Vec<f64>, CodingError> {
    // Solve Mᵀ·x = 1ᵀ where M = B_survivors.
    let rows = code.matrix().select_rows(survivors)?;
    let ones = vec![1.0; code.partitions()];
    let x = solve_any(&rows.transpose(), &ones, DEFAULT_TOLERANCE).ok_or_else(|| {
        CodingError::NotDecodable {
            survivors: survivors.to_vec(),
        }
    })?;
    let mut a = vec![0.0; code.workers()];
    for (&w, &coef) in survivors.iter().zip(&x) {
        a[w] = coef;
    }
    Ok(a)
}

#[cfg(test)]
mod compile_oracle;

#[cfg(test)]
impl CompiledCodec {
    /// The scheme's content fingerprint, the scheme half of the plan
    /// cache's key: equal iff the coding matrices are bitwise-identical.
    pub(crate) fn scheme_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Plans resident in this codec's cache (the fleet's, once attached).
    pub(crate) fn cached_plans(&self) -> usize {
        self.plans.cached_plans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heter_aware::heter_aware;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn code() -> CodingMatrix {
        let mut rng = StdRng::seed_from_u64(11);
        heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap()
    }

    fn check_decode(code: &CodingMatrix, plan: &DecodePlan) {
        let prod = code.matrix().vecmat(&plan.to_dense()).unwrap();
        for (j, v) in prod.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-6, "aB[{j}] = {v}, want 1");
        }
    }

    #[test]
    fn compiled_supports_match_matrix() {
        let b = code();
        let codec = CompiledCodec::new(b.clone());
        for w in 0..b.workers() {
            assert_eq!(codec.support_of(w), b.support_of(w).as_slice());
            assert_eq!(codec.load_of(w), b.load_of(w));
            let coeffs: Vec<f64> = b.support_of(w).iter().map(|&j| b.row(w)[j]).collect();
            assert_eq!(codec.coefficients_of(w), coeffs.as_slice());
        }
        assert_eq!(codec.workers(), 5);
        assert_eq!(codec.partitions(), 7);
        assert_eq!(codec.stragglers(), 1);
    }

    #[test]
    fn compiled_encode_matches_matrix_encode() {
        let b = code();
        let codec = CompiledCodec::new(b.clone());
        let partials: Vec<Vec<f64>> = (0..7)
            .map(|j| vec![j as f64, 2.0 * j as f64 + 0.5])
            .collect();
        let block = GradientBlock::from_rows(&partials).unwrap();
        let mut out = vec![f64::NAN; 2];
        for w in 0..5 {
            codec.encode_into(w, &block, &mut out).unwrap();
            assert_eq!(out, b.encode(w, &partials).unwrap(), "worker {w}");
        }
    }

    #[test]
    fn encode_validates_inputs() {
        // The dense reference takes ragged rows, so it has two checks a
        // flat block cannot fail.
        let codec = CompiledCodec::new(code());
        let partials = vec![vec![1.0]; 3]; // wrong count
        assert!(codec.code().encode(0, &partials).is_err());
        let mut partials = vec![vec![1.0, 2.0]; 7];
        partials[6] = vec![1.0]; // dim mismatch on a used partition
        let needs_6 = (0..5).find(|&w| codec.support_of(w).contains(&6)).unwrap();
        assert!(codec.code().encode(needs_6, &partials).is_err());
    }

    #[test]
    fn decode_plan_solves_and_caches() {
        let b = code();
        let codec = CompiledCodec::new(b.clone());
        let plan1 = codec.decode_plan(&[0, 1, 3, 4]).unwrap();
        check_decode(&b, &plan1);
        assert_eq!((codec.cache_hits(), codec.cache_misses()), (0, 1));
        // Same set, different order: cache hit, identical plan.
        let plan2 = codec.decode_plan(&[4, 3, 1, 0]).unwrap();
        assert_eq!(plan1, plan2);
        assert_eq!((codec.cache_hits(), codec.cache_misses()), (1, 1));
        assert_eq!(codec.cached_plans(), 1);
    }

    #[test]
    fn decode_plan_matches_uncompiled_path() {
        let b = code();
        let codec = CompiledCodec::new(b.clone());
        for straggler in 0..5 {
            let survivors: Vec<usize> = (0..5).filter(|&w| w != straggler).collect();
            let compiled = codec.decode_plan(&survivors).unwrap();
            let uncompiled = b.decode_plan(&survivors).unwrap();
            assert_eq!(compiled, uncompiled, "straggler {straggler}");
            assert!(!compiled.workers().contains(&straggler));
        }
    }

    #[test]
    fn decode_plan_rejects_bad_survivors() {
        let codec = CompiledCodec::new(code());
        assert!(matches!(
            codec.decode_plan(&[0, 9]),
            Err(CodingError::InvalidParameter { .. })
        ));
        assert!(matches!(
            codec.decode_plan(&[0, 0]),
            Err(CodingError::InvalidParameter { .. })
        ));
        assert!(matches!(
            codec.decode_plan(&[0, 1, 2]),
            Err(CodingError::NotDecodable { .. })
        ));
    }

    #[test]
    fn plan_cache_evicts_lru() {
        let codec = CompiledCodec::with_cache_capacity(code(), 2);
        let survivors = |dead: usize| -> Vec<usize> { (0..5).filter(|&w| w != dead).collect() };
        codec.decode_plan(&survivors(0)).unwrap();
        codec.decode_plan(&survivors(1)).unwrap();
        codec.decode_plan(&survivors(0)).unwrap(); // refresh 0
        codec.decode_plan(&survivors(2)).unwrap(); // evicts 1
        assert_eq!(codec.cached_plans(), 2);
        codec.decode_plan(&survivors(0)).unwrap(); // still cached
        assert_eq!(codec.cache_hits(), 2);
        codec.decode_plan(&survivors(1)).unwrap(); // miss: was evicted
        assert_eq!(codec.cache_misses(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_cache_capacity_panics() {
        CompiledCodec::with_cache_capacity(code(), 0);
    }

    #[test]
    fn session_decodes_at_earliest_prefix() {
        let b = code();
        let codec = CompiledCodec::new(b.clone());
        let mut session = codec.session();
        assert_eq!(session.push(3).unwrap(), None);
        assert_eq!(session.push(4).unwrap(), None);
        assert_eq!(session.push(0).unwrap(), None);
        let plan = session.push(1).unwrap().expect("m−s workers must decode");
        check_decode(&b, &plan);
        assert!(!plan.workers().contains(&2));
        assert_eq!(session.received(), 4);
    }

    #[test]
    fn session_reset_reuses_buffers_and_agrees() {
        let b = code();
        let codec = CompiledCodec::new(b);
        let mut session = codec.session();
        let mut first_round = None;
        for order in [[0usize, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]] {
            session.reset();
            let mut decoded = None;
            for w in order {
                if let Some(plan) = session.push(w).unwrap() {
                    decoded = Some(plan);
                    break;
                }
            }
            let plan = decoded.expect("all five workers must decode");
            check_decode(codec.code(), &plan);
            // Identical arrival order ⇒ identical plan after reset.
            if order == [0, 1, 2, 3, 4] {
                first_round = Some(plan);
            }
        }
        session.reset();
        let mut replay = None;
        for w in [0usize, 1, 2, 3, 4] {
            if let Some(plan) = session.push(w).unwrap() {
                replay = Some(plan);
                break;
            }
        }
        assert_eq!(replay, first_round);
    }

    /// The distinct-column invariant: bit-identical columns of `B` are
    /// eliminated over once (`k′ < k`), a code without any keeps all of
    /// them (`k′ = k`), and the plan found over `k′` columns decodes all
    /// `k` partitions.
    #[test]
    fn sessions_eliminate_over_distinct_columns_only() {
        use hetgc_linalg::Matrix;
        // Columns 0, 2 and 3 are identical (one owner set, one `C⁻¹·1`).
        let dup = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0, 1.0, 2.0],
            &[0.5, 1.0, 0.5, 0.5, 0.0],
            &[0.0, 3.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        let code = CodingMatrix::from_matrix(dup, 0).unwrap();
        let store = CodeScan::of(&code).store;
        assert_eq!(store.distinct_columns(), 3);
        // Rows keep their nonzeros over the distinct columns only.
        assert_eq!(store.row(0), (&[0, 2][..], &[1.0, 2.0][..], &[0b101][..]));
        assert_eq!(store.row(2), (&[1, 2][..], &[3.0, 1.0][..], &[0b110][..]));
        assert_eq!(store.scales, [2.0, 1.0, 3.0]);
        let mut session = GradientCodec::session(&code);
        assert!(session.push(2).unwrap().is_none());
        assert!(session.push(0).unwrap().is_none());
        let plan = session.push(1).unwrap().expect("full rank decodes");
        check_decode(&code, &plan);

        // `-0.0 == 0.0` but the bits differ: not a duplicate.
        let plain = Matrix::from_rows(&[&[1.0, 0.0, -0.0], &[0.0, 1.0, 1.0]]).unwrap();
        let code = CodingMatrix::from_matrix(plain, 0).unwrap();
        assert_eq!(CodeScan::of(&code).store.distinct_columns(), 3);
    }

    #[test]
    fn session_rejects_duplicates_and_out_of_range() {
        let codec = CompiledCodec::new(code());
        let mut session = codec.session();
        session.push(1).unwrap();
        assert!(session.push(1).is_err());
        assert!(session.push(17).is_err());
        session.reset();
        session.push(1).unwrap(); // valid again after reset
    }

    #[test]
    fn uncompiled_matrix_is_a_codec() {
        let b = code();
        let mut session = GradientCodec::session(&b);
        for w in [0usize, 1, 3] {
            assert!(session.push(w).unwrap().is_none());
        }
        let plan = session.push(4).unwrap().expect("4 workers decode");
        check_decode(&b, &plan);
    }

    #[test]
    fn apply_into_weighted_sum_over_sparse_plan() {
        let mut coded = HashMap::new();
        coded.insert(0, vec![1.0, 2.0]);
        coded.insert(2, vec![10.0, 20.0]);
        let plan = DecodePlan::from_dense(&[2.0, 0.0, 0.5]);
        let mut out = vec![f64::NAN; 2]; // fully overwritten
        plan.apply_into(|w| coded.get(&w).map(Vec::as_slice), &mut out)
            .unwrap();
        assert_eq!(out, vec![7.0, 14.0]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.to_dense(), vec![2.0, 0.0, 0.5]);
    }

    #[test]
    fn apply_block_into_reads_worker_rows() {
        let mut arrivals = GradientBlock::new(3, 2);
        arrivals.row_mut(0).copy_from_slice(&[1.0, 2.0]);
        arrivals.row_mut(2).copy_from_slice(&[10.0, 20.0]);
        let plan = DecodePlan::from_dense(&[2.0, 0.0, 0.5]);
        let mut out = [0.0; 2];
        plan.apply_block_into(&arrivals, &mut out).unwrap();
        assert_eq!(out, [7.0, 14.0]);
        // A plan needing a row beyond the block surfaces as missing.
        let wide = DecodePlan::from_dense(&[0.0, 0.0, 0.0, 1.0]);
        assert!(wide.apply_block_into(&arrivals, &mut out).is_err());
    }

    #[test]
    fn apply_into_validates_missing_dims_and_empty() {
        let plan = DecodePlan::from_dense(&[1.0, 1.0]);
        let short = [vec![1.0, 2.0], vec![3.0]];
        let mut out = [0.0; 2];
        assert!(plan
            .apply_into(|w| short.get(w).map(Vec::as_slice), &mut out)
            .is_err());
        assert!(plan.apply_into(|_| None, &mut out).is_err());
        let empty = DecodePlan::from_dense(&[0.0]);
        assert!(empty.apply_into(|_| Some(&[][..]), &mut out).is_err());
    }

    #[test]
    fn encode_into_matches_encode_bitwise() {
        let b = code();
        let codec = CompiledCodec::new(b.clone());
        let rows: Vec<Vec<f64>> = (0..7)
            .map(|j| vec![j as f64, 2.0 * j as f64 + 0.5])
            .collect();
        let block = GradientBlock::from_rows(&rows).unwrap();
        let mut out = vec![f64::NAN; 2];
        for w in 0..5 {
            codec.encode_into(w, &block, &mut out).unwrap();
            assert_eq!(out, b.encode(w, &rows).unwrap(), "worker {w}");
            // The uncompiled codec agrees too.
            let mut slow = vec![f64::NAN; 2];
            GradientCodec::encode_into(&b, w, &block, &mut slow).unwrap();
            assert_eq!(slow, out, "worker {w} (uncompiled)");
        }
    }

    #[test]
    fn encode_into_validates_shapes() {
        let codec = CompiledCodec::new(code());
        let block = GradientBlock::new(3, 2); // wrong partition count
        let mut out = [0.0; 2];
        assert!(codec.encode_into(0, &block, &mut out).is_err());
        let block = GradientBlock::new(7, 2);
        let mut short = [0.0; 1]; // wrong out dim
        assert!(codec.encode_into(0, &block, &mut short).is_err());
    }

    #[test]
    fn push_arrival_matches_push_and_reuses_plan_slot() {
        let b = code();
        let codec = CompiledCodec::new(b);
        let mut by_push = codec.session();
        let mut by_arrival = codec.session();
        for round in 0..3 {
            by_push.reset();
            by_arrival.reset();
            assert!(by_arrival.decoded_plan().is_none(), "round {round}");
            for w in [3usize, 4, 0, 1] {
                let expected = by_push.push(w).unwrap();
                let decoded = by_arrival.push_arrival(w).unwrap();
                assert_eq!(decoded, expected.is_some());
                if let Some(plan) = expected {
                    assert_eq!(by_arrival.decoded_plan(), Some(&plan));
                }
            }
        }
        // Steady state: the pool served every elimination buffer after the
        // first round (no further allocations).
        assert!(by_arrival.pool().hits() > 0);
    }

    #[test]
    fn cache_probe_hits_do_not_allocate_keys() {
        let grouped = {
            let mut rng = StdRng::seed_from_u64(45);
            let g = crate::group_based(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap();
            g.compile().unwrap() // groups {2,3} and {0,1,4}
        };
        // `(codec, a set that solves once then hits, the same set
        // reordered, whether that set holds an intact group)`.
        for (codec, first, again, intact) in [
            (
                CompiledCodec::new(code()),
                [0, 1, 3, 4],
                [4, 3, 1, 0],
                false,
            ),
            (grouped, [0, 1, 2, 4], [4, 2, 1, 0], true),
        ] {
            let expected = codec.decode_plan(&first);
            let before = codec.scratch.lock().unwrap().capacity();
            assert!(before >= first.len(), "scratch retained after the probe");
            for _ in 0..10 {
                assert_eq!(codec.decode_plan(&again), expected);
            }
            // An intact-group answer is neither a hit nor a miss.
            let probes = if intact { (0, 0) } else { (10, 1) };
            assert_eq!((codec.cache_hits(), codec.cache_misses()), probes);
            assert_eq!(
                codec.scratch.lock().unwrap().capacity(),
                before,
                "hits and intact-group answers must reuse the scratch key"
            );
            // Validation still fires through the probe path.
            assert!(matches!(
                codec.decode_plan(&[0, 9]),
                Err(CodingError::InvalidParameter { .. })
            ));
            assert!(matches!(
                codec.decode_plan(&[0, 0]),
                Err(CodingError::InvalidParameter { .. })
            ));
        }
    }

    /// Regression: a worker with an *empty* support must encode to a
    /// `d`-length zero vector, not a 0-length one. The old code derived
    /// the dimension from the first support entry, so an all-zero row
    /// produced an empty reply that surfaced as a dim mismatch (or a
    /// silently empty gradient) downstream.
    #[test]
    fn empty_support_worker_encodes_to_zero_vector() {
        use hetgc_linalg::Matrix;
        // Worker 1 computes nothing (all-zero row); workers 0 and 2 carry
        // the code.
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0], &[1.0, 2.0]]).unwrap();
        let code = CodingMatrix::from_matrix(b, 0).unwrap();
        let codec = CompiledCodec::new(code.clone());
        let partials = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];

        let block = GradientBlock::from_rows(&partials).unwrap();
        let mut out = [f64::NAN; 3];
        codec.encode_into(1, &block, &mut out).unwrap();
        assert_eq!(out, [0.0; 3]);
        // The dense reference agrees.
        assert_eq!(code.encode(1, &partials).unwrap(), vec![0.0; 3]);
        // Ragged placeholders elsewhere don't confuse its fallback.
        let ragged = vec![Vec::new(), vec![4.0, 5.0, 6.0]];
        assert_eq!(code.encode(1, &ragged).unwrap(), vec![0.0; 3]);
        // All-empty partials still yield an empty vector (nothing to size
        // against) rather than panicking.
        assert_eq!(code.encode(1, &[Vec::new(), Vec::new()]).unwrap(), vec![]);
    }

    /// Eight threads racing a cache miss on the *same* survivor pattern
    /// of a fresh codec; returns the codec for the caller's assertions.
    fn race_same_pattern_misses() -> Arc<CompiledCodec> {
        let codec = Arc::new(CompiledCodec::new(code()));
        const THREADS: usize = 8;
        // A barrier maximizes the chance every thread misses before any
        // leader finishes; correctness doesn't depend on the interleaving.
        let barrier = std::sync::Barrier::new(THREADS);
        let plans: Vec<DecodePlan> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        codec.decode_plan(&[0, 1, 3, 4]).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for plan in &plans {
            assert_eq!(plan, &plans[0], "all threads see the same plan");
        }
        assert_eq!(codec.plan_solves(), 1, "racing misses must share one solve");
        assert_eq!(codec.cached_plans(), 1);
        codec
    }

    /// The singleflight gate: threads racing a cache miss on the *same*
    /// survivor pattern share one dense solve.
    #[test]
    fn concurrent_decode_plan_misses_solve_once() {
        let codec = race_same_pattern_misses();
        // Patterns that cannot decode keep erroring deterministically through the
        // gate (and count their solve attempts).
        assert!(matches!(
            codec.decode_plan(&[0]),
            Err(CodingError::NotDecodable { .. })
        ));
        assert!(matches!(
            codec.decode_plan(&[0]),
            Err(CodingError::NotDecodable { .. })
        ));
        assert_eq!(codec.plan_solves(), 3, "failed solves are not cached");
    }

    /// Regression for a ~1-in-45 flake of the test above: a thread that
    /// missed the cache before the leader's insert, and reached the gate
    /// after the leader had left it, became a second leader. The race
    /// needs that exact interleaving, so hammer it.
    #[test]
    #[ignore = "slow: 300 eight-thread races, run by the nightly slow-suite job"]
    fn concurrent_decode_plan_misses_solve_once_looped() {
        for _ in 0..300 {
            race_same_pattern_misses();
        }
    }

    /// Eight codecs attached to one fresh fleet cache race a miss on the
    /// same pattern, one thread each: the fleet pays one solve.
    fn race_fleet_tenants() {
        const TENANTS: usize = 8;
        let shared = Arc::new(SharedPlanCache::new());
        let codecs: Vec<CompiledCodec> = (0..TENANTS)
            .map(|_| {
                let mut codec = CompiledCodec::new(code());
                codec.attach_shared_plans(Arc::clone(&shared));
                codec
            })
            .collect();
        let barrier = std::sync::Barrier::new(TENANTS);
        let plans: Vec<DecodePlan> = std::thread::scope(|scope| {
            let handles: Vec<_> = codecs
                .iter()
                .map(|codec| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        codec.decode_plan(&[0, 1, 3, 4]).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for plan in &plans {
            assert_eq!(plan, &plans[0], "all tenants see the same plan");
        }
        assert_eq!(shared.solves(), 1, "racing tenants must share one solve");
        let per_codec: u64 = codecs.iter().map(CompiledCodec::plan_solves).sum();
        assert_eq!(per_codec, 1);
    }

    #[test]
    fn concurrent_fleet_tenants_solve_once() {
        race_fleet_tenants();
    }

    /// The fleet twin of the looped local race: a tenant that probed
    /// before the leader's insert and reached the gate after the leader
    /// left it used to lead a second solve.
    #[test]
    #[ignore = "slow: 400 eight-tenant races, run by the nightly slow-suite job"]
    fn concurrent_fleet_tenants_solve_once_looped() {
        for _ in 0..400 {
            race_fleet_tenants();
        }
    }

    /// One capacity bounds exact and approximate plans together, in one
    /// LRU order, and the two rungs' plans for one survivor set are
    /// separate lines.
    #[test]
    fn capacity_evicts_across_exact_and_approx_plans() {
        let codec = CompiledCodec::with_cache_capacity(code(), 2).with_approx(Some(10.0));
        let full = [0, 1, 3, 4];
        let past_budget = [0, 1, 3]; // two stragglers, s = 1
        let exact = codec.decode_plan(&full).unwrap();
        let ridge = codec.approximate_plan(&full).unwrap();
        assert!(exact.is_exact() && ridge.is_exact());
        assert_eq!((codec.plan_solves(), codec.cached_plans()), (2, 2));
        // Refresh the exact line.
        codec.decode_plan(&full).unwrap();
        // A failed exact solve (never cached), then a ridge solve whose
        // insert evicts the least recently used line: `full`'s ridge plan.
        assert!(codec.decode_plan(&past_budget).unwrap().residual() > 0.0);
        assert_eq!((codec.plan_solves(), codec.cached_plans()), (4, 2));
        assert_eq!(codec.decode_plan(&full).unwrap(), exact); // still cached
        assert_eq!(codec.plan_solves(), 4);
        assert_eq!(codec.approximate_plan(&full).unwrap(), ridge); // evicted
        assert_eq!(codec.plan_solves(), 5);
        assert_eq!((codec.cache_hits(), codec.cache_misses()), (2, 4));
    }

    /// The blocked `apply_rows_into`/`apply_block_into` decode paths are
    /// bitwise-identical to the sequential `apply_into`.
    #[test]
    fn blocked_apply_paths_match_sequential_bitwise() {
        let b = code();
        let codec = CompiledCodec::new(b);
        let m = codec.workers();
        let dim = 173; // not a multiple of the kernel lanes
        let partials: Vec<Vec<f64>> = (0..codec.partitions())
            .map(|j| (0..dim).map(|t| ((j * 31 + t) as f64).sin()).collect())
            .collect();
        let block = GradientBlock::from_rows(&partials).unwrap();
        let mut arrivals = GradientBlock::new(m, dim);
        for w in 0..m {
            let mut row = vec![0.0; dim];
            codec.encode_into(w, &block, &mut row).unwrap();
            arrivals.row_mut(w).copy_from_slice(&row);
        }
        let survivors: Vec<usize> = (1..m).collect();
        let plan = codec.decode_plan(&survivors).unwrap();

        let mut sequential = vec![0.0; dim];
        plan.apply_into(|w| (w > 0).then(|| arrivals.row(w)), &mut sequential)
            .unwrap();
        let mut blocked = vec![f64::NAN; dim];
        plan.apply_rows_into(|w| (w > 0).then(|| arrivals.row(w)), &mut blocked)
            .unwrap();
        assert_eq!(sequential, blocked);
        let mut from_block = vec![f64::NAN; dim];
        plan.apply_block_into(&arrivals, &mut from_block).unwrap();
        assert_eq!(sequential, from_block);
    }
}
