//! Chunked, auto-vectorizable `f64` data-plane kernels.
//!
//! These are the per-round hot loops of gradient coding: encoding is
//! `g̃_w = Σ_j b_wj·g_j` (a handful of [`axpy`]s over `d`-length rows),
//! decoding is `g = Σ_w a_w·g̃_w` (one [`block_decode`] — a `1 × |plan|`
//! by `|plan| × d` product). Everything here is written over
//! `chunks_exact` lanes with explicit scalar tails so LLVM reliably emits
//! SIMD for the chunk bodies, without `unsafe` or per-target intrinsics.
//!
//! # Kernel contract
//!
//! * **Elementwise kernels are bitwise-identical to their scalar
//!   definitions.** [`axpy`], [`axpy_rows`] (several `axpy`s in one
//!   pass, applied in argument order) and [`scale`] perform exactly one
//!   multiply and (for the `axpy`s) one add per element, in index order, with
//!   **no zero-coefficient shortcut**: `0 · NaN` is NaN and `0 · ∞` is
//!   NaN, and those propagate exactly as a scalar loop would propagate
//!   them. (An earlier `axpy` returned early on `alpha == 0.0`,
//!   silently dropping non-finite values from `x`; that shortcut is
//!   gone, and `tests/properties.rs` pins the equivalence on non-finite
//!   inputs.) [`axpy_rows_fold`] is [`axpy_rows_zeroed`] then `axpy`
//!   with the intermediate kept in a register: per element the same
//!   `0 +`, the same products in the same order, then one multiply and
//!   one add into the accumulator.
//! * **The ordered multi-dot is bitwise-identical to its scalar
//!   definition too.** [`dot_ordered_each`] runs [`CHAINS`] *independent*
//!   dot products side by side, each one the strict left-to-right fold
//!   `s.iter().zip(r).map(|(x, y)| x * y).sum::<f64>()` — same identity,
//!   same order, no lane accumulators — so every sum, NaN, `±∞` and
//!   `−0.0` comes out as the scalar fold produces it. Interleaving the
//!   chains hides the latency of the one dependent add per element that
//!   bounds a single fold; it never reassociates one. A row count that is
//!   not a multiple of [`CHAINS`] ends in narrower ordered chains.
//! * **Reductions reassociate.** [`dot`] and [`norm_inf`] accumulate in
//!   [`LANES`] independent partial accumulators (that is what lets them
//!   vectorize). [`dot`] is therefore *deterministic* but not
//!   bitwise-equal to a left-to-right scalar fold — use [`dot_ordered_each`]
//!   where the fold's bits are a contract. `max` is associative, so
//!   [`norm_inf`] *is* scalar-identical.
//! * **[`block_decode`] accumulates rows in argument order per element**,
//!   so it is bitwise-identical to a sequence of `axpy` calls over the
//!   full vectors — including across column blocks, across threads
//!   (parallelism splits the `d` dimension) and across its passes (four
//!   rows to a pass over a column block, the first from `0 +`, the
//!   remainder in one pass): the per-element operation order never
//!   changes.

/// Chunk width of the vectorized kernel bodies, in elements.
///
/// Eight covers an AVX-512 register of `f64` and keeps two AVX2 (or four
/// SSE2) operations in flight per chunk for superscalar cores; the
/// compiler re-tiles the chunk body to whatever the target offers.
pub const LANES: usize = 8;

/// Column-block width (elements) of [`block_decode`]: each block of the
/// output stays L1-resident while every input row streams through it
/// once, instead of the output streaming through cache once per row.
pub const COL_BLOCK: usize = 1024;

/// Output length (elements) below which [`block_decode`] never spawns
/// threads: spawning costs more than the decode itself.
pub const PAR_MIN_DIM: usize = 1 << 16;

/// Minimum elements of output per spawned thread.
const PAR_MIN_CHUNK: usize = 1 << 15;

/// In-place scaled accumulation `y[i] += alpha · x[i]` (BLAS `axpy`),
/// bitwise-identical to the scalar loop (see the module contract).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "axpy: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (yl, xl) in yc.by_ref().zip(xc.by_ref()) {
        for i in 0..LANES {
            yl[i] += alpha * xl[i];
        }
    }
    for (yi, &xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// `K` [`axpy`]s in one pass over `y`: `y[i] = ((y[i] + α₀·x₀[i]) +
/// α₁·x₁[i]) + …`, bitwise the calls `axpy(α_c, x_c, y)` for `c` in
/// order — `y` is loaded and stored once instead of `K` times.
///
/// # Panics
///
/// Panics if a row's length differs from `y.len()`.
#[inline]
pub fn axpy_rows<const K: usize>(alpha: [f64; K], x: [&[f64]; K], y: &mut [f64]) {
    fused_axpys::<K, false>(alpha, x, y);
}

/// [`axpy_rows`] onto zeros, without the pass that writes them: `y[i] =
/// ((0 + α₀·x₀[i]) + α₁·x₁[i]) + …`, bitwise `y.fill(0.0)` followed
/// by [`axpy_rows`] (the `0 +` stays: it is what turns a `−0.0` product
/// into the `+0.0` an accumulation from zero yields).
///
/// # Panics
///
/// Panics if a row's length differs from `y.len()`.
#[inline]
pub fn axpy_rows_zeroed<const K: usize>(alpha: [f64; K], x: [&[f64]; K], y: &mut [f64]) {
    fused_axpys::<K, true>(alpha, x, y);
}

/// [`axpy_rows_zeroed`] added into an accumulator in the same pass:
/// `acc[i] += coef · (((0 + α₀·x₀[i]) + α₁·x₁[i]) + …)`, bitwise
/// `axpy_rows_zeroed(alpha, x, g)` followed by `axpy(coef, g, acc)` with
/// no `g` in memory — every element keeps both orders, the `0 +`
/// included. How a worker folds a partition's gradient into its coded
/// one as it forms it.
///
/// # Panics
///
/// Panics if a row's length differs from `acc.len()`.
#[inline]
pub fn axpy_rows_fold<const K: usize>(coef: f64, alpha: [f64; K], x: [&[f64]; K], acc: &mut [f64]) {
    let n = acc.len();
    assert!(x.iter().all(|r| r.len() == n), "axpy_rows: length mismatch");
    let x = x.map(|r| &r[..n]);
    for (i, ai) in acc.iter_mut().enumerate() {
        let mut g = 0.0;
        for c in 0..K {
            g += alpha[c] * x[c][i];
        }
        *ai += coef * g;
    }
}

#[inline]
fn fused_axpys<const K: usize, const ZEROED: bool>(alpha: [f64; K], x: [&[f64]; K], y: &mut [f64]) {
    let n = y.len();
    assert!(x.iter().all(|r| r.len() == n), "axpy_rows: length mismatch");
    let x = x.map(|r| &r[..n]);
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = if ZEROED { 0.0 } else { *yi };
        for c in 0..K {
            acc += alpha[c] * x[c][i];
        }
        *yi = acc;
    }
}

/// In-place scaling `x[i] *= alpha`, bitwise-identical to the scalar
/// loop.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    let mut xc = x.chunks_exact_mut(LANES);
    for xl in xc.by_ref() {
        for xi in xl {
            *xi *= alpha;
        }
    }
    for xi in xc.into_remainder() {
        *xi *= alpha;
    }
}

/// Dot product `Σ a_i·b_i` over [`LANES`] partial accumulators.
///
/// Deterministic, but reassociated relative to a scalar left-to-right
/// fold (see the module contract).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
/// ```
/// assert_eq!(hetgc_linalg::kernels::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    let mut acc = [0.0; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (al, bl) in ac.by_ref().zip(bc.by_ref()) {
        for i in 0..LANES {
            acc[i] += al[i] * bl[i];
        }
    }
    for (i, (&ai, &bi)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        acc[i] += ai * bi;
    }
    let mut total = 0.0;
    for lane in acc {
        total += lane;
    }
    total
}

/// Chains [`dot_ordered_each`] runs side by side.
///
/// Measured, not derived: at the ledger's shapes (`d = 128` and
/// `d = 8192`, baseline x86-64 build) one chain costs 0.45–0.68 ns per
/// element — the latency of its dependent add — two 0.34–0.38, four
/// 0.26–0.29 and eight 0.24–0.29: four already sit on the multiply/add
/// issue limit, and a wider block only lengthens the tails.
pub const CHAINS: usize = 4;

/// `K` independent ordered dot products against one shared vector, in
/// one pass over the elements: `out[c]` is bitwise
/// `shared.iter().zip(rows[c]).map(|(s, r)| s * r).sum::<f64>()` (see
/// the module contract). The shared side is one weight vector under `K`
/// samples, or one sample under `K` weight rows. The fold it reproduces
/// is `Iterator::sum::<f64>`, identity included.
///
/// # Panics
///
/// Panics if a row's length differs from `shared.len()`.
#[inline]
fn dot_ordered<const K: usize>(shared: &[f64], rows: [&[f64]; K]) -> [f64; K] {
    let n = shared.len();
    assert!(
        rows.iter().all(|r| r.len() == n),
        "dot_ordered: length mismatch"
    );
    // Re-slicing to the common length lets the compiler drop the bounds
    // checks in the loop.
    let rows = rows.map(|r| &r[..n]);
    // Whatever `Sum for f64` starts from on this toolchain (`-0.0` today),
    // so an empty or all-negative-zero fold keeps its sign bit.
    let identity: f64 = core::iter::empty::<f64>().sum();
    let mut acc = [identity; K];
    for (j, &s) in shared.iter().enumerate() {
        for c in 0..K {
            acc[c] += s * rows[c][j];
        }
    }
    acc
}

/// The ordered multi-dot over any number of rows: `out[i]` is the ordered dot
/// product of `shared` and the `i`-th row, computed [`CHAINS`] rows at a
/// time with narrower ordered chains (never a different fold) for the
/// last `out.len() % CHAINS`.
///
/// # Panics
///
/// Panics if `rows` yields fewer than `out.len()` rows, or one of a
/// length other than `shared.len()`.
pub fn dot_ordered_each<'a, I>(shared: &[f64], rows: I, out: &mut [f64])
where
    I: IntoIterator<Item = &'a [f64]>,
{
    fn block<'a, const K: usize>(
        shared: &[f64],
        rows: &mut impl Iterator<Item = &'a [f64]>,
        out: &mut [f64],
    ) {
        let rows: [_; K] = core::array::from_fn(|_| {
            rows.next()
                .expect("dot_ordered_each: fewer rows than outputs")
        });
        out.copy_from_slice(&dot_ordered(shared, rows));
    }
    // The tail below splits into a pair and a single: all of `0..CHAINS`.
    const _: () = assert!(CHAINS == 4);
    let mut rows = rows.into_iter();
    let mut blocks = out.chunks_exact_mut(CHAINS);
    for out in blocks.by_ref() {
        block::<CHAINS>(shared, &mut rows, out);
    }
    let tail = blocks.into_remainder();
    let (two, one) = tail.split_at_mut(tail.len() & !1);
    if !two.is_empty() {
        block::<2>(shared, &mut rows, two);
    }
    if !one.is_empty() {
        block::<1>(shared, &mut rows, one);
    }
}

/// Maximum absolute component `|x|_∞`. `max` is associative, so this is
/// scalar-identical despite the lane accumulators.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    let mut acc = [0.0_f64; LANES];
    let mut xc = x.chunks_exact(LANES);
    for xl in xc.by_ref() {
        for i in 0..LANES {
            acc[i] = acc[i].max(xl[i].abs());
        }
    }
    for (i, &xi) in xc.remainder().iter().enumerate() {
        acc[i] = acc[i].max(xi.abs());
    }
    let mut total = 0.0_f64;
    for lane in acc {
        total = total.max(lane);
    }
    total
}

/// The GEMM-style whole-round decode kernel:
/// `out[t] = Σ_i coeffs[i] · row_of(i)[t]` — one `1 × n` by `n × d`
/// product, column-blocked so each [`COL_BLOCK`] span of `out` stays
/// L1-resident while every row streams through it once.
///
/// Rows are fetched by index through `row_of`, so callers can feed a
/// flat arrival block, scattered `Arc` payloads, or a CSR-gathered
/// subset without materializing a slice-of-slices. Spawns up to
/// `max_threads` scoped threads across the `d` dimension when
/// `out.len() ≥` [`PAR_MIN_DIM`]; pass `1` to force the sequential path
/// (e.g. on a zero-allocation hot path — spawning allocates).
///
/// Bitwise-identical to the equivalent sequence of full-length [`axpy`]
/// calls, for any block size and thread count (see the module contract).
///
/// # Panics
///
/// Panics if any row's length differs from `out.len()`.
pub fn block_decode_threads<'a, F>(coeffs: &[f64], row_of: &F, out: &mut [f64], max_threads: usize)
where
    F: Fn(usize) -> &'a [f64] + Sync,
{
    for i in 0..coeffs.len() {
        assert_eq!(
            row_of(i).len(),
            out.len(),
            "block_decode: row {i} length mismatch"
        );
    }
    let d = out.len();
    let threads = if d >= PAR_MIN_DIM {
        max_threads.clamp(1, d.div_ceil(PAR_MIN_CHUNK))
    } else {
        1
    };
    if threads <= 1 {
        block_decode_span(coeffs, row_of, out, 0);
        return;
    }
    // Contiguous per-thread spans, rounded to whole column blocks so the
    // blocking pattern (and thus nothing at all, per-element) is
    // unaffected by the split.
    let span = d.div_ceil(threads).div_ceil(COL_BLOCK) * COL_BLOCK;
    std::thread::scope(|scope| {
        for (t, chunk) in out.chunks_mut(span).enumerate() {
            scope.spawn(move || block_decode_span(coeffs, row_of, chunk, t * span));
        }
    });
}

/// [`block_decode_threads`] with the automatic thread count: one thread
/// per `PAR_MIN_CHUNK` (2¹⁵ elements) of output, capped at the machine's available
/// parallelism (sequential below [`PAR_MIN_DIM`]).
pub fn block_decode<'a, F>(coeffs: &[f64], row_of: &F, out: &mut [f64])
where
    F: Fn(usize) -> &'a [f64] + Sync,
{
    block_decode_threads(coeffs, row_of, out, available_threads());
}

/// Rows [`block_decode`] accumulates per pass over a column block.
const DECODE_ROWS: usize = 4;

/// The sequential core of [`block_decode`]: one contiguous span of the
/// output, column-blocked, rows accumulated in index order
/// [`DECODE_ROWS`] to a pass — the first pass from zero
/// ([`axpy_rows_zeroed`]), the rest onto it ([`axpy_rows`]), a tail of
/// one to three rows in one pass of its own.
fn block_decode_span<'a, F>(coeffs: &[f64], row_of: &F, out: &mut [f64], offset: usize)
where
    F: Fn(usize) -> &'a [f64],
{
    fn pass<'a, const K: usize>(
        first: usize,
        coeffs: &[f64],
        row_of: &impl Fn(usize) -> &'a [f64],
        at: usize,
        chunk: &mut [f64],
    ) {
        let alpha = core::array::from_fn(|c| coeffs[first + c]);
        let x = core::array::from_fn(|c| &row_of(first + c)[at..at + chunk.len()]);
        if first == 0 {
            axpy_rows_zeroed::<K>(alpha, x, chunk);
        } else {
            axpy_rows::<K>(alpha, x, chunk);
        }
    }
    if coeffs.is_empty() {
        out.fill(0.0);
        return;
    }
    // The tail below is one pass of `1..DECODE_ROWS` rows.
    const _: () = assert!(DECODE_ROWS == 4);
    let whole = coeffs.len() - coeffs.len() % DECODE_ROWS;
    let mut at = offset;
    for chunk in out.chunks_mut(COL_BLOCK) {
        for first in (0..whole).step_by(DECODE_ROWS) {
            pass::<DECODE_ROWS>(first, coeffs, row_of, at, chunk);
        }
        match coeffs.len() - whole {
            0 => {}
            1 => pass::<1>(whole, coeffs, row_of, at, chunk),
            2 => pass::<2>(whole, coeffs, row_of, at, chunk),
            _ => pass::<3>(whole, coeffs, row_of, at, chunk),
        }
        at += chunk.len();
    }
}

/// The machine's available parallelism, probed once.
fn available_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference each elementwise kernel must match bitwise.
    fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64).sin() * 3.0).collect()
    }

    /// Bit patterns, every NaN folded to one (payloads are not part of
    /// the contract).
    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect()
    }

    #[test]
    fn axpy_bitwise_matches_scalar_all_lengths() {
        for n in [0, 1, 7, 8, 9, 31, 64, 100] {
            let x = ramp(n);
            let mut y = ramp(n);
            let mut y_ref = y.clone();
            axpy(-1.75, &x, &mut y);
            axpy_scalar(-1.75, &x, &mut y_ref);
            assert_eq!(y, y_ref, "n = {n}");
        }
    }

    #[test]
    fn axpy_zero_alpha_propagates_non_finite() {
        // The pinned contract: no zero shortcut, 0 · NaN and 0 · ∞ are
        // NaN, exactly as in the scalar loop.
        let x = [1.0, f64::NAN, f64::INFINITY, -3.0];
        let mut y = [1.0, 2.0, 3.0, 4.0];
        axpy(0.0, &x, &mut y);
        assert_eq!(y[0], 1.0);
        assert!(y[1].is_nan());
        assert!(y[2].is_nan());
        assert_eq!(y[3], 4.0);
    }

    #[test]
    fn zero_times_nan_is_nan() {
        // No kernel short-circuits a zero coefficient: `0 · NaN` is NaN,
        // in a single `axpy` and in a decode that scales a NaN row by 0.
        let mut y = [1.0];
        axpy(0.0, &[f64::NAN], &mut y);
        assert!(y[0].is_nan());
        let rows = [[1.0, 2.0], [f64::NAN, 3.0]];
        let mut out = [0.0; 2];
        block_decode(&[1.0, 0.0], &|i| rows[i].as_slice(), &mut out);
        assert!(out[0].is_nan());
        assert_eq!(out[1], 2.0);
    }

    #[test]
    fn axpy_rows_bitwise_matches_the_axpy_sequence() {
        for n in [0, 1, 7, 8, 9, 129] {
            let rows: [Vec<f64>; 3] = [
                ramp(n),
                ramp(n + 1)[1..].to_vec(),
                ramp(n + 2)[2..].to_vec(),
            ];
            let x = [&rows[0][..], &rows[1][..], &rows[2][..]];
            // A zero coefficient over a NaN still poisons, as in `axpy`.
            let alpha = [-1.75, 0.0, 0.3];
            let mut poisoned = rows.clone();
            if n > 0 {
                poisoned[1][0] = f64::NAN;
            }
            for x in [x, [&poisoned[0][..], &poisoned[1][..], &poisoned[2][..]]] {
                let mut want = ramp(n);
                let mut got = want.clone();
                for c in 0..3 {
                    axpy_scalar(alpha[c], x[c], &mut want);
                }
                axpy_rows(alpha, x, &mut got);
                assert_eq!(bits(&got), bits(&want), "n = {n}");

                // From zeros: `−0.0` products come out `+0.0`, as after a fill.
                let mut want = vec![0.0; n];
                for c in 0..3 {
                    axpy_scalar(alpha[c], x[c], &mut want);
                }
                let mut got = vec![f64::NAN; n];
                axpy_rows_zeroed(alpha, x, &mut got);
                assert_eq!(bits(&got), bits(&want), "n = {n}, zeroed");
            }
        }
        let mut y = [f64::NAN];
        axpy_rows_zeroed([-1.0], [&[0.0]], &mut y);
        assert_eq!(y[0].to_bits(), 0.0_f64.to_bits(), "0 + (−1·0) is +0.0");
    }

    #[test]
    fn axpy_rows_fold_bitwise_matches_zeroed_then_axpy() {
        /// Checks every `n` and `coef` for `K` rows; returns whether the
        /// inputs told the kernel apart from a fold that drops the `0 +`
        /// and from one that distributes `coef` over the rows.
        fn check<const K: usize>() -> [bool; 2] {
            let mut exposed = [false; 2];
            let alpha: [f64; K] = core::array::from_fn(|c| [0.5, -1.25, 2.0, -0.3][c]);
            let cases = [0, 1, 7, 8, 9, 33].into_iter().flat_map(|n| {
                // NaN, ±∞ and `−0.0` in rows and accumulator; then rows of
                // zeros signed so every product is `−0.0` — they sum to
                // `+0.0` from `0 +` and to `−0.0` without it — onto an
                // accumulator of `−0.0`.
                let wild_rows: [Vec<f64>; K] = core::array::from_fn(|c| wild(n, c + 1));
                let zero_rows: [Vec<f64>; K] =
                    core::array::from_fn(|c| vec![0.0_f64.copysign(-alpha[c]); n]);
                [(wild_rows, wild(n, 9)), (zero_rows, vec![-0.0; n])]
            });
            for (rows, start) in cases {
                let n = start.len();
                let x: [&[f64]; K] = core::array::from_fn(|c| rows[c].as_slice());
                for coef in [1.5, -0.75, 0.0, -0.0, f64::INFINITY, f64::NAN] {
                    let mut g = vec![f64::NAN; n];
                    axpy_rows_zeroed(alpha, x, &mut g);
                    let mut want = start.clone();
                    axpy_scalar(coef, &g, &mut want);
                    let mut got = start.clone();
                    axpy_rows_fold(coef, alpha, x, &mut got);
                    assert_eq!(bits(&got), bits(&want), "K = {K}, n = {n}, coef {coef}");

                    let (mut dropped, mut distributed) = (start.clone(), start.clone());
                    for i in 0..n {
                        let products = (0..K).map(|c| alpha[c] * x[c][i]);
                        let from_first = products.clone().reduce(|a, b| a + b);
                        dropped[i] += coef * from_first.unwrap_or(0.0);
                        distributed[i] = products.fold(distributed[i], |a, p| a + coef * p);
                    }
                    exposed[0] |= bits(&dropped) != bits(&want);
                    exposed[1] |= bits(&distributed) != bits(&want);
                }
            }
            exposed
        }
        let exposed = [
            check::<0>(),
            check::<1>(),
            check::<2>(),
            check::<3>(),
            check::<4>(),
        ];
        assert!(
            exposed[1..].iter().all(|e| e[0]),
            "a dropped `0 +` goes unseen"
        );
        assert!(
            exposed[2..].iter().all(|e| e[1]),
            "a distributed `coef` goes unseen"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rows_rejects_ragged_rows() {
        axpy_rows([1.0, 1.0], [&[1.0, 2.0], &[1.0]], &mut [0.0; 2]);
    }

    #[test]
    fn scale_and_norms() {
        let mut x = vec![1.0_f64, -2.0, 3.0];
        scale(-2.0, &mut x);
        assert_eq!(x, vec![-2.0, 4.0, -6.0]);
        assert_eq!(norm_inf(&x), 6.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_len_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot_matches_scalar_within_reassociation() {
        for n in [1, 8, 13, 100, 1000] {
            let a = ramp(n);
            let b: Vec<f64> = ramp(n).iter().map(|v| v + 0.5).collect();
            let scalar: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let chunked = dot(&a, &b);
            assert!(
                (scalar - chunked).abs() <= 1e-12 * (1.0 + scalar.abs()),
                "n = {n}: {scalar} vs {chunked}"
            );
        }
    }

    /// The scalar fold each chain of the ordered multi-dot must match
    /// bitwise.
    fn fold(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()
    }

    #[test]
    fn dot_ordered_bitwise_matches_scalar_fold_all_shapes() {
        for n in [0, 1, 3, 7, 8, 9, 128, 129] {
            let shared = ramp(n);
            let rows: Vec<Vec<f64>> = (0..11)
                .map(|i| ramp(n).iter().map(|v| v * 0.37 + i as f64).collect())
                .collect();
            // Every block/tail split of the chains: 0..=2·CHAINS + 2 rows.
            for count in 0..=rows.len() {
                let mut out = vec![f64::NAN; count];
                dot_ordered_each(&shared, rows.iter().map(Vec::as_slice), &mut out);
                for (c, row) in rows[..count].iter().enumerate() {
                    let want = fold(&shared, row);
                    assert_eq!(
                        out[c].to_bits(),
                        want.to_bits(),
                        "n = {n}, row {c} of {count}"
                    );
                }
            }
        }
    }

    #[test]
    fn dot_ordered_is_not_the_reassociated_dot() {
        // The point of the primitive: `dot` sums lanes, the fold does not.
        let a = ramp(129);
        let b: Vec<f64> = ramp(129).iter().map(|v| v + 0.5).collect();
        let [ordered] = dot_ordered(&a, [&b]);
        assert_eq!(ordered.to_bits(), fold(&a, &b).to_bits());
        assert_ne!(ordered.to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn dot_ordered_propagates_non_finite_and_signed_zero() {
        let shared = [0.0, 1.0, -2.0];
        let [nan, inf, zero_times_inf, negative_zero] = dot_ordered(
            &shared,
            [
                &[1.0, f64::NAN, 1.0],
                &[1.0, f64::INFINITY, 1.0],
                &[f64::INFINITY, 1.0, 1.0],
                &[-1.0, -0.0, 0.0],
            ],
        );
        assert!(nan.is_nan());
        assert_eq!(inf, f64::INFINITY);
        assert!(zero_times_inf.is_nan(), "0 · ∞ is NaN, no zero shortcut");
        // −0.0 + −0.0 + −0.0 from the `Sum` identity: the sign survives,
        // as it does in the scalar fold.
        let want = fold(&shared, &[-1.0, -0.0, 0.0]);
        assert_eq!(negative_zero.to_bits(), want.to_bits());
        let empty = fold(&[], &[]);
        assert_eq!(dot_ordered(&[], [&[]])[0].to_bits(), empty.to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_ordered_rejects_ragged_rows() {
        dot_ordered(&[1.0, 2.0], [&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    #[should_panic(expected = "fewer rows than outputs")]
    fn dot_ordered_each_rejects_missing_rows() {
        let row = [1.0];
        dot_ordered_each(&[1.0], [&row[..]; 2], &mut [0.0; 3]);
    }

    #[test]
    fn block_decode_bitwise_matches_axpy_sequence() {
        let rows: Vec<Vec<f64>> = (0..5).map(|i| ramp(3 * COL_BLOCK + 17 + i - i)).collect();
        let coeffs = [0.5, -1.25, 2.0, 0.0, 3.5];
        let d = rows[0].len();
        let mut reference = vec![0.0; d];
        for (i, &c) in coeffs.iter().enumerate() {
            axpy(c, &rows[i], &mut reference);
        }
        let mut out = vec![f64::NAN; d];
        block_decode(&coeffs, &|i| rows[i].as_slice(), &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    fn block_decode_threads_bitwise_matches_sequential() {
        // Force the parallel path regardless of core count: the split
        // across the d dimension must not change a single bit.
        let d = PAR_MIN_DIM + 3 * COL_BLOCK + 11;
        let rows: Vec<Vec<f64>> = (0..4).map(|_| ramp(d)).collect();
        let coeffs = [1.5, -0.25, 0.75, 2.0];
        let mut sequential = vec![0.0; d];
        block_decode_threads(&coeffs, &|i| rows[i].as_slice(), &mut sequential, 1);
        for threads in [2, 3, 7] {
            let mut parallel = vec![f64::NAN; d];
            block_decode_threads(&coeffs, &|i| rows[i].as_slice(), &mut parallel, threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    /// `n` full-mantissa values, about one in five `NaN`, `±∞` or `−0.0`
    /// at a position that moves with `seed`.
    fn wild(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match (i * 7 + seed * 3) % 20 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 | 4 => -0.0,
                _ => ((i + seed) as f64 * 0.7).sin() * 3.3,
            })
            .collect()
    }

    /// The reference every decode must equal bit for bit: a zero fill,
    /// then one full-length scalar `axpy` per row, in row order.
    fn decode_by_axpys(coeffs: &[f64], rows: &[Vec<f64>], d: usize) -> Vec<f64> {
        let mut out = vec![0.0; d];
        for (c, row) in coeffs.iter().zip(rows) {
            axpy_scalar(*c, row, &mut out);
        }
        out
    }

    #[test]
    fn block_decode_every_row_count_bitwise_matches_the_axpy_sequence() {
        let coeffs = [0.5, -1.25, -2.0, 0.0, 3.5, -0.0, 0.75, -1.5, 2.25];
        for d in [13, COL_BLOCK - 1, COL_BLOCK, 2 * COL_BLOCK + 3] {
            let rows: Vec<Vec<f64>> = (0..coeffs.len()).map(|i| wild(d, i)).collect();
            // The first row has `−0.0` products, where the `0 +` a decode
            // starts from is what makes the sum `+0.0`: one that started
            // from its first product would fail below.
            assert!(rows[0]
                .iter()
                .any(|r| (coeffs[0] * r).to_bits() == (-0.0_f64).to_bits()));
            for count in 0..=coeffs.len() {
                let want = decode_by_axpys(&coeffs[..count], &rows, d);
                let mut out = vec![f64::NAN; d];
                block_decode(&coeffs[..count], &|i| rows[i].as_slice(), &mut out);
                assert_eq!(bits(&out), bits(&want), "d = {d}, {count} rows");
            }
        }
    }

    #[test]
    fn block_decode_threaded_split_bitwise_matches_the_axpy_sequence() {
        let d = PAR_MIN_DIM + 3 * COL_BLOCK + 11;
        let coeffs = [1.5, -0.25, 0.75, -2.0, 0.5, -1.0, 3.0];
        let rows: Vec<Vec<f64>> = (0..coeffs.len()).map(|i| wild(d, i)).collect();
        for count in [0, 1, 3, 4, 5, 7] {
            let want = decode_by_axpys(&coeffs[..count], &rows, d);
            for threads in [1, 2, 3] {
                let mut out = vec![f64::NAN; d];
                block_decode_threads(&coeffs[..count], &|i| rows[i].as_slice(), &mut out, threads);
                assert_eq!(bits(&out), bits(&want), "{count} rows, {threads} threads");
            }
        }
    }

    #[test]
    fn block_decode_empty_coeffs_zeroes_out() {
        let mut out = vec![f64::NAN; 10];
        let rows: Vec<Vec<f64>> = Vec::new();
        block_decode(&[], &|i| rows[i].as_slice(), &mut out);
        assert_eq!(out, vec![0.0; 10]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn block_decode_rejects_short_rows() {
        let row = [1.0_f64; 4];
        let mut out = [0.0_f64; 8];
        block_decode(&[1.0], &|_| &row[..], &mut out);
    }
}
