//! Fixtures of the bitwise tests: the numeric contract of [`crate::Model`]
//! says every prediction is a left-to-right fold over features, and these
//! are the values, shapes and comparisons the models' tests pin it with.

use std::cell::Cell;

use crate::dataset::{Dataset, Targets};
use crate::model::{Model, PartialSink};

thread_local! {
    static SCALAR_FOLDS: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with `SoftmaxRegression::logits` and `Mlp::forward` switched
/// to the per-unit scalar folds they were before the ordered multi-dot:
/// whatever `f` computes is the reference the interleaved path must equal
/// bit for bit.
pub(crate) fn with_scalar_folds<R>(f: impl FnOnce() -> R) -> R {
    SCALAR_FOLDS.with(|on| on.set(true));
    let result = f();
    SCALAR_FOLDS.with(|on| on.set(false));
    result
}

/// Whether [`with_scalar_folds`] is in effect on this thread.
pub(crate) fn scalar_folds() -> bool {
    SCALAR_FOLDS.with(Cell::get)
}

/// The fold itself, as every model spelled it.
pub(crate) fn fold(w: &[f64], x: &[f64]) -> f64 {
    w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>()
}

/// `n` reproducible values with full mantissas (a reassociated sum of them
/// changes bits). With `wild`, about one in seven is `NaN`, `±∞` or
/// `−0.0` instead.
pub(crate) fn values(n: usize, seed: u64, wild: bool) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = state >> 33;
            match (wild, draw % 28) {
                (true, 0) => f64::NAN,
                (true, 1) => f64::INFINITY,
                (true, 2) => f64::NEG_INFINITY,
                (true, 3) => -0.0,
                _ => (draw as f64 / (1u64 << 31) as f64 - 0.5) * 2.3,
            }
        })
        .collect()
}

/// Which operand of the folds carries the non-finite values.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wild {
    Nothing,
    Features,
    Params,
    /// Regression targets (a classification dataset has none).
    Targets,
    /// Every feature `−0.0`: finite residuals times `−0.0` features, the
    /// terms whose sum only a leading `0 +` turns into `+0.0`.
    NegativeZeros,
}

impl Wild {
    pub(crate) const ALL: [Wild; 5] = [
        Wild::Nothing,
        Wild::Features,
        Wild::Params,
        Wild::Targets,
        Wild::NegativeZeros,
    ];
}

/// A regression dataset of `n` samples (classification with `classes`).
pub(crate) fn dataset(n: usize, dim: usize, classes: Option<usize>, wild: Wild) -> Dataset {
    let x = match wild {
        Wild::NegativeZeros => vec![-0.0; n * dim],
        _ => values(n * dim, 11, matches!(wild, Wild::Features)),
    };
    let targets = match classes {
        None => Targets::Regression(values(n, 12, matches!(wild, Wild::Targets))),
        Some(num_classes) => Targets::Classes {
            labels: (0..n).map(|i| (i * 7 + 3) % num_classes).collect(),
            num_classes,
        },
    };
    Dataset::new(x, targets, dim)
}

/// Parameters for `model`.
pub(crate) fn params(model: &dyn Model, wild: Wild) -> Vec<f64> {
    values(model.num_params(), 13, matches!(wild, Wild::Params))
}

/// Every `[lo, lo + len)` with `len` in `0..=2·CHAINS + 1` at five
/// alignments of `lo`: all block/tail splits of the chains.
pub(crate) fn short_ranges() -> impl Iterator<Item = (usize, usize)> {
    let lens = 0..=2 * hetgc_coding::kernels::CHAINS + 1;
    lens.flat_map(|len| [0, 1, 2, 3, 5].map(|lo| (lo, lo + len)))
}

/// Consecutive ranges from an unaligned start mixing empty, one-sample
/// and many-sample partitions (two of them longer than the residual
/// buffer of `LinearRegression`); returns them with the sample count they
/// need.
pub(crate) fn ragged_ranges() -> (Vec<(usize, usize)>, usize) {
    let lens = [
        1, 1, 0, 9, 1, 3, 4, 1, 1, 1, 8, 5, 2, 17, 1, 40, 7, 0, 1, 1, 1, 1, 1, 6, 16,
    ];
    let mut lo = 3;
    let ranges = lens
        .iter()
        .map(|len| {
            lo += len;
            (lo - len, lo)
        })
        .collect();
    (ranges, lo)
}

/// Coefficients for `n` ranges: both zeros (`0 · NaN` stays NaN),
/// negatives, and magnitudes that make a dropped or reordered term
/// visible.
pub(crate) fn coefficients(n: usize) -> Vec<f64> {
    let cycle = [1.75, 0.0, -0.3, 2.0, -0.0, -1.0, 0.1];
    (0..n).map(|i| cycle[i % cycle.len()]).collect()
}

/// `acc += coef · g` element by element: the fold every sink must equal.
fn fold_into(coef: f64, g: &[f64], acc: &mut [f64]) {
    for (a, g) in acc.iter_mut().zip(g) {
        *a += coef * g;
    }
}

/// `for_each_partial` over `ranges` into [`PartialSink::Fold`] with
/// `coefficients`, from an accumulator of `−0.0` — where a fold that
/// drops its `0 +` keeps a `−0.0` the reference turns into `+0.0`.
fn folded(
    model: &dyn Model,
    params: &[f64],
    data: &Dataset,
    ranges: &[(usize, usize)],
    coefficients: &[f64],
) -> Vec<f64> {
    let n = model.num_params();
    let (mut acc, mut scratch) = (vec![-0.0; n], vec![f64::NAN; n]);
    model.for_each_partial(params, data, ranges, &mut |p, fill| {
        fill(PartialSink::Fold {
            coef: coefficients[p],
            acc: &mut acc,
            scratch: &mut scratch,
        });
    });
    acc
}

/// Bit equality, any NaN equal to any NaN (`0 · ∞` and `NAN` differ in
/// payload only).
#[track_caller]
pub(crate) fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: coordinate {j}: {g:e} ({:#018x}) != {w:e} ({:#018x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// The whole contract for one `(model, params, data)`:
///
/// * `loss` and `gradient_into` over [`short_ranges`], and each of those
///   ranges alone folded into a coded gradient with every
///   [`coefficients`] value,
/// * `for_each_partial` over [`ragged_ranges`], once into the rows of a
///   block (the simulator's use), once written into a scratch vector the
///   visitor folds itself, and once folded by the model with
///   [`coefficients`] (every worker's use),
///
/// each against `reference(range) -> (loss, gradient)`.
pub(crate) fn assert_model_matches(
    model: &dyn Model,
    params: &[f64],
    data: &Dataset,
    reference: &dyn Fn((usize, usize)) -> (f64, Vec<f64>),
    what: &str,
) {
    let n = model.num_params();
    for range in short_ranges() {
        let (loss, gradient) = reference(range);
        let what = format!("{what}, range {range:?}");
        assert_same_bits(&[model.loss(params, data, range)], &[loss], &what);
        let mut out = vec![f64::NAN; n];
        model.gradient_into(params, data, range, &mut out);
        assert_same_bits(&out, &gradient, &what);
        for coef in coefficients(7) {
            let mut want = vec![-0.0; n];
            fold_into(coef, &gradient, &mut want);
            let got = folded(model, params, data, &[range], &[coef]);
            assert_same_bits(&got, &want, &format!("{what}, folded with {coef}"));
        }
    }

    let (ranges, _) = ragged_ranges();
    let mut block = hetgc_coding::GradientBlock::new(0, 0);
    crate::partial_gradients_into(model, params, data, &ranges, &mut block);
    let coefficients = coefficients(ranges.len());
    let mut want_coded = vec![-0.0; n];
    for (p, &range) in ranges.iter().enumerate() {
        let gradient = reference(range).1;
        assert_same_bits(block.row(p), &gradient, &format!("{what}, block row {p}"));
        fold_into(coefficients[p], &gradient, &mut want_coded);
    }
    let mut coded = vec![-0.0; n];
    let mut partial = vec![f64::NAN; n];
    let mut visited = Vec::new();
    model.for_each_partial(params, data, &ranges, &mut |p, fill| {
        visited.push(p);
        fill(PartialSink::Write(&mut partial));
        fold_into(coefficients[p], &partial, &mut coded);
    });
    assert_eq!(visited, (0..ranges.len()).collect::<Vec<_>>(), "{what}");
    assert_same_bits(&coded, &want_coded, &format!("{what}, coded gradient"));
    let coded = folded(model, params, data, &ranges, &coefficients);
    assert_same_bits(
        &coded,
        &want_coded,
        &format!("{what}, folded coded gradient"),
    );
}
