import numpy as np
import pytest

from mtot import ConfigError, Dataset, SimSpec, generate, pcr_cv, pcr_fit, pcr_predict, smspe
from mtot.pcr import V_GRID, _cv_mse
from mtot.tuning import fold_indices, numerical_rank
from mtot.tensor import fold, unfold


def linear_system_dataset(seed=0, m=40):
    """Exactly low-rank linear link from two inputs to a matrix response."""
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((m, 6))
    x2 = rng.standard_normal((m, 4))
    b1 = rng.standard_normal((6, 12))
    b2 = rng.standard_normal((4, 12))
    y = (x1 @ b1 + x2 @ b2).reshape(m, 3, 4)
    return Dataset(y, [x1, x2])


def test_full_variance_matches_numerical_rank():
    ds = linear_system_dataset()
    model = pcr_fit(ds, 1.0)
    x = np.concatenate([unfold(x, 0) for x in ds.xs], axis=1)
    xc = x - x.mean(axis=0)
    assert model.input_loadings.shape[1] == numerical_rank(xc)
    yc = unfold(ds.y, 0) - unfold(ds.y, 0).mean(axis=0)
    assert model.output_loadings.shape[1] == numerical_rank(yc)


def test_constant_response_predicts_mean():
    rng = np.random.default_rng(1)
    xs = [rng.standard_normal((10, 3))]
    y = np.tile(np.arange(6.0).reshape(2, 3), (10, 1, 1))
    model = pcr_fit(Dataset(y, xs), 0.95)
    assert model.output_loadings.shape[1] == 1
    pred = pcr_predict(model, [rng.standard_normal((4, 3))])
    assert np.allclose(pred, y[:4], atol=1e-10)


def test_constructed_two_component_spectrum():
    rng = np.random.default_rng(2)
    m = 200
    basis = np.linalg.qr(rng.standard_normal((30, 3)))[0]
    scores = rng.standard_normal((m, 3)) * np.array([10.0, 4.0, 0.1])
    x = scores @ basis.T  # variance fractions ~ [0.862, 0.138, 0.0001]
    y = rng.standard_normal((m, 2))
    model = pcr_fit(Dataset(y, [x]), 0.90)
    assert model.input_loadings.shape[1] == 2


def test_low_rank_linear_system_reproduced():
    ds = linear_system_dataset(seed=3)
    model = pcr_fit(ds, 1.0)
    pred = pcr_predict(model, ds.xs)
    rel = np.linalg.norm(pred - ds.y) / np.linalg.norm(ds.y)
    assert rel <= 1e-8


def test_mean_input_maps_to_mean_output():
    ds = linear_system_dataset(seed=4)
    model = pcr_fit(ds, 0.99)
    x_mean = [x.mean(axis=0, keepdims=True) for x in ds.xs]
    pred = pcr_predict(model, x_mean)
    y_mean = ds.y.mean(axis=0)
    assert np.allclose(pred[0], y_mean, atol=1e-10)


def test_predict_matches_score_space_ols_oracle():
    ds = linear_system_dataset(seed=5)
    model = pcr_fit(ds, 0.95)
    x = np.concatenate([unfold(x, 0) for x in ds.xs], axis=1)
    xc = x - model.input_mean
    sx = xc @ model.input_loadings
    design = np.concatenate([np.ones((len(sx), 1)), sx], axis=1)
    sy = (unfold(ds.y, 0) - model.output_mean) @ model.output_loadings
    coef = np.linalg.lstsq(design, sy, rcond=None)[0]
    flat = design @ coef @ model.output_loadings.T + model.output_mean
    oracle = fold(flat, 0, ds.y.shape)
    assert np.allclose(pcr_predict(model, ds.xs), oracle, atol=1e-10)


def test_predict_is_affine_in_inputs():
    ds = linear_system_dataset(seed=6)
    model = pcr_fit(ds, 0.95)
    rng = np.random.default_rng(7)
    xa = [rng.standard_normal((5,) + s) for s in ds.input_shapes]
    xb = [rng.standard_normal((5,) + s) for s in ds.input_shapes]
    alpha = 0.3
    mixed = [alpha * a + (1 - alpha) * b for a, b in zip(xa, xb)]
    lhs = pcr_predict(model, mixed)
    rhs = alpha * pcr_predict(model, xa) + (1 - alpha) * pcr_predict(model, xb)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_cv_single_candidate_and_discrimination():
    ds = linear_system_dataset(seed=8)
    v, model = pcr_cv(ds, k=4, seed=0, grid=(0.9,))
    assert v == 0.9
    # truncating at 90% of variance loses real regressors here
    v2, _ = pcr_cv(ds, k=4, seed=0, grid=(0.9, 1.0))
    assert v2 == 1.0


def test_cv_chooses_sufficient_fraction():
    # one strong predictive direction plus faint nuisance variance: 0.85
    # already captures the signal, so CV keeps the smallest fraction
    rng = np.random.default_rng(9)
    m = 120
    driver = rng.standard_normal((m, 1))
    nuisance = 1e-3 * rng.standard_normal((m, 5))
    x = np.concatenate([driver * 5.0, nuisance], axis=1)
    y = driver @ rng.standard_normal((1, 8))
    v, _ = pcr_cv(Dataset(y, [x]), k=5, seed=1)
    assert v == 0.85


def test_validation_errors():
    ds = linear_system_dataset(seed=10)
    with pytest.raises(ConfigError):
        pcr_fit(ds, 0.0)
    with pytest.raises(ConfigError):
        pcr_fit(ds, 1.2)
    one = Dataset(ds.y[:1], [x[:1] for x in ds.xs])
    with pytest.raises(ConfigError):
        pcr_fit(one, 0.9)
    with pytest.raises(ValueError):
        pcr_predict(pcr_fit(ds, 0.9), [ds.xs[0]])


def test_paper_band_cone():
    data = generate(SimSpec("cone", sigma=0.01, seed=0, m_test=100))
    _, model = pcr_cv(data.train, k=5, seed=0)
    value = float(np.log(smspe(data.test.y, pcr_predict(model, data.test.xs))))
    assert abs(value - (-5.555)) <= 2.0


def _reference_loadings(centered, v):
    """Leading principal directions, factorizing `centered` afresh per call."""
    wide = centered.shape[1] > 4 * centered.shape[0]
    if wide:
        power, u = np.linalg.eigh(centered @ centered.T)
        power = np.clip(power[::-1], 0.0, None)
        u = u[:, ::-1]
        s = np.sqrt(power)
    else:
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        power = s**2
    cutoff = s[0] * max(centered.shape) * np.finfo(np.float64).eps
    rank = max(int((s > cutoff).sum()), 1)
    count = min(int(np.searchsorted(np.cumsum(power) / power.sum(), v - 1e-12) + 1), rank)
    if not wide:
        return vt[:count].T
    return np.linalg.qr(centered.T @ (u[:, :count] / s[:count]))[0]


def _reference_predict(train, v, held_xs):
    x = np.concatenate([unfold(x, 0) for x in train.xs], axis=1)
    y = unfold(train.y, 0)
    xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
    wx, wy = _reference_loadings(xc, v), _reference_loadings(yc, v)
    sx = xc @ wx
    design = np.concatenate([np.ones((sx.shape[0], 1)), sx], axis=1)
    coef = np.linalg.lstsq(design, yc @ wy, rcond=None)[0]
    # same operand layouts as pcr_predict, so the comparison can be exact
    wx, wy, coef = (np.ascontiguousarray(a) for a in (wx, wy, coef))
    xn = np.concatenate([unfold(x, 0) for x in held_xs], axis=1)
    sn = (xn - np.ascontiguousarray(x.mean(axis=0))) @ wx
    design = np.concatenate([np.ones((sn.shape[0], 1)), sn], axis=1)
    flat = design @ coef @ wy.T + np.ascontiguousarray(y.mean(axis=0))
    return fold(flat, 0, (xn.shape[0],) + train.output_shape)


def _reference_cv_mse(ds, folds, grid):
    """Held-out MSE refitting every (fraction, fold) pair from scratch."""
    out = []
    for v in grid:
        err, count = 0.0, 0
        for held in folds:
            train = ds.subset(np.setdiff1d(np.arange(ds.num_samples), held))
            pred = _reference_predict(train, v, [x[held] for x in ds.xs])
            err += float(((ds.y[held] - pred) ** 2).sum())
            count += ds.y[held].size
        out.append(err / count)
    return out


def _wide_dataset():
    """Fewer samples than a quarter of either side's width: the row-Gram path."""
    rng = np.random.default_rng(11)
    m = 30
    latent = rng.standard_normal((m, 4))
    x = latent @ rng.standard_normal((4, 200)) + 0.1 * rng.standard_normal((m, 200))
    y = latent @ rng.standard_normal((4, 150)) + 0.1 * rng.standard_normal((m, 150))
    return Dataset(y.reshape(m, 10, 15), [x[:, :80], x[:, 80:].reshape(m, 12, 10)])


@pytest.mark.parametrize("make", [
    lambda: generate(SimSpec("curve_on_curve", seed=2, m_train=80, m_test=10)).train,
    _wide_dataset,
])
def test_cv_matches_per_fraction_per_fold_reference(make):
    ds = make()
    folds = fold_indices(ds.num_samples, 5, 3)
    grid = sorted(V_GRID)
    expected = _reference_cv_mse(ds, folds, grid)
    assert _cv_mse(ds, folds, grid) == expected
    v, model = pcr_cv(ds, k=5, seed=3)
    assert v == grid[int(np.argmin(expected))]
    assert np.array_equal(pcr_predict(model, ds.xs), _reference_predict(ds, v, ds.xs))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
def test_cv_choice_does_not_depend_on_response_units(scale):
    data = generate(SimSpec("curve_on_curve", seed=0))
    v, _ = pcr_cv(data.train, k=5, seed=0)
    scaled = Dataset(scale * data.train.y, data.train.xs)
    assert pcr_cv(scaled, k=5, seed=0)[0] == v
